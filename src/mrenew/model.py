"""Queue parameters and tridiagonal semi-Markov kernel transforms.

An immigration-and-death kernel is tridiagonal: from state j the process
jumps up with transformed weight tau_bar(j, s) and down with
sigma_bar(j, s); state 0 has no down-move.  The M|M|infinity occupancy
process is the instance with a constant arrival rate and per-customer
service rate 1/alpha:

    tau_bar(j, s)   = rho / (j + rho + alpha*s)
    sigma_bar(j, s) = j   / (j + rho + alpha*s)       rho = lam * alpha

`invert` recovers time-domain values from these transforms; `mcsim`
walks paths from the jump rates behind them (`MMInfinityKernel.rates`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

_INVARIANT_TOL = 1e-12  # slack allowed in each kernel invariant


@dataclass(frozen=True)
class QueueParams:
    """Arrival rate and mean service time.

    The traffic intensity ``rho`` is always recomputed from ``lam * alpha``
    so an inconsistent (lam, alpha, rho) triple cannot exist.
    """

    lam: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"arrival rate must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"mean service time must be finite and > 0, got {self.alpha}")
        if not math.isfinite(self.rho):
            raise ValueError(f"traffic intensity lam * alpha must be finite, got {self.lam} * {self.alpha}")

    @property
    def rho(self) -> float:
        return self.lam * self.alpha


def _check_state_and_s(j, s):
    if np.min(j) < 0:
        raise ValueError(f"state index must be >= 0, got {np.min(j)}")
    if np.min(np.real(s)) < 0:
        raise ValueError(f"transform variable needs Re(s) >= 0, got Re(s) = {np.min(np.real(s))}")


class KernelTransform(ABC):
    """Transform-domain evaluator for a tridiagonal semi-Markov kernel.

    Implementations return the pair ``(sigma_bar, tau_bar)`` for integer
    states j >= 0 and transform variables s.  Both arguments may be numpy
    arrays, and the result must broadcast over them: the solvers in
    `mrenew.oracle` ask for a whole block of states, at every abscissa of
    a request, in one call.  A valid kernel satisfies, for every j and
    every s >= 0:

    * sigma_bar(0, s) == 0,
    * 0 <= sigma_bar, 0 <= tau_bar, sigma_bar + tau_bar <= 1,
    * both nonincreasing in s for fixed j.

    These are exactly what `validate_kernel` checks.
    """

    @abstractmethod
    def transforms(self, j, s) -> tuple:
        """Return (sigma_bar(j, s), tau_bar(j, s)), broadcast over j and s."""


@dataclass(frozen=True)
class MMInfinityKernel(KernelTransform):
    """The M|M|infinity kernel for given queue parameters.

    ``transforms`` additionally accepts complex s with nonnegative real
    part, so the same evaluator can feed complex-abscissa Laplace
    inversion; the rational formulas extend verbatim.  Without arrivals
    both entries vanish at j = 0 for every s, including the corner s = 0
    where the ratios are formally 0/0.
    """

    params: QueueParams

    def transforms(self, j, s) -> tuple:
        _check_state_and_s(j, s)
        p = self.params
        denom = j + p.rho + p.alpha * s
        if p.rho == 0.0:
            # sigma = j / denom and tau = 0 / denom are exactly 0 at j = 0
            # for any nonzero denominator; 1 keeps the corner finite
            denom = denom + (j == 0)
        sigma = j / denom
        tau = p.rho / denom
        return sigma, tau

    def rates(self, j) -> tuple:
        """Jump rates (up, down) = (lam, j / alpha); transforms = (down, up) / (up + down + s)."""
        return self.params.lam, j / self.params.alpha


def validate_kernel(kernel: KernelTransform, j_max: int, s_grid) -> list:
    """Check the kernel invariants over j = 0..j_max and the given s grid.

    The kernel is called once, as the solvers call it: states
    ``np.arange(j_max + 1)[:, None]`` against the ascending-sorted grid as
    a row.  Returns one ``(j, s, message)`` tuple per violated invariant,
    by j then s; an empty list means the kernel passed.  Violations are
    data, not errors: a call that raises or does not return two arrays of
    the grid's shape is the one entry ``(None, None, message)``.
    Monotonicity in s is checked between consecutive grid points.  Each
    inequality allows a slack of 1e-12.
    """
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    s_values = sorted(s_grid)
    if not s_values:
        raise ValueError("s_grid must be nonempty")
    if s_values[0] < 0:
        raise ValueError("s_grid values must be >= 0")

    shape = (j_max + 1, len(s_values))
    try:
        sigmas, taus = kernel.transforms(np.arange(j_max + 1)[:, None], np.array(s_values))
    except Exception as exc:  # a broken kernel is reported like any violation
        return [(None, None, f"transforms on a {shape} grid raised {type(exc).__name__}: {exc}")]
    if np.shape(sigmas) != shape or np.shape(taus) != shape:
        return [(None, None, f"transforms returned {np.shape(sigmas)} and {np.shape(taus)}, not {shape}")]

    report = []
    for j, (sigma_row, tau_row) in enumerate(zip(np.asarray(sigmas).tolist(), np.asarray(taus).tolist())):
        prev = None
        for s, sigma, tau in zip(s_values, sigma_row, tau_row):
            if j == 0 and abs(sigma) > _INVARIANT_TOL:
                report.append((j, s, f"sigma_bar(0, {s}) = {sigma!r}, expected 0"))
            if sigma < -_INVARIANT_TOL:
                report.append((j, s, f"sigma_bar({j}, {s}) = {sigma!r} < 0"))
            if tau < -_INVARIANT_TOL:
                report.append((j, s, f"tau_bar({j}, {s}) = {tau!r} < 0"))
            if sigma + tau > 1 + _INVARIANT_TOL:
                report.append((j, s, f"sigma_bar + tau_bar = {sigma + tau!r} > 1"))
            if prev is not None:
                p_s, p_sigma, p_tau = prev
                if sigma > p_sigma + _INVARIANT_TOL:
                    report.append((j, s, f"sigma_bar({j}, s) increased from s={p_s} to s={s}"))
                if tau > p_tau + _INVARIANT_TOL:
                    report.append((j, s, f"tau_bar({j}, s) increased from s={p_s} to s={s}"))
            prev = (s, sigma, tau)
    return report
