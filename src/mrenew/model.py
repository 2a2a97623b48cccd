"""Queue parameters and tridiagonal semi-Markov kernel transforms.

An immigration-and-death kernel is tridiagonal: from state j the process
jumps up with transformed weight tau_bar(j, s) and down with
sigma_bar(j, s); state 0 has no down-move.  The M|M|infinity occupancy
process is the instance with a constant arrival rate and per-customer
service rate 1/alpha:

    tau_bar(j, s)   = rho / (j + rho + alpha*s)
    sigma_bar(j, s) = j   / (j + rho + alpha*s)       rho = lam * alpha

A kernel owns its law in both domains: `transforms` for the solvers and
the inverters, and `step`, one jump of the embedded chain, for the
simulator in `mcsim`.

Every route imports this module, so it also holds the argument checks
they share: `_index`, the one check of an integer argument, whose
default range 0.._LAST_STATE = 2**16 - 2 is every route's states, and
`_time_grid`, the shape of a time grid.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

_INVARIANT_TOL = 1e-12  # slack allowed in each kernel invariant
_TINY_UNIFORM = 1e-300  # floor on the time uniform of `step`; keeps sojourns strictly positive
_LAST_STATE = 2**16 - 2  # every route's last state


def _index(value, name: str, lo=0, hi=_LAST_STATE) -> int:
    """value as an int, by `operator.index` (TypeError for 1.5 and 16.0), if lo <= value <= hi.

    The one check of every integer argument of the package; the default
    range is that of a state.  Raises ValueError outside [lo, hi].
    """
    value = operator.index(value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _time_grid(t_grid) -> np.ndarray:
    """t_grid as a one-dimensional array of floats; ValueError for any other shape."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    return times


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
    if (least := np.asarray(j).real.min()) < 0:
        raise ValueError(f"state index must be >= 0, got {least}")
    if (least := np.asarray(s).real.min()) < 0:
        raise ValueError(f"transform variable needs Re(s) >= 0, got Re(s) = {least}")


class KernelTransform(ABC):
    """Transform-domain evaluator for a tridiagonal semi-Markov kernel.

    Implementations return the pair ``(sigma_bar, tau_bar)`` for integer
    states j >= 0 and transform variables s.  Both arguments may be numpy
    arrays, a number being the 0-d array it is, and the result must
    broadcast over them: the solvers in `mrenew.oracle` ask for a block of
    states as a column (rows, 1) against every abscissa of a request as a
    row (cols,), in one call.
    A valid kernel satisfies, for every j and every s >= 0:

    * sigma_bar and tau_bar are finite (the solvers refuse a NaN or an
      infinity with ValueError),
    * sigma_bar(0, s) == 0,
    * 0 <= sigma_bar, 0 <= tau_bar, sigma_bar + tau_bar <= 1,
    * both nonincreasing in s for fixed j.

    These are exactly what `validate_kernel` checks.  A kernel that also
    takes complex s must satisfy |sigma_bar(j, s)| <= sigma_bar(j, Re s)
    and |tau_bar(j, s)| <= tau_bar(j, Re s): then every row entry obeys
    |rbar_ij(s)| <= rbar_ij(Re s), which the cut of `mrenew.oracle.solve_rows`
    relies on at complex s.  `MMInfinityKernel` does, since
    |j + rho + alpha s| >= j + rho + alpha Re s.

    Simulation also calls ``step(states, u_time, u_dir)``, which is not
    abstract, so transform-only kernels stay valid.  Given integer states
    and two arrays of uniforms on [0, 1), one pair per state, it returns
    (next_states, sojourns).  A state j moves to j - 1 or j + 1 after a
    sojourn T with E[e^{-sT}; down] = sigma_bar(j, s) and
    E[e^{-sT}; up] = tau_bar(j, s); an absorbing j stays, with T = inf.
    It must not write into its arguments: the simulator keeps the states
    it passes until it matches their entries.  The simulator calls it under
    one ``np.errstate(all="ignore")`` per block of paths, so no kernel's
    ``step`` guards its own division: a rate of 0 gives a sojourn of inf.
    ``least_rate`` is a rate that no state's jumps fall below, so a path's
    jumps by time t stochastically dominate Poisson(least_rate t); the
    simulator refuses at once a horizon where that count passes its event
    cap.  0 claims nothing.
    """

    least_rate = 0.0

    @abstractmethod
    def transforms(self, j, s) -> tuple:
        """Return (sigma_bar(j, s), tau_bar(j, s)), broadcast over j and s."""


@dataclass(frozen=True)
class MMInfinityKernel(KernelTransform):
    """The M|M|infinity kernel for given queue parameters.

    ``transforms`` additionally accepts complex s with nonnegative real
    part, so the same evaluator can feed complex-abscissa Laplace
    inversion; the rational formulas extend verbatim.  An s for which
    numpy raises its overflow flag, in j + rho + alpha s or in the division
    by it, is refused with ValueError, naming s and alpha: at either end of
    the range, a denominator past the largest double or a complex one so
    small (subnormal) that numpy's complex division overflows.  The first
    such s in flat order is named.  j and s pass through ``np.asarray``
    once, so a number divides as a 0-d array, is refused as one, and gives
    numpy's scalar.  Without arrivals
    both entries vanish at j = 0 for every s, including the corner s = 0
    where the ratios are formally 0/0.
    """

    params: QueueParams

    @property
    def least_rate(self) -> float:
        """The up clock runs at lam in every state."""
        return self.params.lam

    def _divide(self, j, s) -> tuple:
        p = self.params
        with np.errstate(over="raise"):
            denom = j + p.rho + p.alpha * s
            if p.rho == 0.0:
                # sigma = j / denom and tau = 0 / denom are exactly 0 at j = 0
                # for any nonzero denominator; 1 keeps the corner finite
                denom = denom + (j == 0)
            return j / denom, p.rho / denom

    def transforms(self, j, s) -> tuple:
        j, s = np.asarray(j), np.asarray(s)     # a number divides as a 0-d array, by numpy's rule
        _check_state_and_s(j, s)
        try:
            return self._divide(j, s)
        except FloatingPointError:
            # name the first abscissa, in flat order, whose own division overflows
            for j_k, s_k in np.broadcast(j, s):
                try:
                    self._divide(np.asarray(j_k), np.asarray(s_k))
                except FloatingPointError:
                    raise ValueError(f"transform variable s={s_k} with alpha={self.params.alpha}: "
                                     f"j + rho + alpha s, or numpy's division by it, overflows") from None
            raise

    def step(self, states, u_time, u_dir) -> tuple:
        """One jump: the race of an up clock at rate lam and a down clock at rate
        j / alpha, whose transforms are (sigma_bar, tau_bar) = (down, up) /
        (up + down + s).  Without arrivals state 0 is absorbing: no clock runs,
        so it stays (0) after a sojourn draw / 0 = inf."""
        up, down = self.params.lam, states / self.params.alpha
        rate = up + down
        draw = -np.log1p(-np.maximum(u_time, _TINY_UNIFORM))
        # up (1) where the up clock wins, else down (-1); a state whose rate is 0 stays (0)
        return states + ((u_dir * rate < up) * 2 - (1 if up > 0.0 else rate > 0.0)), draw / rate


def validate_kernel(kernel: KernelTransform, j_max: int, s_grid) -> list:
    """Check the kernel invariants over j = 0..j_max and the given s grid.

    The kernel is called once, as the solvers call it: states
    ``np.arange(j_max + 1)[:, None]`` against the ascending-sorted grid as
    a row.  Returns one ``(j, s, message)`` tuple per violated invariant,
    by j then s; an empty list means the kernel passed.  Violations are
    data, not errors: a call that raises or does not return two arrays of
    the grid's shape is the one entry ``(None, None, message)``.
    A NaN or an infinity gets one message per (j, s), and no other check
    there; monotonicity in s is checked between consecutive grid points
    whose values are finite.  Each inequality allows a slack of 1e-12.
    j_max is a state, in [0, 65534].
    """
    j_max = _index(j_max, "j_max")
    s_values = sorted(s_grid)
    if not s_values:
        raise ValueError("s_grid must be nonempty")
    if not all(s >= 0 for s in s_values):    # a NaN fails too
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
            if not (math.isfinite(sigma) and math.isfinite(tau)):
                name, value = ("sigma_bar", sigma) if not math.isfinite(sigma) else ("tau_bar", tau)
                report.append((j, s, f"{name}({j}, {s}) = {value!r} is not finite"))
                continue
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
