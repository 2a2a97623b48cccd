"""Numerical Laplace inversion and recovery of the renewal function.

Two methods:

* Gaver-Stehfest: real abscissas only, alternating Salzer weights.  The
  weights are computed in exact rational arithmetic, so the only
  floating-point damage is the final cancellation among weighted samples
  (which is what caps the usable order at 18 in double precision).
* Euler summation: trapezoid discretization of the Bromwich integral at
  complex abscissas (real part > 0), accelerated by binomial averaging of
  consecutive partial sums.

The row transform rbar is a Laplace-Stieltjes transform; the renewal
function R_ij(t) has an ordinary Laplace transform rbar_ij(s) / s, which is
what `renewal_function` inverts.  The diagonal's unit jump at t = 0 is
carried correctly into values for t > 0; inversion at t = 0 itself is
excluded (t_min contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .closedform import rbar_closed_form
from .model import MMInfinityKernel, QueueParams
from .oracle import TruncationConfig, solve_rows

EULER_DEFAULT_M = 11   # binomial averaging length
EULER_DEFAULT_N = 38   # base partial-sum length
_EULER_A = 18.4        # discretization parameter; error ~ exp(-A)


@dataclass(frozen=True)
class InversionConfig:
    """Inversion method and its term counts.

    order applies to Gaver-Stehfest and must be even in [4, 18]; beyond 18
    the weights overwhelm double precision.  The Euler method always uses
    EULER_DEFAULT_M and EULER_DEFAULT_N.  Times below t_min are rejected.
    """

    method: str = "gaver-stehfest"
    order: int = 14
    t_min: float = 1e-9

    def __post_init__(self):
        if self.method not in ("gaver-stehfest", "euler"):
            raise ValueError(f"unknown inversion method {self.method!r}")
        if self.order % 2 != 0 or not 4 <= self.order <= 18:
            raise ValueError(f"order must be even and within [4, 18], got {self.order}")
        if self.t_min <= 0:
            raise ValueError(f"t_min must be > 0, got {self.t_min}")


@lru_cache(maxsize=None)
def stehfest_weights(order: int) -> tuple:
    """Salzer weights V_1..V_order, computed exactly then rounded once."""
    if order % 2 != 0 or not 4 <= order <= 18:
        raise ValueError(f"order must be even and within [4, 18], got {order}")
    half = order // 2
    weights = []
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            num = j**half * math.factorial(2 * j)
            den = (
                math.factorial(half - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k)
            )
            acc += Fraction(num, den)
        sign = 1 if (k + half) % 2 == 0 else -1
        weights.append(sign * float(acc))
    return tuple(weights)


def _stehfest_abscissas(t: float, order: int) -> list:
    ln2_t = math.log(2.0) / t
    return [k * ln2_t for k in range(1, order + 1)]


def gaver_stehfest(transform, t: float, order: int = 14) -> float:
    """Invert an ordinary Laplace transform at time t > 0.

    `transform` is called at the real abscissas k ln2 / t, k = 1..order.
    Deterministic: same inputs, same float result.
    """
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    weights = stehfest_weights(order)
    ln2_t = math.log(2.0) / t
    return ln2_t * math.fsum(
        w * transform(s) for w, s in zip(weights, _stehfest_abscissas(t, order))
    )


def _euler_abscissas(t: float, m: int, n: int) -> list:
    base = _EULER_A / (2.0 * t)
    return [complex(base, 0.0)] + [complex(base, k * math.pi / t) for k in range(1, n + m + 1)]


def euler_inversion(
    transform, t: float, m: int = EULER_DEFAULT_M, n: int = EULER_DEFAULT_N
) -> float:
    """Euler-summation inversion at time t > 0.

    `transform` must accept complex s with positive real part; only the
    real part of its value is used.  m and n are the binomial-averaging
    and base partial-sum lengths.
    """
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    terms = np.empty(n + m + 1)
    for k, s_k in enumerate(_euler_abscissas(t, m, n)):
        val = complex(transform(s_k)).real
        terms[k] = val if k % 2 == 0 else -val
    terms[0] *= 0.5
    partial = np.cumsum(terms) * (math.exp(_EULER_A / 2.0) / t)
    weights = np.array([math.comb(m, q) for q in range(m + 1)], dtype=float)
    return float(weights @ partial[n : n + m + 1] / 2.0**m)


def renewal_function(
    i: int,
    j: int,
    t_grid,
    p: QueueParams,
    solver: str = "oracle",
    cfg: InversionConfig = InversionConfig(),
    truncation: TruncationConfig = TruncationConfig(),
    tol: float = 1e-13,
) -> np.ndarray:
    """Recover R_ij(t) on a time grid by inverting s -> rbar_ij(s) / s.

    solver "oracle" evaluates rbar through the adaptive truncated solve,
    at every abscissa of the whole grid in one `solve_rows` call;
    "closedform" uses the analytic row formula (real abscissas only, so it
    pairs with Gaver-Stehfest).  The Euler method needs complex abscissas
    and therefore requires the oracle solver.
    """
    if solver not in ("oracle", "closedform"):
        raise ValueError(f"unknown solver {solver!r}")
    if cfg.method == "euler" and solver != "oracle":
        raise ValueError("euler inversion requires solver='oracle' (complex abscissas)")
    if j < 0:
        raise ValueError(f"target state must be >= 0, got {j}")
    times = np.asarray(t_grid, dtype=float)
    if times.size and not (np.isfinite(times).all() and times.min() >= cfg.t_min):
        raise ValueError(f"all times must be finite and >= t_min = {cfg.t_min}")

    gs = cfg.method == "gaver-stehfest"
    if solver == "oracle":
        # every abscissa of the whole grid in one batched solve; a time
        # grid can repeat an abscissa, which is solved once
        points = list(dict.fromkeys(
            s
            for t in times.tolist()
            for s in (_stehfest_abscissas(t, cfg.order) if gs
                      else _euler_abscissas(t, EULER_DEFAULT_M, EULER_DEFAULT_N))
        ))
        entries = solve_rows(i, j, points, MMInfinityKernel(p), truncation)
        transform = {s: value / s for s, value in zip(points, entries.values)}.__getitem__
    else:

        def transform(s):
            return rbar_closed_form(i, j, s, p, tol) / s

    out = np.empty(times.size)
    for idx, t in enumerate(times.tolist()):
        if gs:
            out[idx] = gaver_stehfest(transform, t, cfg.order)
        else:
            out[idx] = euler_inversion(transform, t, EULER_DEFAULT_M, EULER_DEFAULT_N)
    return out
