"""Numerical Laplace inversion and recovery of the renewal function.

Both methods take one form (Abate & Whitt, INFORMS J. Computing 2006):
f(t) ~= scale * sum_k w_k Re F(s_k), over a rule of abscissas s_k, scale
and weights w_k set by the method and t, and for Gaver-Stehfest its order.

* Gaver-Stehfest: abscissas k ln2 / t (k = 1..order), scale ln2 / t, and
  Salzer weights computed in exact rational arithmetic, so the only
  floating-point damage is the final cancellation among weighted samples
  (which caps the usable order at 18 in double precision).
* Euler summation: the Bromwich trapezoid at A / 2t + i k pi / t
  (k = 0..n+m), scale e^{A/2} / t, with the binomial average of the
  partial sums n..n+m written out as one weight per sample.  The lengths
  are fixed at n = EULER_DEFAULT_N = 38 and m = EULER_DEFAULT_M = 11,
  50 abscissas per time.

The row transform rbar is a Laplace-Stieltjes transform; the renewal
function R_ij(t) has an ordinary Laplace transform rbar_ij(s) / s, which is
what `renewal_function` inverts, evaluating each distinct abscissa of its
time grid once.  The diagonal's unit jump at t = 0 is carried correctly
into values for t > 0; times below T_MIN are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .closedform import rbar_closed_form
from .model import MMInfinityKernel, QueueParams
from .oracle import solve_rows

EULER_DEFAULT_M = 11   # binomial averaging length
EULER_DEFAULT_N = 38   # base partial-sum length
_EULER_A = 18.4        # discretization parameter; error ~ exp(-A)
T_MIN = 1e-9           # smallest time renewal_function inverts at


@dataclass(frozen=True)
class InversionConfig:
    """Inversion method and its term counts.

    order applies to Gaver-Stehfest and must be even in [4, 18]; beyond 18
    the weights overwhelm double precision.  The Euler method ignores it
    and always uses EULER_DEFAULT_M and EULER_DEFAULT_N.
    """

    method: str = "gaver-stehfest"
    order: int = 14

    def __post_init__(self):
        if self.method not in ("gaver-stehfest", "euler"):
            raise ValueError(f"unknown inversion method {self.method!r}")
        if self.method == "gaver-stehfest":
            stehfest_weights(self.order)    # rejects an order it has no weights for


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


@lru_cache(maxsize=None)
def _euler_weights() -> tuple:
    """w_0..w_{n+m}: alternating, 1/2 at k = 0, times the share of the average
    2^-m sum_q C(m, q) S_{n+q} of partial sums that holds term k (q >= k - n),
    with m = EULER_DEFAULT_M and n = EULER_DEFAULT_N."""
    m, n = EULER_DEFAULT_M, EULER_DEFAULT_N
    weights = []
    for k in range(n + m + 1):
        share = sum(math.comb(m, q) for q in range(max(0, k - n), m + 1)) / 2.0**m
        weights.append((-1) ** k * (0.5 * share if k == 0 else share))
    return tuple(weights)


def _rule(method: str, t: float, order: int = 14):
    """(abscissas, scale, weights) with f(t) ~= scale * sum_k w_k Re F(s_k)."""
    if t <= 0:
        raise ValueError(f"time must be > 0, got {t}")
    if method == "gaver-stehfest":
        ln2_t = math.log(2.0) / t
        return [k * ln2_t for k in range(1, order + 1)], ln2_t, stehfest_weights(order)
    base = _EULER_A / (2.0 * t)
    weights = _euler_weights()
    abscissas = [complex(base, k * math.pi / t) for k in range(len(weights))]
    return abscissas, math.exp(_EULER_A / 2.0) / t, weights


def _combine(scale: float, weights, samples) -> float:
    return scale * math.fsum(w * complex(f).real for w, f in zip(weights, samples))


def gaver_stehfest(transform, t: float, order: int = 14) -> float:
    """Invert an ordinary Laplace transform at time t > 0.

    `transform` is called at the real abscissas k ln2 / t, k = 1..order.
    Deterministic: same inputs, same float result.
    """
    abscissas, scale, weights = _rule("gaver-stehfest", t, order)
    return _combine(scale, weights, map(transform, abscissas))


def euler_inversion(transform, t: float) -> float:
    """Euler-summation inversion at time t > 0.

    `transform` must accept complex s with positive real part; only the
    real part of its value is used.  The binomial-averaging and base
    partial-sum lengths are EULER_DEFAULT_M and EULER_DEFAULT_N.
    """
    abscissas, scale, weights = _rule("euler", t)
    return _combine(scale, weights, map(transform, abscissas))


def renewal_function(
    i: int,
    j: int,
    t_grid,
    p: QueueParams,
    solver: str = "oracle",
    cfg: InversionConfig = InversionConfig(),
) -> np.ndarray:
    """Recover R_ij(t) on a time grid by inverting s -> rbar_ij(s) / s.

    Each distinct abscissa of the whole grid is evaluated once.  solver
    "oracle" evaluates rbar through the adaptive truncated solve, at all of
    them in one `solve_rows` call; "closedform" uses the analytic row
    formula (real abscissas only, so it pairs with Gaver-Stehfest).  The
    Euler method needs complex abscissas and therefore requires the oracle
    solver.
    """
    if solver not in ("oracle", "closedform"):
        raise ValueError(f"unknown solver {solver!r}")
    if cfg.method == "euler" and solver != "oracle":
        raise ValueError("euler inversion requires solver='oracle' (complex abscissas)")
    if j < 0:
        raise ValueError(f"target state must be >= 0, got {j}")
    times = np.asarray(t_grid, dtype=float)
    if times.size and not (np.isfinite(times).all() and times.min() >= T_MIN):
        raise ValueError(f"all times must be finite and >= T_MIN = {T_MIN}")

    rules = [_rule(cfg.method, t, cfg.order) for t in times.tolist()]
    # a time grid can repeat an abscissa (k ln2 / t at t and 2t)
    points = list(dict.fromkeys(s for abscissas, _, _ in rules for s in abscissas))
    if solver == "oracle":
        values = solve_rows(i, j, points, MMInfinityKernel(p)).values
    else:
        values = [rbar_closed_form(i, j, s, p) for s in points]
    transform = {s: value / s for s, value in zip(points, values)}
    return np.array(
        [_combine(scale, weights, [transform[s] for s in abscissas])
         for abscissas, scale, weights in rules],
        dtype=float,
    )
