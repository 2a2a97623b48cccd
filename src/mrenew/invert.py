"""Numerical Laplace inversion and recovery of the renewal function.

Both methods take one form (Abate & Whitt, INFORMS J. Computing 2006):
f(t) ~= scale * sum_k w_k Re F(s_k), over a rule of abscissas s_k, scale
and weights w_k set by the method and t, and for Gaver-Stehfest its order.

* Gaver-Stehfest: abscissas k ln2 / t (k = 1..order), scale ln2 / t, and
  Salzer weights from exact integer binomial sums, rounded once, so the only
  floating-point damage is the final cancellation among weighted samples
  (which caps the usable order at 18 in double precision).
* Euler summation: the Bromwich trapezoid at A / 2t + i k pi / t
  (k = 0..n+m), scale e^{A/2} / t, with the binomial average of the
  partial sums n..n+m written out as one weight per sample.  The lengths
  are fixed at n = EULER_DEFAULT_N = 15 and m = EULER_DEFAULT_M = 11
  (Abate & Whitt, ORSA J. Computing 1995), 27 abscissas per time.

The row transform rbar is a Laplace-Stieltjes transform; the renewal
function R_ij(t) has an ordinary Laplace transform rbar_ij(s) / s, which is
what `renewal_function` inverts, evaluating each distinct abscissa of its
time grid once.  The diagonal's unit jump at t = 0 is carried correctly
into values for t > 0; times below T_MIN are rejected, and so are times
whose rule reaches below the solvers' floor Re(s) >= 1e-14.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonConvergenceError
from .model import KernelTransform
from .oracle import _S_MIN, solve_rows

EULER_DEFAULT_M = 11   # binomial averaging length
EULER_DEFAULT_N = 15   # base partial-sum length
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
            stehfest_weights(operator.index(self.order))    # rejects an order it has no weights for


@lru_cache(maxsize=None)
def stehfest_weights(order: int) -> tuple:
    """Salzer weights V_1..V_order: (-1)^(k+h) sum_j j^(h+1) C(h, j) C(2j, j) C(j, k-j) / h!,
    h = order / 2, summed exactly in integers then rounded once."""
    if order % 2 != 0 or not 4 <= order <= 18:
        raise ValueError(f"order must be even and within [4, 18], got {order}")
    half = order // 2
    return tuple(
        (-1) ** (k + half)
        * sum(j ** (half + 1) * math.comb(half, j) * math.comb(2 * j, j) * math.comb(j, k - j)
              for j in range((k + 1) // 2, min(k, half) + 1))
        / math.factorial(half)
        for k in range(1, order + 1)
    )


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


def _rule(method: str, t: float, order: int = InversionConfig.order):
    """(abscissas, scale, weights) with f(t) ~= scale * sum_k w_k Re F(s_k)."""
    if not 0 < t < math.inf:
        raise ValueError(f"time must be finite and > 0, got {t}")
    if method == "gaver-stehfest":
        scale = math.log(2.0) / t
        abscissas = [k * scale for k in range(1, order + 1)]
        weights = stehfest_weights(operator.index(order))
    else:
        weights = _euler_weights()
        scale = math.exp(_EULER_A / 2.0) / t
        base = _EULER_A / (2.0 * t)
        abscissas = [complex(base, k * math.pi / t) for k in range(len(weights))]
    if not np.isfinite([scale, abscissas[-1]]).all():    # the largest numbers of the rule
        raise ValueError(f"time {t} is too small: its inversion rule passes the largest double")
    return abscissas, scale, weights


def _combine(scale: float, weights, samples) -> float:
    """scale * sum_k w_k Re F(s_k); NonConvergenceError where that is not a finite number."""
    terms = [w * complex(f).real for w, f in zip(weights, samples)]
    try:
        value = scale * math.fsum(terms)
    except (ValueError, OverflowError):     # fsum's -inf + inf, or its partial sums past the largest double
        value = math.nan
    if not math.isfinite(value):
        raise NonConvergenceError(f"the inversion's weighted sum of samples is {value}, not a finite number")
    return value


def gaver_stehfest(transform, t: float, order: int = InversionConfig.order) -> float:
    """Invert an ordinary Laplace transform at time t > 0.

    `transform` is called at the real abscissas k ln2 / t, k = 1..order.
    Deterministic: same inputs, same float result.  Raises
    NonConvergenceError where the result is not a finite number: a sample
    is NaN or infinite, or the weighted sum passes the largest double.
    """
    abscissas, scale, weights = _rule("gaver-stehfest", t, order)
    return _combine(scale, weights, map(transform, abscissas))


def euler_inversion(transform, t: float) -> float:
    """Euler-summation inversion at time t > 0.

    `transform` must accept complex s with positive real part; only the
    real part of its value is used.  The binomial-averaging and base
    partial-sum lengths are EULER_DEFAULT_M and EULER_DEFAULT_N.  Raises
    NonConvergenceError where the result is not a finite number, as
    `gaver_stehfest` does.
    """
    abscissas, scale, weights = _rule("euler", t)
    return _combine(scale, weights, map(transform, abscissas))


def renewal_function(
    i: int,
    j: int,
    t_grid,
    kernel: KernelTransform,
    cfg: InversionConfig = InversionConfig(),
) -> np.ndarray:
    """Recover R_ij(t) of `kernel` on a time grid by inverting s -> rbar_ij(s) / s,
    with rbar from one `solve_rows` call over each distinct abscissa of the grid."""
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    if times.size and not (np.isfinite(times).all() and times.min() >= T_MIN):
        raise ValueError(f"all times must be finite and >= T_MIN = {T_MIN}")

    rules = [_rule(cfg.method, t, cfg.order) for t in times.tolist()]
    for t, (abscissas, _, _) in zip(times.tolist(), rules):
        low = abscissas[0].real     # the smallest Re(s) of either rule comes first
        if low < _S_MIN:
            raise ValueError(f"time {t} is too large: its inversion rule reaches Re(s) = {low:.3g} < {_S_MIN:g}")
    # a time grid can repeat an abscissa (k ln2 / t at t and 2t)
    points = list(dict.fromkeys(s for abscissas, _, _ in rules for s in abscissas))
    values = solve_rows(i, j, points, kernel).values
    transform = {s: value / s for s, value in zip(points, values)}
    return np.array(
        [_combine(scale, weights, [transform[s] for s in abscissas])
         for abscissas, scale, weights in rules],
        dtype=float,
    )
