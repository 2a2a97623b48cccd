"""Analytic transform row for the M|M|infinity kernel.

Scaling the row by t[j] = alpha * rbar[j] / (j + rho + alpha*s) turns the
tridiagonal system into a constant-pattern difference system whose
generating function y_i(x) = sum_j t[j] x^j solves

    (1 - x) y' - [rho (1 - x) + alpha s] y + alpha x^i = 0,   y_i(1) = 1/s.

With a = alpha s, its solution is the integral

    y_i(x) = alpha * int_0^1 u^(a-1) (1 - (1-x) u)^i e^{-rho (1-x)(1-u)} du.

Expanding (1 - (1-x) u)^i = ((1-u) + x u)^i binomially and using
int_0^1 u^(c-1) (1-u)^(q-1) e^{z u} du = B(c, q) phi(c, c+q; z)
(DLMF 13.4.1) gives the generating function as a finite sum,

    y_i(x) = alpha sum_{j=0}^{i} C(i,j) x^j B(a+j, i-j+1)
             e^{-z} phi(a+j, a+i+1; z),          z = rho (1-x),

and taking the coefficient of x^n (expand e^{rho x (1-u)} as well) gives
the row entry

    rbar[i][n](s) = (n + rho + a) * sum_{j=0}^{min(i,n)} C(i,j)
        rho^(n-j) / (n-j)! * B(a+j, q) * e^{-rho} phi(a+j, a+j+q; rho),

with q = i + n - 2j + 1.  Every factor is positive and every Kummer series
runs at +rho, so nothing cancels.  Each q is an integer, so each
e^{-rho} phi(a+j, a+j+q; rho) is an expectation over the Poisson(rho)
weights, which `hyperg.weighted_kummer_sum` sums for every j and every
abscissa of a call over one window of k around the terms' peak.  Those
factors (e^{-rho} underflows from rho ~ 745) and the weights (rho^(n-j)
overflows once (n-j) ln rho > 709, B(a+j, q) underflows for large a and
q) are carried as mantissas and power-of-two exponents, and only the
final sum is rounded to one float.  See README "Formula notes".
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NonConvergenceError
from .hyperg import weighted_kummer_sum
from .model import QueueParams

def _check_s(s, alpha):
    with np.errstate(divide="ignore", over="ignore"):    # the weight factor 1 / (alpha s) must be finite too
        if np.iscomplexobj(s) or not (
                np.greater(s, 0) & (np.maximum(s, 1 / (alpha * np.asarray(s))) < math.inf)).all():
            raise ValueError(f"transform variable must be real and > 0 with s and 1/(alpha s) finite, got {s}")


def generating_function(i: int, x: float, s: float, p: QueueParams) -> float:
    """Evaluate y_i(x), the generating function of the scaled row.

    Defined for x in (-1, 1] and s > 0; equals 1/s at x = 1.  Sums the
    finite j-sum of the module docstring, whose terms are positive for
    x >= 0; its Kummer series (q = i + 1 - j) share one Poisson window at
    rho (1 - x), as in `rbar_closed_form`.
    """
    _check_s(s, p.alpha)
    if not -1.0 < x <= 1.0:
        raise ValueError(f"argument must lie in (-1, 1], got {x}")
    i = operator.index(i)
    if i < 0:
        raise ValueError(f"start state must be >= 0, got {i}")
    a_s = p.alpha * s
    j = np.arange(i + 1, dtype=float)
    t = np.arange(1, i + 1, dtype=float)
    # w_0 = B(a, i+1) = i! / (a)_{i+1};  w_{j+1} / w_j = x (a+j) / (j+1)
    row = np.empty(3 * i + 1)
    row[0] = 1.0 / a_s
    row[1:i + 1] = t / (a_s + t)
    row[i + 1::2] = x
    row[i + 2::2] = (a_s + j[:-1]) / (j[:-1] + 1.0)
    total = weighted_kummer_sum(row, 2, a_s + j, i + 1.0 - j, p.rho * (1.0 - x))
    return p.alpha * total


def ode_residual(i: int, x: float, s: float, p: QueueParams, h: float = 1e-4, y_fn=None) -> float:
    """Residual of (1-x) y' - [rho(1-x) + alpha*s] y + alpha x^i at x.

    y' is a central difference of `y_fn` (the generating function by
    default) at step h, so the residual is O(h^2) at the true solution.
    Requires x in (-1 + h, 1 - h) so both stencil points stay in domain.
    """
    if not -1.0 + h < x < 1.0 - h:
        raise ValueError(f"x must lie in (-1 + h, 1 - h), got x={x}, h={h}")
    if y_fn is None:
        def y_fn(u):
            return generating_function(i, u, s, p)
    dy = (y_fn(x + h) - y_fn(x - h)) / (2.0 * h)
    y = y_fn(x)
    return (1.0 - x) * dy - (p.rho * (1.0 - x) + p.alpha * s) * y + p.alpha * x**i


def rbar_closed_form(i: int, n: int, s, p: QueueParams):
    """Closed-form rbar[i][n](s) for the M|M|infinity kernel, shaped like s.

    Evaluates the positive j-sum in the module docstring at a float s or
    at every abscissa of an array in one Kummer call, whose series share
    one Poisson window; each is short of its value by at most 2^-53 of it.
    At rho = 0 only the term j = n is left (rho^0 = 1), and the entry is 0
    when n > i.  s must be real: complex s raises ValueError, as it does
    in `generating_function`.  An entry past the largest double raises
    NonConvergenceError, naming i, n and its s, and so does rho from about
    1.45e6, where the window sum stops.
    """
    _check_s(s, p.alpha)
    i, n = operator.index(i), operator.index(n)
    if i < 0 or n < 0:
        raise ValueError(f"states must be >= 0, got i={i}, n={n}")
    a_s = p.alpha * np.asarray(s, dtype=float)[..., None]    # one row per abscissa
    rho = p.rho
    hi = min(i, n)
    lo = 0 if rho > 0 else n
    if lo > hi:
        return np.zeros(np.shape(s))[()]
    # The weights are built from j = hi down, so rho enters as a factor of
    # its own per step and its powers are carried in the exponent: one row
    # per abscissa holds the F factors of w_hi, then five ratios w_{j-1} / w_j
    # per j, which `weighted_kummer_sum` takes a running product of.
    # w_hi = C(i, hi) * rho^(n-hi) / (n-hi)! * (q-1)! / (a+hi)_q,  q = |i - n| + 1
    f = n + 1 + abs(i - n)
    row = np.empty(a_s.shape[:-1] + (f + 5 * (hi - lo),))
    u = np.arange(1, hi + 1, dtype=float)
    m = np.arange(1, n - hi + 1, dtype=float)
    t = np.arange(1, abs(i - n) + 1, dtype=float)
    # C(i, hi) rho^(n-hi) / (n-hi)!, the same at every abscissa, then (q-1)! / (a+hi)_q
    row[..., :hi] = (i - hi + u) / u
    row[..., hi:n] = rho / m
    a_hi = a_s + hi
    row[..., n] = 1.0 / a_hi[..., 0]
    row[..., n + 1:f] = t / (a_hi + t)
    # w_{j-1} / w_j, with the Beta function's second argument q_j = i + n - 2j + 1
    j = np.arange(hi, lo - 1, -1, dtype=float)
    a, q = a_s + j, i + n + 1.0 - 2.0 * j
    j, q_j = j[:-1], q[:-1]
    row[..., f::5] = rho
    row[..., f + 1::5] = j / (i - j + 1.0)
    row[..., f + 2::5] = (q_j + 1.0) / (n - j + 1.0)
    row[..., f + 3::5] = q_j / (a_s + i + n - j + 1.0)
    row[..., f + 4::5] = 1.0 / a[..., 1:]
    with np.errstate(over="ignore"):    # every term is positive, so only overflow makes an entry not finite
        total = weighted_kummer_sum(row, 5, a, q, rho)
        value = (n + rho + a_s[..., 0]) * total
    if not np.isfinite(value).all():
        at = np.asarray(s)[~np.isfinite(value)].flat[0]
        raise NonConvergenceError(f"rbar_closed_form(i={i}, n={n}, s={at}) = inf: past the largest double")
    return value
