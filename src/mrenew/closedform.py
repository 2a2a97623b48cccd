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
runs at +rho, so nothing cancels.  The factors e^{-rho} phi (e^{-rho}
underflows from rho ~ 745) and the weights (rho^(n-j) overflows once
(n-j) ln rho > 709, B(a+j, q) underflows for large a and q) are carried
as mantissas and power-of-two exponents by `hyperg.weighted_kummer_sum`,
which rounds only the final sum to one float.  See README "Formula notes".
"""

from __future__ import annotations

import math

import numpy as np

from .hyperg import weighted_kummer_sum
from .model import QueueParams

_TOL = 1e-13  # relative truncation of each Kummer series


def _check_s(s):
    if np.iscomplexobj(s) or not 0 < s < math.inf:
        raise ValueError(f"transform variable must be real, finite and > 0, got {s}")


def tbar_from_rbar(j: int, s: float, rbar: float, p: QueueParams) -> float:
    """Scale a transform-row entry: alpha * rbar / (j + rho + alpha*s)."""
    return p.alpha * rbar / (j + p.rho + p.alpha * s)


def generating_function(i: int, x: float, s: float, p: QueueParams) -> float:
    """Evaluate y_i(x), the generating function of the scaled row.

    Defined for x in (-1, 1] and s > 0; equals 1/s at x = 1.  Sums the
    finite j-sum of the module docstring, whose terms are positive for
    x >= 0; each Kummer series stops at a relative 1e-13.
    """
    _check_s(s)
    if not -1.0 < x <= 1.0:
        raise ValueError(f"argument must lie in (-1, 1], got {x}")
    if i < 0:
        raise ValueError(f"start state must be >= 0, got {i}")
    a_s = p.alpha * s
    j = np.arange(i + 1, dtype=float)
    t = np.arange(1, i + 1, dtype=float)
    # w_0 = B(a, i+1) = i! / (a)_{i+1};  w_{j+1} / w_j = x (a+j) / (j+1)
    factors = np.concatenate([[1.0 / a_s], t / (a_s + t)])
    steps = np.stack([np.full(i, x), (a_s + j[:-1]) / (j[:-1] + 1.0)], axis=1)
    total = weighted_kummer_sum(factors, steps, a_s + j, np.full(i + 1, a_s + i + 1), p.rho * (1.0 - x), _TOL)
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


def rbar_closed_form(i: int, n: int, s: float, p: QueueParams) -> float:
    """Closed-form rbar[i][n](s) for the M|M|infinity kernel.

    Evaluates the positive j-sum in the module docstring; each Kummer
    series stops at a relative 1e-13.  At rho = 0 only the term j = n is
    left (rho^0 = 1), and the entry is 0 when n > i.  s must be real:
    complex s raises ValueError, as it does in `generating_function`.
    """
    _check_s(s)
    if i < 0 or n < 0:
        raise ValueError(f"states must be >= 0, got i={i}, n={n}")
    a_s = p.alpha * s
    rho = p.rho
    hi = min(i, n)
    lo = 0 if rho > 0 else n
    if lo > hi:
        return 0.0
    # The weights are built from j = hi down, so rho enters as a factor of
    # its own per step and its powers are carried in the exponent.
    # w_hi = C(i, hi) * rho^(n-hi) / (n-hi)! * (q-1)! / (a+hi)_q,  q = |i - n| + 1
    u = np.arange(1, hi + 1, dtype=float)
    m = np.arange(1, n - hi + 1, dtype=float)
    t = np.arange(1, abs(i - n) + 1, dtype=float)
    factors = np.concatenate([(i - hi + u) / u, rho / m, [1.0 / (a_s + hi)], t / (a_s + hi + t)])
    # w_{j-1} / w_j, with the Beta function's second argument q_j = i + n - 2j + 1
    j = np.arange(hi, lo, -1, dtype=float)
    steps = np.stack([
        np.full(j.size, rho),
        j / (i - j + 1.0),
        (i + n - 2.0 * j + 2.0) / (n - j + 1.0),
        (i + n - 2.0 * j + 1.0) / (a_s + i + n - j + 1.0),
        1.0 / (a_s + (j - 1.0)),
    ], axis=1)
    j = np.arange(hi, lo - 1, -1, dtype=float)
    total = weighted_kummer_sum(factors, steps, a_s + j, a_s + i + n + 1.0 - j, rho, _TOL)
    return (n + rho + a_s) * total
