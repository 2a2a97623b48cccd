"""Analytic transform row for the M|M|infinity kernel.

Scaling the row by t[j] = alpha * rbar[j] / (j + rho + alpha*s) turns the
tridiagonal system into a constant-pattern difference system whose
generating function y_i(x) = sum_j t[j] x^j solves

    (1 - x) y' - [rho (1 - x) + alpha s] y + alpha x^i = 0,   y_i(1) = 1/s.

Integrating with the factor e^{-rho x} (1 - x)^{alpha s - 1} gives

    y_i(x) = alpha e^{-rho (1-x)} sum_{k=0}^{i} (-1)^k C(i,k)
             (1-x)^k / (alpha s + k)
             * phi(alpha s + k, alpha s + k + 1; rho (1-x))

and extracting the n-th Taylor coefficient at x = 0 (Leibniz over the
product w^k * phi(1, alpha s + k + 1; w), w = -rho(1-x)) yields the row
entry directly:

    rbar[i][n](s) = (n + rho + alpha s)
        * sum_{k=0}^{i} (-1)^k C(i,k) / (alpha s + k)
        * sum_{j=0}^{min(n,k)} (-1)^j C(k,j)
              rho^{n-j} / rising(alpha s + k + 1, n - j)
              * phi(n - j + 1, alpha s + k + n - j + 1; -rho)

with rising(x, m) = x (x+1) ... (x+m-1).  See README "Formula notes" for
why this exact form (second Kummer parameter one above the first; inner
bound min(n, k); rising factorial in the denominator) is the one
implemented: every output is cross-validated against the truncated-system
solver by the test suite, and alternative readings fail that check.
"""

from __future__ import annotations

import math

from .hyperg import kummer_m
from .model import QueueParams


def tbar_from_rbar(j: int, s: float, rbar: float, p: QueueParams) -> float:
    """Scale a transform-row entry: alpha * rbar / (j + rho + alpha*s)."""
    return p.alpha * rbar / (j + p.rho + p.alpha * s)


def rbar_from_tbar(j: int, s: float, tbar: float, p: QueueParams) -> float:
    """Inverse of `tbar_from_rbar`: tbar * (j + rho + alpha*s) / alpha."""
    return tbar * (j + p.rho + p.alpha * s) / p.alpha


def generating_function(i: int, x: float, s: float, p: QueueParams, tol: float = 1e-13) -> float:
    """Evaluate y_i(x), the generating function of the scaled row.

    Defined for x in (-1, 1] and s > 0; equals 1/s at x = 1.  `tol` is
    passed through to the Kummer series.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"transform variable must be finite and > 0, got {s}")
    if not -1.0 < x <= 1.0:
        raise ValueError(f"argument must lie in (-1, 1], got {x}")
    if i < 0:
        raise ValueError(f"start state must be >= 0, got {i}")
    a_s = p.alpha * s
    one_minus = 1.0 - x
    z = p.rho * one_minus
    total = 0.0
    binom = 1.0
    sign = 1.0
    for k in range(i + 1):
        if k:
            binom *= (i - k + 1) / k
            sign = -sign
        total += sign * binom * one_minus**k / (a_s + k) * kummer_m(a_s + k, a_s + k + 1, z, tol)
    return p.alpha * math.exp(-z) * total


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


def _rising(x: float, m: int) -> float:
    out = 1.0
    for q in range(m):
        out *= x + q
    return out


def rbar_closed_form(i: int, n: int, s: float, p: QueueParams, tol: float = 1e-13) -> float:
    """Closed-form rbar[i][n](s) for the M|M|infinity kernel.

    Evaluates the double finite sum in the module docstring.  Binomial
    coefficients use the multiplicative recurrence; Kummer evaluations at
    -rho are routed through the transformation inside `kummer_m`.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"transform variable must be finite and > 0, got {s}")
    if i < 0 or n < 0:
        raise ValueError(f"states must be >= 0, got i={i}, n={n}")
    a_s = p.alpha * s
    rho = p.rho
    outer = 0.0
    bin_ik = 1.0
    sign_k = 1.0
    for k in range(i + 1):
        if k:
            bin_ik *= (i - k + 1) / k
            sign_k = -sign_k
        inner = 0.0
        bin_kj = 1.0
        sign_j = 1.0
        for j in range(min(n, k) + 1):
            if j:
                bin_kj *= (k - j + 1) / j
                sign_j = -sign_j
            m = n - j
            inner += (
                sign_j
                * bin_kj
                * rho**m
                / _rising(a_s + k + 1, m)
                * kummer_m(m + 1, a_s + k + m + 1, -rho, tol)
            )
        outer += sign_k * bin_ik * inner / (a_s + k)
    return (n + rho + a_s) * outer
