"""Kummer's confluent hypergeometric function by direct series summation.

    phi(a, b; z) = sum_{k>=0} (a)_k / (b)_k * z^k / k!

with (x)_k the rising factorial.  Terms are generated by the exact
recurrence term_{k+1} = term_k * (a+k)/(b+k) * z/(k+1), which introduces no
cancellation of its own.  For z < 0 the raw series alternates and loses all
precision once |z| is moderately large, so evaluation is rerouted through
Kummer's transformation

    phi(a, b; z) = exp(z) * phi(b - a, b; -z),

whose right-hand side is summed at positive argument.  Asymptotic regimes
(|z| -> infinity) are out of scope; the parameter ranges this package
produces converge quickly after the transformation.
"""

from __future__ import annotations

import math

from .errors import NonConvergenceError

MAX_TERMS = 10_000

# b within this distance of zero or a negative integer is rejected: the
# series denominators (b)_k pass through (numerical) zero.
_FORBIDDEN_B_TOL = 1e-12

_CONSECUTIVE_SMALL = 3


def _check_args(a: float, b: float, z: float, tol: float):
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError(f"arguments must be finite, got a={a}, b={b}, z={z}")
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol}")
    nearest = round(b)
    if nearest <= 0 and abs(b - nearest) <= _FORBIDDEN_B_TOL:
        raise ValueError(
            f"second parameter b = {b} is zero or a negative integer (within "
            f"{_FORBIDDEN_B_TOL}); the series is undefined there"
        )


def kummer_series_direct(a: float, b: float, z: float, tol: float = 1e-14) -> float:
    """Sum the Taylor series as-is, without the negative-z transformation.

    Stops once the running term stays below tol * |partial sum| for three
    consecutive terms.  Used to check the transformation identity against an
    independently summed series; prefer `kummer_m`.
    """
    _check_args(a, b, z, tol)
    term = 1.0
    total = 1.0
    small_streak = 0
    for k in range(MAX_TERMS):
        term = term * ((a + k) / (b + k)) * (z / (k + 1))
        total += term
        if abs(term) <= tol * abs(total):
            small_streak += 1
            if small_streak >= _CONSECUTIVE_SMALL:
                return total
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"Kummer series did not converge within {MAX_TERMS} terms "
        f"(a={a}, b={b}, z={z})",
        residual=abs(term),
    )


def kummer_m(a: float, b: float, z: float, tol: float = 1e-14) -> float:
    """Evaluate phi(a, b; z) for real arguments.

    phi(a, b; 0) = 1 exactly.  Negative arguments go through Kummer's
    transformation to avoid catastrophic cancellation.  Raises ValueError
    for non-finite arguments and forbidden b (zero or a negative integer),
    and NonConvergenceError past 10,000 terms.
    """
    _check_args(a, b, z, tol)
    if z == 0:
        return 1.0
    if z < 0:
        return math.exp(z) * kummer_series_direct(b - a, b, -z, tol)
    return kummer_series_direct(a, b, z, tol)
