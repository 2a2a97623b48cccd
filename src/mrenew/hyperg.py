"""Kummer's confluent hypergeometric function by direct series summation.

    phi(a, b; z) = sum_{k>=0} (a)_k / (b)_k * z^k / k!

with (x)_k the rising factorial.  Terms are generated by the exact
recurrence term_{k+1} = term_k * (a+k)/(b+k) * z/(k+1), which introduces no
cancellation of its own.  For z < 0 the raw series alternates and loses all
precision once |z| is moderately large, so evaluation is rerouted through
Kummer's transformation

    phi(a, b; z) = exp(z) * phi(b - a, b; -z),

whose right-hand side is summed at positive argument, by the scaled series
below where its terms are positive.

The scaled series e^{-x} phi(a, b; x), x >= 0, keeps every term as a float
mantissa and an integer power-of-two exponent (frexp), so neither the terms
(up to about e^x) nor the factor e^{-x} (below the smallest double from
x ~ 745) leave the floating-point range; for 0 < a <= b all its terms are
positive and the result lies in (0, 1].  This is the scaled-summation
approach of Pearson, Olver & Porter, "Numerical methods for the computation
of the confluent and Gauss hypergeometric functions" (Numer. Algor. 2017).
It needs about x + 10 sqrt(x) terms, so |z| is limited to about 9,000 by
the term cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError

MAX_TERMS = 10_000
_TOL = 1e-14  # relative truncation of kummer_m and kummer_series_direct

# ln 2 split so that k * _LN2_HI is exact for k < 2**20 (Cody & Waite):
# e^{-x} = 2^{-k} e^{-(x - k ln 2)} then never underflows.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

# frexp mantissas lie in [0.5, 1): a running product over this many of
# them stays above 2**-513 before it is renormalized.
_PRODUCT_BLOCK = 512

# terms x series summed per numpy step of the scaled series
_SERIES_ELEMENTS = 8192

# b within this distance of zero or a negative integer is rejected: the
# series denominators (b)_k pass through (numerical) zero.
_FORBIDDEN_B_TOL = 1e-12

_CONSECUTIVE_SMALL = 3


def _check_args(a: float, b: float, z: float):
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError(f"arguments must be finite, got a={a}, b={b}, z={z}")
    nearest = round(b)
    if nearest <= 0 and abs(b - nearest) <= _FORBIDDEN_B_TOL:
        raise ValueError(
            f"second parameter b = {b} is zero or a negative integer (within "
            f"{_FORBIDDEN_B_TOL}); the series is undefined there"
        )


def kummer_series_direct(a: float, b: float, z: float) -> float:
    """Sum the Taylor series as-is, without the negative-z transformation.

    Stops once the running term stays below 1e-14 * |partial sum| for
    three consecutive terms.  Used to check the transformation identity
    against an independently summed series; prefer `kummer_m`.
    """
    _check_args(a, b, z)
    term = 1.0
    total = 1.0
    small_streak = 0
    for k in range(MAX_TERMS):
        term = term * ((a + k) / (b + k)) * (z / (k + 1))
        total += term
        if abs(term) <= _TOL * abs(total):
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


def _running_product(factors: np.ndarray):
    """Running products of `factors` along the last axis as (mantissas, exponents).

    The k-th product is mantissas[..., k] * 2**exponents[..., k], with the
    mantissas in [0.5, 1) in size; the roundings are those of the plain
    running product, and no product overflows or underflows.
    """
    mantissas, exponents = np.frexp(factors)
    exponents = np.cumsum(exponents, axis=-1)
    for lo in range(0, mantissas.shape[-1], _PRODUCT_BLOCK):
        block = mantissas[..., lo:lo + _PRODUCT_BLOCK]
        if lo:
            block[..., 0] *= mantissas[..., lo - 1]
        np.cumprod(block, axis=-1, out=block)
        block[...], shift = np.frexp(block)
        exponents[..., lo:lo + _PRODUCT_BLOCK] += shift
        exponents[..., lo + _PRODUCT_BLOCK:] += shift[..., -1:]
    return mantissas, exponents


def _scaled_kummer(a: np.ndarray, b: np.ndarray, x: float, tol: float):
    """e^{-x} phi(a, b; x) for x >= 0 and 1-D arrays a, b > 0, as (mantissas, exponents).

    All terms are positive.  They are summed in steps of up to
    _SERIES_ELEMENTS, each term a running product of the recurrence ratios
    carried in mantissa and exponent.  A series is done once every later
    ratio is bounded by some r < 1 (for k >= K, x (a+k) / ((b+k)(k+1)) <=
    x / (K+1) * max(1, (a+K)/(b+K))) and the geometric bound term r / (1-r)
    on the rest is within tol of the sum.  Raises NonConvergenceError if a
    series is not done within MAX_TERMS terms, at once if x >= MAX_TERMS
    (the bound needs K + 1 > x, so such a series cannot be done).
    """
    if not x < MAX_TERMS:
        raise NonConvergenceError(
            f"scaled Kummer series cannot converge within {MAX_TERMS} terms (x={x})"
        )
    shift = int(x / _LN2_HI)
    first = math.exp(-((x - shift * _LN2_HI) - shift * _LN2_LO))
    total_m = np.full(a.shape, first)
    total_e = np.full(a.shape, -shift)
    term_m, term_e = total_m, total_e
    needed = int(x + 10.0 * math.sqrt(x)) + 32
    width = max(64, _SERIES_ELEMENTS // a.size)
    k0 = 0
    while True:
        k = np.arange(k0, min(k0 + min(width, max(needed - k0, 32)), MAX_TERMS), dtype=float)
        factors = np.empty((a.size, k.size + 1))
        factors[:, 0] = term_m
        factors[:, 1:] = (a[:, None] + k) / (b[:, None] + k) * (x / (k + 1.0))
        m, e = _running_product(factors)
        e += term_e[:, None]
        top = np.maximum(total_e, e[:, 1:].max(axis=1))
        total = np.ldexp(total_m, total_e - top) + np.ldexp(m[:, 1:], e[:, 1:] - top[:, None]).sum(axis=1)
        total_m, total_e = np.frexp(total)
        total_e += top
        term_m, term_e = m[:, -1], e[:, -1]
        k0 += k.size
        r = x / (k0 + 1.0) * np.maximum(1.0, (a + k0) / (b + k0))
        term = np.ldexp(term_m, term_e - total_e)
        done = (r < 1) & (term * r <= tol * (1 - r) * total_m)
        if done.all():
            return total_m, total_e
        if k0 >= MAX_TERMS:
            raise NonConvergenceError(
                f"scaled Kummer series did not converge within {MAX_TERMS} terms "
                f"(x={x})",
                residual=float(np.max(term[~done])),
            )


def kummer_m(a: float, b: float, z: float) -> float:
    """Evaluate phi(a, b; z) for real arguments.

    phi(a, b; 0) = 1 exactly.  Negative arguments go through Kummer's
    transformation.  Where its series has positive terms (0 <= a < b) it
    is the scaled series, so e^z underflowing does not turn the value into
    NaN or 0 (phi(1, 2; -800) = (1 - e^-800)/800); otherwise it is summed
    directly and multiplied by e^z.  Raises ValueError for non-finite
    arguments and forbidden b (zero or a negative integer), and
    NonConvergenceError past 10,000 terms or when the value is not finite.
    """
    _check_args(a, b, z)
    if z == 0:
        return 1.0
    if z < 0 and 0 <= a < b:
        m, e = _scaled_kummer(np.array([b - a]), np.array([b]), -z, _TOL)
        value = math.ldexp(float(m[0]), int(e[0]))
    elif z < 0:
        value = math.exp(z) * kummer_series_direct(b - a, b, -z)
    else:
        value = kummer_series_direct(a, b, z)
    if not math.isfinite(value):
        raise NonConvergenceError(f"kummer_m(a={a}, b={b}, z={z}) = {value}")
    return value
