"""Kummer's confluent hypergeometric function by one scaled series.

    phi(a, b; z) = sum_{k>=0} (a)_k / (b)_k * z^k / k!

with (x)_k the rising factorial.  Every series is summed at x = |z| >= 0
by one routine, `_scaled_kummer`: e^{-x} phi(a, b; x), each term a running
product of the exact ratios (a+k)/(b+k) * x/(k+1) kept as a float mantissa
and an integer power-of-two exponent (frexp), so neither the terms (up to
about e^x) nor e^{-x} (below the smallest double from x ~ 745) leave the
floating-point range.  This is the scaled summation of Pearson, Olver &
Porter, "Numerical methods for the computation of the confluent and Gauss
hypergeometric functions" (Numer. Algor. 2017).  For z < 0 the raw series
alternates and loses all precision once |z| is moderately large; Kummer's
transformation (DLMF 13.2.39)

    phi(a, b; z) = e^z phi(b - a, b; -z)

makes phi(a, b; z) the scaled series of (b - a, b) at x = -z.  Terms may
have either sign; for a, b > 0 all are positive.  A series needs about
x + 10 sqrt(x) terms unless b is far above x, so |z| is limited to about
9,000 by the term cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError

MAX_TERMS = 10_000
_TOL = 1e-14  # relative truncation of kummer_m

# ln 2 split so that k * _LN2_HI is exact for k <= 2**21 (Cody & Waite;
# _LN2_HI has 32 significant bits): e^{-x} = 2^{-k} e^{-(x - k ln 2)} then
# never underflows.  The scaled series takes x below _X_MAX for this.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_X_MAX = 2**21 * _LN2_HI

# frexp mantissas lie in [0.5, 1) in size: a running product over this
# many of them stays above 2**-513 in size before it is renormalized.
_PRODUCT_BLOCK = 512

# terms x series summed per numpy step of the scaled series
_SERIES_ELEMENTS = 8192

# b within this distance of zero or a negative integer is rejected: the
# series denominators (b)_k pass through (numerical) zero.
_FORBIDDEN_B_TOL = 1e-12


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


def _ratio_bound(a, b, x: float, k):
    """min(r, 1) for an r with |x (a+l) / ((b+l)(l+1))| <= r at every l >= k.

    For b + k > 0, x/(k+1) * max(1, |a+k|/(b+k)) is such a bound.  It falls
    below 1 only once k + 1 > x, so for x >= MAX_TERMS the smaller of it and
    x/(b+k) * max(1, |a+k|/(k+1)) is taken; neither grows with k.  While
    b + k <= 0 a later b + l may be near zero: there is no bound, and the
    result is 1.
    """
    r = x / (k + 1.0) * np.maximum(1.0, abs(a + k) / (b + k))
    if x >= MAX_TERMS:
        r = np.minimum(r, x / (b + k) * np.maximum(1.0, abs(a + k) / (k + 1.0)))
    return np.where(b + k > 0, np.minimum(r, 1.0), 1.0)


def _exp_split(x: float):
    """(first, shift) with e^{-x} = first * 2**-shift and first in (0.5, 1]."""
    shift = int(x / _LN2_HI)
    return math.exp(-((x - shift * _LN2_HI) - shift * _LN2_LO)), shift


def _scaled_kummer(a: np.ndarray, b: np.ndarray, x: float, tol: float):
    """e^{-x} phi(a, b; x) for x >= 0 and 1-D arrays a, b, as (mantissas, exponents).

    The series starts at _exp_split(x), and its terms, of either sign, are
    summed in steps of up to _SERIES_ELEMENTS, each term a running product
    of the recurrence ratios carried in mantissa and exponent.  A series is
    done once _ratio_bound gives r < 1 and the geometric bound |term| r /
    (1-r) on the rest is within tol of |sum|, or its last term is 0.
    Raises NonConvergenceError if a series is not done within MAX_TERMS
    terms; at once if x is not below _X_MAX (about 1.45e6), or if
    x >= MAX_TERMS and the ratio bound is not below 1 by then for a series
    that does not end (a a non-positive integer makes its terms 0).
    """
    if not x < _X_MAX:
        raise NonConvergenceError(f"scaled Kummer series needs x < {_X_MAX}, got x={x}")
    if x >= MAX_TERMS:
        ends = (a <= 0) & (a == np.floor(a))
        if not ((_ratio_bound(a, b, x, MAX_TERMS) < 1) | ends).all():
            raise NonConvergenceError(f"scaled Kummer series cannot converge within {MAX_TERMS} terms (x={x})")
    first, shift = _exp_split(x)
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
        # past a + k = 0 the terms are 0 (so is the step's last), and their
        # exponents must not set the scale
        live = e[:, 1:] if m[:, -1].all() else np.where(m[:, 1:] != 0, e[:, 1:], total_e[:, None])
        top = np.maximum(total_e, live.max(axis=1))
        total = np.ldexp(total_m, total_e - top) + np.ldexp(m[:, 1:], e[:, 1:] - top[:, None]).sum(axis=1)
        total_m, total_e = np.frexp(total)
        total_e += top
        term_m, term_e = m[:, -1], e[:, -1]
        k0 += k.size
        r = _ratio_bound(a, b, x, k0)
        term = np.ldexp(abs(term_m), term_e - total_e)
        done = term * r <= tol * (1 - r) * abs(total_m)
        if done.all():
            return total_m, total_e
        if k0 >= MAX_TERMS:
            raise NonConvergenceError(
                f"scaled Kummer series did not converge within {MAX_TERMS} terms (x={x})",
                residual=float(np.max(term[~done])),
            )


def weighted_kummer_sum(factors, steps, a, b, x: float, tol: float) -> float:
    """sum_j w_j e^{-x} phi(a_j, b_j; x) with w_0 = prod(factors), w_{j+1} = w_j prod(steps[j]).

    `steps` has one row per step, so a step whose size would overflow as
    one float is passed as several factors.  The weights and the scaled
    series (each to a relative tol) are multiplied as mantissas and
    exponents, and the sum is rounded to a float once.
    """
    w_m, w_e = _running_product(np.concatenate([factors, steps.ravel()]))
    at = len(factors) - 1 + steps.shape[1] * np.arange(len(a))
    s_m, s_e = _scaled_kummer(a, b, x, tol)
    exponents = w_e[at] + s_e
    top = int(exponents.max())
    return math.ldexp(float(np.ldexp(w_m[at] * s_m, exponents - top).sum()), top)


def kummer_m(a: float, b: float, z: float) -> float:
    """Evaluate phi(a, b; z) for real arguments.

    phi(a, b; 0) = 1 exactly.  Otherwise one scaled series is summed at
    x = |z|: e^{-x} phi(b - a, b; x) for z < 0, which is phi(a, b; z) by
    Kummer's transformation, so e^z underflowing turns the value into
    neither NaN nor 0 (phi(1, 2; -800) = (1 - e^-800)/800); and
    e^{-x} phi(a, b; x) for z > 0, whose start e^{-x} = first * 2**-shift
    is divided out again.  So kummer_m(a, b, z) and
    e^z kummer_m(b - a, b, -z) sum the same terms.  Raises ValueError for
    arguments that are not finite real numbers and for forbidden b (zero
    or a negative integer), and NonConvergenceError, naming a, b and z,
    past 10,000 terms, for |z| >= _X_MAX or when the value overflows.
    """
    if any(np.iscomplexobj(v) for v in (a, b, z)) or not all(map(math.isfinite, (a, b, z))):
        raise ValueError(f"arguments must be finite real numbers, got a={a}, b={b}, z={z}")
    nearest = round(b)
    if nearest <= 0 and abs(b - nearest) <= _FORBIDDEN_B_TOL:
        raise ValueError(
            f"second parameter b = {b} is zero or a negative integer (within "
            f"{_FORBIDDEN_B_TOL}); the series is undefined there"
        )
    if z == 0:
        return 1.0
    x = abs(z)
    try:
        m, e = _scaled_kummer(np.array([b - a if z < 0 else a]), np.array([b]), x, _TOL)
    except NonConvergenceError as err:
        raise NonConvergenceError(f"kummer_m(a={a}, b={b}, z={z}) = ?: {err}", err.residual) from None
    first, shift = _exp_split(x) if z > 0 else (1.0, 0)
    try:
        return math.ldexp(float(m[0]) / first, int(e[0]) + shift)
    except OverflowError:
        raise NonConvergenceError(f"kummer_m(a={a}, b={b}, z={z}) = inf: past the largest double") from None
