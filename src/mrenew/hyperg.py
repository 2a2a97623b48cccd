"""Kummer's confluent hypergeometric function by a Poisson window and by one scaled series.

    phi(a, b; z) = sum_{k>=0} (a)_k / (b)_k * z^k / k!

with (x)_k the rising factorial.  Both sums below carry every value as a
float mantissa and an integer power-of-two exponent (frexp), and running
products of many factors in that form (`_running_product`), so no term,
weight or sum leaves the floating-point range, however far e^{-x}
underflows (from x ~ 745) or e^x overflows.

`weighted_kummer_sum`, the sum behind `closedform`, takes series with
a > 0 and an integer q = b - a >= 1 at x >= 0.  Since
(a)_k / (a+q)_k = (a)_q / (a+k)_q,

    e^{-x} phi(a, a+q; x) = sum_k pi_k(x) R(k),   R(k) = (a)_q / (a+k)_q,

an expectation over the Poisson(x) weights pi_k, which all the series of
a call share.  It is summed over one window of k (`_window`), placed from
stated bounds on the terms pi_k R(k) (whose peak sits near x - q), with
the weights computed from the Poisson mode outward and normalized by
their own sum over the window (Fox & Glynn, "Computing Poisson
probabilities", CACM 31(4), 1988).  Only the window's terms are summed,
so the sum has no term cap: its cost grows like q + sqrt(x).

`kummer_m` sums one series of any real a and b, by `_scaled_kummer`:
e^{-x} phi(a, b; x) term by term from k = 0, each term a running product
of the exact ratios (a+k)/(b+k) * x/(k+1).  This is the scaled summation
of Pearson, Olver & Porter, "Numerical methods for the computation of the
confluent and Gauss hypergeometric functions" (Numer. Algor. 2017).  For
z < 0 the raw series alternates and loses all precision once |z| is
moderately large; Kummer's transformation (DLMF 13.2.39)

    phi(a, b; z) = e^z phi(b - a, b; -z)

makes phi(a, b; z) the scaled series of (b - a, b) at x = -z.  Terms may
have either sign.  The series needs about x + 10 sqrt(x) terms unless b
is far above x, so `kummer_m` (and `mrenew hyperg`) is limited to |z|
below about 9,000 by the term cap.
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

# terms x series summed per numpy step of either sum
_SERIES_ELEMENTS = 8192

# relative truncation of a window sum: the terms left out below and above
# the window are each at most half of it
_WINDOW_TOL = 2.0**-53

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


def _last(pred, lo: int, hi: int) -> int:
    """The largest k in [lo, hi] with pred(k), given pred(lo) and pred falling once."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if pred(mid) else (lo, mid - 1)
    return lo


def _window(x: float, a: float, q: float):
    """(lo, hi, mode): the k summed for every e^{-x} phi(a_r, a_r + q_r; x) of a call.

    x > 0, a = min a_r > 0 and q = max q_r >= 1.  With t_k = pi_k R(k) the
    terms of a series and S = sum_k t_k >= t_k for every k, the terms left
    out are bounded through ratios that hold for every series of the call:

    * above: t_{k+1} / t_k <= x / (k+1), so past hi >= mode = floor(x) the
      rest is at most S * pi_hi / pi_mode * r / (1 - r), r = x / (hi+1);
    * below: t_{m-1} / t_m <= g(m-1) with g(m) = (m+1)/x * (a+m+q)/(a+m),
      so t_k <= S G(k), G(k) = prod_{m=k}^{top-1} g(m), at any top.  At
      lo >= 2 the rest is at most S (G(0) + G(lo) r / (1 - r)), r =
      max(g(1), g(lo-1)) the largest g on [1, lo-1]: (m+1)(a+m+q)/(a+m) is
      convex in m for a <= 1 and increasing for a >= 1.

    hi is the least k and lo the greatest k for which these bounds are
    each within _WINDOW_TOL / 2 (G(0) and the geometric part a quarter
    each); lo is 0 when G(0) is not.  The products are log-gamma ratios,
    and top is the first m where g(m) >= 1, the largest the terms get.
    The same bounds, with q = 0, hold for the Poisson weights themselves,
    so the window also holds all but _WINDOW_TOL of their mass.
    """
    lg, log_x = math.lgamma, math.log(x)
    mode = int(x)
    target = math.log(_WINDOW_TOL / 4)

    def above(k):   # the bound on the terms past k >= mode; r / (1 - r) = x / (k + 1 - x)
        return (k - mode + 1) * log_x - lg(k + 1.0) + lg(mode + 1.0) - math.log(k + 1.0 - x) <= target + math.log(2)

    step = 16 + int(math.sqrt(x))
    while not above(mode + step):
        step *= 2
    hi = mode + step - _last(lambda d: above(mode + step - d), 0, step)

    def g(m):
        return (m + 1.0) / x * (a + m + q) / (a + m)

    def log_g(k, top):   # log G(k)
        return (lg(top + 1.0) - lg(k + 1.0) - (top - k) * log_x
                + lg(a + top + q) - lg(a + k + q) - lg(a + top) + lg(a + k))

    if g(1) >= 1:
        return 0, hi, mode
    # (m+1)(a+m+q) = x (a+m) at m = top: m^2 + (a+q+1-x) m + (a+q - x a) = 0
    b, c = a + q + 1.0 - x, a + q - x * a
    top = min(mode, max(1, math.ceil((-b + math.sqrt(max(b * b - 4.0 * c, 0.0))) / 2.0)))
    if log_g(0, top) > target:
        return 0, hi, mode

    def below(k):
        r = max(g(1), g(k - 1))
        return k == 1 or (r < 1 and log_g(k, top) + math.log(r / (1.0 - r)) <= target)

    return _last(below, 1, top), hi, mode


def _window_sum(a: np.ndarray, q: np.ndarray, x: float):
    """e^{-x} phi(a, a + q; x) for 1-D arrays a > 0 and integer q >= 1, as (mantissas, exponents).

    Sums pi_k R(k) over the K terms of `_window(x, min a, max q)`, so each
    sum is short by at most _WINDOW_TOL of itself.  The Poisson weights are
    running products of x/k from the mode up and of k/x down, w_k =
    pi_k / pi_mode, and their sum W over the window stands for 1 / pi_mode;
    a window from k = 0 instead runs them up from pi_0 = e^{-x}, which
    `_exp_split` gives exactly.  R(0) = 1; each series starts at k1 =
    max(lo, 1) from R(k1) = (a)_q / (a+k1)_q = (a)_k1 / (a+q)_k1, a
    product of min(q, k1) factors whose first, a times 1/(a+c), keeps a
    tiny a exact.  From there R(k) is the plain running product of
    (a+k)/(a+k+q) over a step of at most _SERIES_ELEMENTS terms x series,
    relative to its start, and each step is one matrix product with the
    weights, scaled to a largest 1 in the step.  A step is short enough
    that its factors, each at least k0 / (k0 + max q), keep the product
    above 2^-900, so every term it drops below the smallest double is
    under 2^-120 of that step's largest.

    Every factor is rounded at most three times and every product step
    once, and all terms are positive, so to first order each sum is off
    by at most 2^-53 (2 + 4 min(k1, max q) + 10 K) relative: 2 for the
    truncation, 4 per factor of R(k1), and 10 per term of the window, 4
    for its R(k), 4 for its w_k and W and 2 for the sums.  Raises
    NonConvergenceError for x >= _X_MAX (about 1.45e6).
    """
    if x == 0 or not a.size:   # pi_0 = 1 and R(0) = 1
        return np.full(a.shape, 0.5), np.ones(a.shape, dtype=int)
    if not x < _X_MAX:
        raise NonConvergenceError(f"Poisson window sum needs x < {_X_MAX}, got x={x}")
    q_max = float(q.max())
    lo, hi, mode = _window(x, float(a.min()), q_max)
    if lo == 0:
        first, shift = _exp_split(x)
        w_m, w_e = _running_product(np.concatenate([[first], x / np.arange(1.0, hi + 1.0)]))
        w_e -= shift
        weight = 1.0
    else:
        ratios = np.ones((2, max(mode - lo, hi - mode)))
        ratios[0, :mode - lo] = np.arange(mode, lo, -1.0) / x
        ratios[1, :hi - mode] = x / np.arange(mode + 1.0, hi + 1.0)
        m, e = _running_product(ratios)
        w_m = np.concatenate([np.flip(m[0, :mode - lo]), [1.0], m[1, :hi - mode]])
        w_e = np.concatenate([np.flip(e[0, :mode - lo]), [0], e[1, :hi - mode]])
        weight = np.ldexp(w_m, w_e).sum()    # every w_k <= 1, and w_mode = 1
    k1 = max(lo, 1)
    # R(k1) = prod_{l<n} (a+l)/(a+l+c), (n, c) = (k1, q) or (q, k1), the shorter
    n, c = (k1, q[:, None]) if k1 <= q_max else (q[:, None], k1)
    l = np.arange(1.0, min(k1, q_max))
    num = a[:, None] + l
    m, e = _running_product(np.concatenate(
        [a[:, None], 1.0 / (a[:, None] + c), np.where(l < n, num / (num + c), 1.0)], axis=1))
    carry_m, carry_e = m[:, -1], e[:, -1]
    sums_m, sums_e = ([np.full(a.shape, w_m[0])], [np.full(a.shape, w_e[0])]) if lo == 0 else ([], [])
    width = max(64, _SERIES_ELEMENTS // max(a.size, 1))
    k0 = k1
    while k0 <= hi:
        k = np.arange(k0, min(k0 + width, hi + 1, k0 + 900 / math.log2(1.0 + q_max / k0)), dtype=float)
        num = a[:, None] + k
        ratio = np.cumprod(num / (num + q[:, None]), axis=1)   # R(k+1) / R(k0)
        at = slice(k0 - lo, k0 - lo + k.size)
        top = w_e[at].max()
        w = np.ldexp(w_m[at], w_e[at] - top)
        sums_m.append(carry_m * (w[0] + ratio[:, :-1] @ w[1:]))
        sums_e.append(carry_e + top)
        carry_m, shift = np.frexp(carry_m * ratio[:, -1])
        carry_e = carry_e + shift
        k0 += k.size
    sums_e = np.array(sums_e)
    top = sums_e.max(axis=0)
    m, e = np.frexp(np.ldexp(np.array(sums_m), sums_e - top).sum(axis=0) / weight)
    return m, e + top


def _ratio_bound(a: float, b: float, x: float, k: int) -> float:
    """min(r, 1) for an r with |x (a+l) / ((b+l)(l+1))| <= r at every l >= k.

    For b + k > 0, x/(k+1) * max(1, |a+k|/(b+k)) is such a bound.  It falls
    below 1 only once k + 1 > x, so for x >= MAX_TERMS the smaller of it and
    x/(b+k) * max(1, |a+k|/(k+1)) is taken; neither grows with k.  While
    b + k <= 0 a later b + l may be near zero: there is no bound, and the
    result is 1.
    """
    if b + k <= 0:
        return 1.0
    r = x / (k + 1.0) * max(1.0, abs(a + k) / (b + k))
    if x >= MAX_TERMS:
        r = min(r, x / (b + k) * max(1.0, abs(a + k) / (k + 1.0)))
    return min(r, 1.0)


def _exp_split(x: float):
    """(first, shift) with e^{-x} = first * 2**-shift and first in (0.5, 1]."""
    shift = int(x / _LN2_HI)
    return math.exp(-((x - shift * _LN2_HI) - shift * _LN2_LO)), shift


def _scaled_kummer(a: float, b: float, x: float):
    """e^{-x} phi(a, b; x) for x >= 0, as (mantissa, exponent).

    The series starts at _exp_split(x), and its terms, of either sign, are
    summed in steps of up to _SERIES_ELEMENTS, each term a running product
    of the recurrence ratios carried in mantissa and exponent.  The series
    is done once _ratio_bound gives r < 1 and the geometric bound |term| r /
    (1-r) on the rest is within _TOL of |sum|, or its last term is 0.
    Raises NonConvergenceError if it is not done within MAX_TERMS terms; at
    once if x is not below _X_MAX (about 1.45e6), or if x >= MAX_TERMS and
    the ratio bound is not below 1 by then for a series that does not end
    (a a non-positive integer makes its terms 0).
    """
    if not x < _X_MAX:
        raise NonConvergenceError(f"scaled Kummer series needs x < {_X_MAX}, got x={x}")
    needed = int(x + 10.0 * math.sqrt(x)) + 32
    if x >= MAX_TERMS:
        if not (_ratio_bound(a, b, x, MAX_TERMS) < 1 or (a <= 0 and a == math.floor(a))):
            raise NonConvergenceError(f"scaled Kummer series cannot converge within {MAX_TERMS} terms (x={x})")
        r = _ratio_bound(a, b, x, 0)
        if 0 < r < 1:    # b far above x: each term is at most r times the last, so log(tol) / log(r) reach tol
            needed = min(needed, max(32, math.ceil(math.log(_TOL) / math.log(r))))
    first, shift = _exp_split(x)
    total_m, total_e = first, -shift
    term_m, term_e = total_m, total_e
    k0 = 0
    while True:
        k = np.arange(k0, min(k0 + min(_SERIES_ELEMENTS, max(needed - k0, 32)), MAX_TERMS), dtype=float)
        m, e = _running_product(np.concatenate([[term_m], (a + k) / (b + k) * (x / (k + 1.0))]))
        e += term_e
        # past a + k = 0 the terms are 0 (so is the step's last), and their
        # exponents must not set the scale
        live = e[1:] if m[-1] else e[1:][m[1:] != 0]
        top = int(max(total_e, live.max(initial=total_e)))
        total_m, total_e = math.frexp(math.ldexp(total_m, total_e - top) + np.ldexp(m[1:], e[1:] - top).sum())
        total_e += top
        term_m, term_e = float(m[-1]), int(e[-1])
        k0 += k.size
        r = _ratio_bound(a, b, x, k0)
        term = math.ldexp(abs(term_m), term_e - total_e)
        if term * r <= _TOL * (1 - r) * abs(total_m):
            return total_m, total_e
        if k0 >= MAX_TERMS:
            raise NonConvergenceError(
                f"scaled Kummer series did not converge within {MAX_TERMS} terms (x={x})", residual=term)


def weighted_kummer_sum(factors, steps, a, q, x: float):
    """sum_j w_j e^{-x} phi(a_j, a_j + q_j; x) with w_0 = prod(factors), w_{j+1} = w_j prod(steps[j]).

    factors (..., F), steps (..., J-1, K) and a (..., J) share leading
    axes, which the result keeps; q (J,) holds integers >= 1, and all the
    series go to one `_window_sum` call.  A step whose size would overflow
    as one float is passed as several factors.  The weights and the series
    are multiplied as mantissas and exponents, and each sum is rounded to a
    float once.
    """
    *lead, rows, k = steps.shape
    w_m, w_e = _running_product(np.concatenate([factors, steps.reshape(*lead, rows * k)], axis=-1))
    at = factors.shape[-1] - 1 + k * np.arange(rows + 1)
    s_m, s_e = (v.reshape(a.shape) for v in _window_sum(a.ravel(), np.broadcast_to(q, a.shape).ravel(), x))
    exponents = w_e[..., at] + s_e
    top = exponents.max(axis=-1)
    return np.ldexp(np.ldexp(w_m[..., at] * s_m, exponents - top[..., None]).sum(axis=-1), top)


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
        m, e = _scaled_kummer(b - a if z < 0 else a, b, x)
    except NonConvergenceError as err:
        raise NonConvergenceError(f"kummer_m(a={a}, b={b}, z={z}) = ?: {err}", err.residual) from None
    first, shift = _exp_split(x) if z > 0 else (1.0, 0)
    try:
        return math.ldexp(m / first, e + shift)
    except OverflowError:
        raise NonConvergenceError(f"kummer_m(a={a}, b={b}, z={z}) = inf: past the largest double") from None
