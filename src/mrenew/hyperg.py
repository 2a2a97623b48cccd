"""Kummer's confluent hypergeometric function as a sum over a Poisson window.

    phi(a, b; z) = sum_{k>=0} (a)_k / (b)_k * z^k / k!

with (x)_k the rising factorial.  With pi_k(x) = e^{-x} x^k / k! the
Poisson(x) weights,

    e^{-x} phi(a, b; x) = sum_k pi_k(x) R(k),   R(k) = (a)_k / (b)_k,

for any real a and b (b not 0 or a negative integer).  Every Kummer value
here is that sum (`_window_sum`), over one window of k (`_window`) placed
from stated bounds on the terms pi_k R(k), with the weights computed from
the Poisson mode outward and normalized by their own sum over the window
(Fox & Glynn, "Computing Poisson probabilities", CACM 31(4), 1988).  Only
the window's terms are summed, so there is no term cap.  Every term,
weight and sum is carried as a float mantissa and an integer power-of-two
exponent (frexp), and running products of many factors in that form
(`_running_product`), so none leaves the floating-point range, however far
e^{-x} underflows (from x ~ 745) or e^x overflows.

`weighted_kummer_sum`, the sum behind `closedform`, takes series with
a > 0 and an integer q = b - a >= 1, for which (a)_k / (a+q)_k =
(a)_q / (a+k)_q, and all the series of a call share one window.
`kummer_m` sums one series of any real a and b at x = |z|; for z < 0
Kummer's transformation (DLMF 13.2.39)

    phi(a, b; z) = e^z phi(b - a, b; -z)

makes it the sum for (b - a, b) at x = -z, whose terms have one sign from
the first k with b - a + k > 0 and b + k > 0 on, where the raw series
alternates.  Both reach x below 2^21 ln 2 (about 1.45e6), and windows
that end by k = 2^21: a series whose terms peak past it is refused before
its window is searched for or summed; a polynomial's window ends where its
terms fall, as any series' does, or at its degree.  A parameter may be
any finite double: past 2^21 in size its rising factorial is taken from
Stirling's series, not from lgamma(a + k), whose ulp passes 1e6 at
a = 1e20.  `kummer_m` refuses, before it sums, a series whose term at the
peak of the bound on its terms, times e^{-x}, passes 2^53 times the
largest double, and after it sums, one whose terms cancel past the
rounding bound of their sum, so a value it returns has the right sign and
is within that bound, below its own size; it never returns inf or nan.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError

# ln 2 split so that k * _LN2_HI is exact for k <= 2**21 (Cody & Waite;
# _LN2_HI has 32 significant bits): e^{-x} = 2^{-k} e^{-(x - k ln 2)} then
# never underflows.  The window sum takes x below _X_MAX for this.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_X_MAX = 2**21 * _LN2_HI

# the last k of any window: every window of x below _X_MAX whose terms fall
# like the Poisson weights' ends below it
_K_MAX = 2**21

# frexp mantissas lie in [0.5, 1) in size: a running product over this
# many of them stays above 2**-513 in size before it is renormalized.
_PRODUCT_BLOCK = 512

# terms x series summed per numpy step of the window sum
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
    running product, and no product overflows or underflows.  Each block of
    _PRODUCT_BLOCK factors starts from the carried state: the last block's
    mantissa, and one exponent carry per row, the sum of the earlier blocks'
    last shifts.  That state starts as the identity, a mantissa of 1 and a
    carry of 0, so the first block takes the same steps as every later one,
    and the cost is linear in the factors.  No factors give no products.
    """
    mantissas, exponents = np.frexp(factors)
    exponents = np.cumsum(exponents, axis=-1)
    last, carry = 1.0, 0
    for lo in range(0, mantissas.shape[-1], _PRODUCT_BLOCK):
        block = mantissas[..., lo:lo + _PRODUCT_BLOCK]
        block[..., 0] *= last
        np.cumprod(block, axis=-1, out=block)
        shift = np.frexp(block, out=(block, None))[1]
        shift += carry
        exponents[..., lo:lo + _PRODUCT_BLOCK] += shift
        last, carry = block[..., -1], shift[..., -1:]
    return mantissas, exponents


def _last(pred, lo: int, hi: int) -> int:
    """The largest k in [lo, hi] with pred(k), given pred(lo) and pred falling once."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if pred(mid) else (lo, mid - 1)
    return lo


def _peak(x: float, a: float, b: float, k: int) -> int:
    """The least j >= k from which on the terms of e^{-x} phi(a, b; x) fall: x (a+j) < (j+1)(b+j).

    That holds past the larger root of the quadratic (j+1)(b+j) - x (a+j),
    given a + k > 0 and b + k > 0.  The root is taken in the form
    without cancellation, with p and c scaled by a power of two so that p^2
    and 4c stay finite.  Raises NonConvergenceError, before it steps, where
    j would pass _K_MAX (or x a passes the largest double, leaving the root
    inf or nan): past 2^53 a step of j leaves the test's floats as they
    were.
    """
    p, c = b + 1.0 - x, b - x * a
    e = max(math.frexp(p)[1], math.frexp(c)[1] // 2 + 1)
    p, c = math.ldexp(p, -e), math.ldexp(c, -2 * e)
    root = math.sqrt(max(p * p - 4.0 * c, 0.0))
    root = math.ldexp((root - p) / 2.0 if p <= 0 else -2.0 * c / (root + p), e)   # with no cancellation
    if not (k <= _K_MAX and root < _K_MAX):
        raise NonConvergenceError(f"the terms peak past k = {_K_MAX}")
    j = max(k, math.floor(root) + 1)
    while x * (a + j) >= (j + 1.0) * (b + j):
        j += 1
    return j


def _window(x: float, a: float, q: float, b=None):
    """(lo, hi, mode): the k summed for every e^{-x} phi(a_r, a_r + q_r; x) of a call.

    x > 0, a = min a_r and q = max q_r >= 1, or b = a + q is given for one
    series of any real a and b.  With t_k = pi_k R(k) the terms of a series
    and S the sum of their sizes, which is at least any |t_k|, the terms
    left out are bounded through ratios that hold for every series of the
    call:

    * below, for a > 0 and a + q > 0 (all terms positive): t_{m-1} / t_m
      <= g(m-1) with g(m) = (m+1)/x * (p+m)/(a+m), p = a + max(q, 0), so
      t_k <= S G(k), G(k) = prod_{m=k}^{top-1} g(m), at any top.  At lo >= 2
      the rest is at most S (G(0) + G(lo) r / (1 - r)), r = max(g(1),
      g(lo-1)) the largest g on [1, lo-1]: (m+1)(p+m)/(a+m) is convex in m
      for (p - a)(1 - a) >= 0 and increasing otherwise.
    * above, with (c, d) = (a, b) of any signs: |t_{k+1} / t_k| =
      x |c+k| / ((k+1)(d+k)) <= r_k = x (c'+k) / ((k+1)(d+k)),
      c' = max(|c|, min(1, d)), at every k from the first with d + k > 0
      on, and r_k does not grow with k.  So from the first m with r_m < 1
      on, the rest past hi is at most |t_m| r_m ... r_{hi-1} r_hi /
      (1 - r_hi) <= S r_m ... r_hi / (1 - r_hi).  Without b, (c, d) =
      (1, 1), r_k = x / (k+1), which bounds every series with q >= 0.  A
      polynomial, c = -n a non-positive integer, has no terms past n, so
      its window ends by hi = n.

    hi is the least k and lo the greatest k for which these bounds are each
    within _WINDOW_TOL / 2 (G(0) and the geometric part a quarter each); lo
    is 0 when G(0) is not, or when a series has terms of either sign.  The
    products are log-gamma ratios (Stirling's series for a parameter past
    _K_MAX in size), and top is the m past which g(m) >= 1, the largest the
    terms get.  The same bounds with q = 0 and (c, d) = (1, 1) hold for
    the Poisson weights themselves, so when lo > 0, where
    the weights are normalized over the window, p covers them below and hi
    is taken no less than their edge: the window then also holds all but
    _WINDOW_TOL of their mass.  A window whose hi would pass _K_MAX raises
    NonConvergenceError (in `_peak` where the terms peak past it), and so
    does a series whose |t_j|, at that m or at the degree n if it is less,
    passes 2^1077, whatever the signs of its terms: S then passes 2^1077,
    so either its sum passes the largest double, and so does its value,
    phi or e^{-x} phi, or the sum is below 2^-53 12 S, which `_window_sum`'s
    rounding bound refuses; and a sum would take a step per term.
    """
    log_x, lg, target = math.log(x), math.lgamma, math.log(_WINDOW_TOL / 4)

    def rise(a, k):   # log |(a)_k| up to a constant of a
        if abs(a) > _K_MAX:   # Stirling's series, where lgamma(a + k) is too large to difference
            a = a if a > 0 else 1.0 - a - k   # |(a)_k| = (1 - a - k)_k while a + k <= 0
            return (a - 0.5) * math.log1p(k / a) + k * math.log(a + k) - k
        if a + k <= 0 and a == math.floor(a):   # a polynomial's c, at k <= -c
            return -lg(1.0 - a - k)
        return lg(a + k)

    def log_term(a, b, k):   # log |t_k| up to a constant
        return k * log_x - lg(k + 1.0) + (rise(a, k) - rise(b, k) if a != b else 0.0)

    def edge(c, d):
        n = int(-c) if c <= 0 and c == math.floor(c) else math.inf   # a polynomial's degree
        bc = max(abs(c), min(1.0, d))
        start = max(0, math.floor(-d) + 1)   # the first k with d + k > 0, where the bound holds from
        m = _peak(x, bc, d, start) if start <= n else n   # a degree before start ends the window there
        peak = min(m, n)   # the true term read where the bound peaks, or at the degree
        # e^{-x} |t_peak| past 2^53 times the largest double: the sum passes the double
        # range, or its rounding bound, at least 2^-53 12 of its terms' sizes, reaches it
        if log_term(c, d, peak) - log_term(c, d, 0) - x > (1024 + 53) * math.log(2):
            raise NonConvergenceError(f"the terms pass the largest double: |t_{peak}| is past 2^1077 e^x")
        if n <= m:
            return n
        bound = log_term(bc, d, m) + target + math.log(2)

        def above(k):   # the bound on the terms past k >= m; r underflows to 0 at x = 5e-324
            r = x * (bc + k) / ((k + 1.0) * (d + k))
            return r == 0 or log_term(bc, d, k) + math.log(r / (1.0 - r)) <= bound

        step = 16 + int(math.sqrt(x))
        while not above(m + step):
            step *= 2
        return min(m + step - _last(lambda j: above(m + step - j), 0, step), n)

    p, lo = a + max(q, 0.0), 0

    def g(m):
        return (m + 1.0) / x * (p + m) / (a + m)

    if a > 0 and a + q > 0 and g(1) < 1:   # else the terms fall from k = 1 on, and G(0) >= 1/2
        top = _peak(x, a, p, 1)
        ref = log_term(a, p, top)

        def below(k):
            r = max(g(1), g(k - 1))
            return k == 1 or (r < 1 and log_term(a, p, k) - ref + math.log(r / (1.0 - r)) <= target)

        if log_term(a, p, 0) - ref <= target:
            lo = _last(below, 1, top)
    poisson = edge(1.0, 1.0) if lo or b is None else 0
    hi = poisson if b is None else max(poisson, edge(a, b))
    if hi > _K_MAX:
        raise NonConvergenceError(f"Poisson window reaches past k = {_K_MAX}")
    return lo, hi, int(x)


def _window_sum(a: np.ndarray, q: np.ndarray, x: float, b=None):
    """e^{-x} phi(a, a + q; x) for 1-D arrays a and q, as (mantissas, exponents).

    Either a > 0 and q holds integers >= 1 (the closed form's series), or b
    holds the exact second parameters a + q of one series of any real a and
    b (not 0 or a negative integer).  Sums pi_k R(k) over the K terms of
    `_window`, so each sum is short by at most _WINDOW_TOL of the sum of its
    terms' sizes.  The Poisson weights (`_poisson_weights`) of a window from
    lo > 0 are two running products from the mode, of x/k up and of k/x
    down, w_k = pi_k / pi_mode, and their sum W over the window stands for
    1 / pi_mode; a window from k = 0 instead runs them up from
    pi_0 = e^{-x}, which `_exp_split` gives exactly.

    The series start at k1, the larger of lo and the first k >= 1 with
    a + k > 0 and b + k > 0 (or hi + 1), from R(k1) = (a)_k1 / (b)_k1: a
    product of k1 factors, or for integer q of min(k1, q) as
    (a)_q / (a+k1)_q, whose first, a times 1/b, keeps a tiny a exact.  The
    terms below k1, none unless lo = 0 (lo > 0 makes k1 = lo), are taken
    from that product as one block of k1 - lo rows, one per k, to which
    each step from k1 on adds its sums as one more row, so the cost is
    linear in the window and in the F factors of R(k1).  From k1
    on R(k) is the plain running product of (a+k)/(b+k), with b + k formed
    as (a + k) + q for the closed form, over a step of at most
    _SERIES_ELEMENTS terms x series, relative to its start, and each step
    is one matrix product with the weights, scaled to a largest 1 in the
    step.  A step is short enough that its factors, each within a factor
    2^L = 1 + |q| / (k0 + min(0, a, b)) of 1, keep the product within
    2^+-960: it takes ceil(900 / L) of them, but at most 960 / L and at
    least one (whose product is its one factor, a double).  So every term
    it rounds below the normal range is off by under 2^-110 of that step's
    largest.  For one series the products also take back the drift
    of the rounded a + k and b + k (`quotients`).

    Every factor is rounded at most three times and every product step
    once, so to first order each sum is off by at most 2^-53 (2 + 4 F + 10 K)
    of the sum of its terms' sizes, F the factors of R(k1): 2 for the
    truncation, 4 per factor, and 10 per term of the window, 4 for its R(k),
    4 for its w_k and W and 2 for the sums.  For one series that sum of
    sizes is the terms below k1 taken one by one plus |the sum from k1 on|,
    whose terms share one sign, and a sum that its bound reaches raises
    NonConvergenceError: its terms cancel past double precision, and no
    digit of it, nor its sign, is backed.  A sum that passes has relative
    error below 2^-53 (2 + 4 F + 10 K) times its condition number, sizes
    over |sum|.  Raises NonConvergenceError for x >= _X_MAX (about 1.45e6).
    """
    if x == 0 or not a.size:   # pi_0 = 1 and R(0) = 1
        return np.full(a.shape, 0.5), np.ones(a.shape, dtype=int)
    if not x < _X_MAX:
        raise NonConvergenceError(f"Poisson window sum needs x < {_X_MAX}, got x={x}")
    closed = b is None
    spread, least = (float(q.max()), 0.0) if closed else (abs(q[0]), min(0.0, a[0], b[0]))
    lo, hi, mode = _window(x, float(a.min()), spread) if closed else _window(x, a.item(), q.item(), b.item())
    w_m, w_e, weight = _poisson_weights(x, lo, hi, mode)
    k1 = max(lo, min(math.floor(-least), hi) + 1)

    def quotients(k):   # (a+k) / (b+k) for every series and k, and the drift of their running product
        num = a[:, None] + k
        if closed:
            return num / (num + q[:, None]), 0.0
        # within a binade of k, a + k and b + k round alike; their rounding
        # errors, exact as a - (num - k) (0 where num is), would bias a
        # product of K factors by up to about K 2^-53: it is taken back to
        # first order
        den, num_err = b[:, None] + k, a[:, None] - (num - k)
        drift = np.divide(num_err, num, out=np.zeros(num.shape), where=num != 0) - (b[:, None] - (den - k)) / den
        return num / den, np.cumsum(drift, axis=1)

    # R(k1) = (a)_q / (a+k1)_q for integers q = b - a >= 1, the shorter product
    swap = lo > spread and (closed or (q[0] >= 1 and q[0] == math.floor(q[0]) and b[0] - q[0] == a[0]))
    if swap:
        l = np.arange(1.0, spread)
        num = a[:, None] + l
        first, factors, drift = 1.0 / (a + k1), np.where(l < q[:, None], num / (num + k1), 1.0), 0.0
    else:
        first, (factors, drift) = 1.0 / (a + q if closed else b), quotients(np.arange(1.0, k1))
    m, e = _running_product(np.concatenate([a[:, None], first[:, None], factors], axis=1))
    if not closed:
        m[:, 2:] *= 1.0 + drift
    carry_m, carry_e = m[:, -1:].T, e[:, -1:].T   # R(k1) as a row
    # the terms below k1, none unless lo = 0, as one block of rows: R(0) = 1 and R(k) the k-th product
    m[:, 0], e[:, 0] = 1.0, 0
    sums_m, sums_e = [(w_m[:k1 - lo] * m[:, :k1 - lo]).T], [(w_e[:k1 - lo] + e[:, :k1 - lo]).T]
    width = max(64, _SERIES_ELEMENTS // max(a.size, 1))
    k0 = k1
    while k0 <= hi:
        log_factor = max(math.log2(1.0 + spread / (k0 + least)), 2.0**-52)
        # ceil(900 / L) factors of at most 2^L each, but no more than 960 / L, nor fewer than one
        stop = k0 + min(900 / log_factor, max(1, 960 // log_factor))
        k = np.arange(k0, min(k0 + width, hi + 1, stop), dtype=float)
        factors, drift = quotients(k)
        ratio = np.cumprod(factors, axis=1)   # R(k+1) / R(k0)
        if not closed:
            ratio *= 1.0 + drift
        at = slice(k0 - lo, k0 - lo + k.size)
        top = w_e[at].max()
        w = np.ldexp(w_m[at], w_e[at] - top)
        sums_m.append(carry_m * (w[0] + ratio[:, :-1] @ w[1:]))
        sums_e.append(carry_e + top)
        carry_m, shift = np.frexp(carry_m * ratio[:, -1])
        carry_e = carry_e + shift
        k0 += k.size
    sums_e = np.concatenate(sums_e)
    top = sums_e.max(axis=0)
    sums = np.ldexp(np.concatenate(sums_m), sums_e - top)
    total = sums.sum(axis=0)
    if not closed:   # one series' rounding bound, m still the running product of the F factors of R(k1)
        n = 2 + 4 * m.shape[1] + 10 * (hi - lo + 1)
        # its terms' sizes: those below k1 one by one, and from k1 on, of one sign, as their sum
        if 2.0**-53 * n * (np.abs(sums[:k1 - lo]).sum() + abs(sums[k1 - lo:].sum())) >= abs(total[0]):
            raise NonConvergenceError(f"the terms cancel: their sizes pass 2^53 / {n} times their sum")
    m, e = np.frexp(total / weight)
    return m, e + top


def _poisson_weights(x: float, lo: int, hi: int, mode: int):
    """(mantissas, exponents, W): the Poisson(x) weights w_lo .. w_hi of `_window_sum` and their scale W.

    A window from lo = 0 runs them up from pi_0 = e^{-x}, which `_exp_split`
    gives exactly, as one running product with the x / k, so w_k = pi_k and
    W = 1.  A window from lo > 0 takes w_k = pi_k / pi_mode as two running
    products from w_mode = 1, of x / k up to hi and of k / x down to lo, the
    lower one flipped, and W their sum over the window, which stands for
    1 / pi_mode; a window whose first term is its mode has no lower product.
    """
    if lo == 0:
        first, shift = _exp_split(x)
        w_m, w_e = _running_product(np.concatenate([[first], x / np.arange(1.0, hi + 1.0)]))
        return w_m, w_e - shift, 1.0
    down = _running_product(np.arange(mode, lo, -1.0) / x)
    up = _running_product(x / np.arange(mode + 1.0, hi + 1.0))
    w_m, w_e = (np.concatenate([np.flip(d), [one], u]) for d, one, u in zip(down, (1.0, 0), up))
    return w_m, w_e, np.ldexp(w_m, w_e).sum()    # every w_k <= 1, and w_mode = 1


def _exp_split(x: float):
    """(first, shift) with e^{-x} = first * 2**-shift and first in (0.5, 1]."""
    shift = int(x / _LN2_HI)
    return math.exp(-((x - shift * _LN2_HI) - shift * _LN2_LO)), shift


def weighted_kummer_sum(row, stride: int, a, q, x: float):
    """sum_j w_j e^{-x} phi(a_j, a_j + q_j; x) with w_j the product of row[..., :F + stride j].

    row (..., F + stride (J-1)) holds the F factors of w_0, then `stride`
    factors of each ratio w_{j+1} / w_j; a (..., J) shares its leading
    axes, which the result keeps.  q (J,) holds integers >= 1, and all the
    series go to one `_window_sum` call.  A ratio whose size would
    overflow as one float is passed as several factors.  The weights and
    the series are multiplied as mantissas and exponents, and each sum is
    rounded to a float once.
    """
    w_m, w_e = _running_product(row)
    at = slice(row.shape[-1] - 1 - stride * (a.shape[-1] - 1), None, stride)   # F - 1, F - 1 + stride, ...
    s_m, s_e = (v.reshape(a.shape) for v in _window_sum(a.ravel(), np.tile(q, a.size // q.size), x))
    exponents = w_e[..., at] + s_e
    top = exponents.max(axis=-1)
    return np.ldexp(np.ldexp(w_m[..., at] * s_m, exponents - top[..., None]).sum(axis=-1), top)


def kummer_m(a: float, b: float, z: float) -> float:
    """Evaluate phi(a, b; z) for real arguments.

    phi(a, b; 0) = 1 exactly.  Otherwise one window sum is taken at
    x = |z|: e^{-x} phi(b - a, b; x) for z < 0, which is phi(a, b; z) by
    Kummer's transformation, so e^z underflowing turns the value into
    neither NaN nor 0 (phi(1, 2; -800) = (1 - e^-800)/800); and
    e^{-x} phi(a, b; x) for z > 0, whose weight e^{-x} = first * 2**-shift
    is divided out again.  So kummer_m(a, b, z) and e^z kummer_m(b - a, b, -z)
    sum the same terms.  Raises ValueError for arguments that are not
    finite real numbers and for forbidden b (zero or a negative integer),
    and NonConvergenceError, naming a, b and z, for |z| >= _X_MAX, for a
    window past k = _K_MAX or terms past 2^53 times the double range
    (`_window`), for terms that cancel past the sum's rounding bound
    (`_window_sum`), or when the value is not a finite double.
    """
    if any(np.iscomplexobj(v) for v in (a, b, z)) or not all(map(math.isfinite, (a, b, z))):
        raise ValueError(f"arguments must be finite real numbers, got a={a}, b={b}, z={z}")
    nearest = round(b)
    if nearest <= 0 and abs(b - nearest) <= _FORBIDDEN_B_TOL:
        raise ValueError(
            f"second parameter b = {b} is zero or a negative integer (within "
            f"{_FORBIDDEN_B_TOL}); the series is undefined there"
        )
    x, c = abs(z), b - a if z < 0 else a
    try:
        m, e = _window_sum(np.array([float(c)]), np.array([float(b - c)]), x, np.array([float(b)]))
    except NonConvergenceError as err:
        raise NonConvergenceError(f"kummer_m(a={a}, b={b}, z={z}) = ?: {err}") from None
    first, shift = _exp_split(x) if z > 0 else (1.0, 0)
    try:
        value = math.ldexp(m[0] / first, int(e[0]) + shift)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):   # ldexp passes an inf or nan mantissa through
        raise NonConvergenceError(f"kummer_m(a={a}, b={b}, z={z}) = {value}: not a finite double")
    return value
