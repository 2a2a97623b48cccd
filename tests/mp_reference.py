"""mpmath references shared by the test modules."""

import math

import mpmath as mp


def mp_scaled_series(c, b, x):
    """e^{-x} phi(c, b; x) at the working precision, summed term by term over a window.

    The one mpmath reference for such a sum, for `kummer_m`'s series and
    the closed form's.  mp.hyp1f1 drops the part of phi proportional to a
    c within about 1e-20 of zero or of a negative integer:
    phi(1.36e-61, -3.5; 100) is 1 + 9.5e-12, where mp.hyp1f1 gives 1 at 40
    digits, and e^{-x} phi(9.47e-204, 9.47e-204 + 61; 731.8) is 1.6086e-296,
    where it gives e^{-x} alone, 1.525e-318.  As a double, such a c is a
    non-positive integer, whose terms are 0 past k = -c, or lies within
    1e-20 of 0.

    The terms t_k are summed for k below k0, the first k with c + k > 0
    and b + k > 0, and over lo..hi around the Poisson mode x, lo = max(k0,
    x - 30 sqrt(x) - 100) and hi = x + 30 sqrt(x) + 100; t_lo is t_k0 times
    a gamma ratio.  From k0 on the terms share one sign, and t_{k+1} / t_k
    = x (c+k) / ((k+1)(b+k)) is at least 1 just where the concave
    f(k) = x (c+k) - (k+1)(b+k) is at least 0: with lo - 1 not past f's
    upper root (checked), no term between k0 and lo is larger than both
    t_k0 and t_lo, so the lo - k0 terms left out below lo are at most
    (lo - k0) max(|t_k0|, |t_lo|), checked to be below 1e-50 of the
    window's sum.  Past hi, 30 sqrt(x) + 100 past the mode, the ratio is
    below 1 and the Poisson weights have fallen from the mode by about
    e^-420 or more, against a gain of (c)_k / (b)_k of at most (hi / x)^30
    (c - b <= 30 for every series summed here), so the terms past hi are
    far below the 40 digits too.
    """
    k0 = max(0, math.floor(-c) + 1, math.floor(-b) + 1)
    lo, hi = max(k0, int(x - 30.0 * math.sqrt(x)) - 100), int(x + 30.0 * math.sqrt(x)) + 100
    term, total = mp.exp(-x), mp.mpf(0)
    for k in range(k0):
        total += term
        term *= x * (c + k) / ((b + k) * (k + 1))
    if term == 0:   # a polynomial: every later term is 0 too
        return total
    first = term
    term *= x ** (lo - k0) * mp.gammaprod([c + lo, k0 + 1, b + k0], [c + k0, lo + 1, b + lo])
    left_out = (lo - k0) * max(abs(first), abs(term))
    # lo - 1 where f >= 0 or below f's vertex, so not past its upper root
    assert lo == k0 or x * (c + lo - 1) >= lo * (b + lo - 1) or lo - 1 <= (x - b - 1) / 2
    window = mp.mpf(0)
    for k in range(lo, hi):
        window += term
        term *= x * (c + k) / ((b + k) * (k + 1))
    assert left_out <= mp.mpf(10) ** -50 * abs(window)
    return total + window
