import math
import re
import time
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mp_reference import mp_scaled_series
from mrenew import NonConvergenceError, hyperg, kummer_m

# Reference value for phi(2, 3; -1), frozen from direct series summation at
# 50 decimal digits (mpmath mpf terms, recurrence term *= (a+k)/(b+k)*z/(k+1)):
#   0.52848223531423071362...  == 2 - 4/e
PHI_2_3_NEG1 = 0.5284822353142307


def _mp_series(a, b, z, dps=50, terms=400):
    """Independent oracle: direct high-precision series summation."""
    with mp.workdps(dps):
        term = mp.mpf(1)
        total = mp.mpf(1)
        for k in range(terms):
            term *= (mp.mpf(a) + k) / (mp.mpf(b) + k) * mp.mpf(z) / (k + 1)
            total += term
        return total


def _float_series(a, b, z, terms=400):
    """The raw Taylor series summed in double precision, as it stands."""
    term = total = 1.0
    for k in range(terms):
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
    return total


def _mp_value_and_condition(a, b, z):
    """phi(a, b; z) and the condition number of the series kummer_m sums, as doubles.

    That series is phi(a, b; z) for z > 0 and e^z phi(b - a, b; -z) for
    z < 0; its condition number is sum |terms| / |sum|.  From the first k
    with c + k > 0 and b + k > 0 on (c its numerator parameter) all terms
    share one sign, so only the terms before it are summed one by one.
    mp.hyp1f1 is taken from 40 digits up, 20 more at a time, until two
    precisions give the same doubles: at 40 digits it is off in the 11th
    digit at (9.002, -213.18, 47.08).  A series summed term by term is
    taken once, at 40 digits.
    """
    c, x = (a, z) if z > 0 else (b - a, -z)
    summed = round(c) <= 0 and abs(c - round(c)) < 1e-20
    last = None
    for dps in range(40, 201, 20):
        with mp.workdps(dps):
            if summed:
                value = mp_scaled_series(mp.mpf(c), mp.mpf(b), mp.mpf(x)) * mp.exp(x)
            else:
                value = mp.hyp1f1(c, b, x)
            term, head, head_abs = mp.mpf(1), mp.mpf(0), mp.mpf(0)
            for k in range(max(0, math.ceil(-c), math.ceil(-b)) + 1):
                head, head_abs = head + term, head_abs + abs(term)
                term *= (c + k) / (mp.mpf(b) + k) * x / (k + 1)
            condition = (head_abs + abs(value - head)) / abs(value)
            now = float(value * mp.exp(min(z, 0))), float(condition)
        if summed or now == last:
            return now
        last = now
    raise AssertionError(f"mp.hyp1f1({c}, {b}, {x}) still moves at 200 digits")


class TestKummerValues:
    def test_unit_at_zero_argument_exactly(self):
        assert kummer_m(0.5, 1.5, 0.0) == 1.0
        # either signed zero, and b - a < 0: the window sum at x = 0 is exactly 1
        for a, b, z in [(0.5, 1.5, -0.0), (5.0, -0.5, 0.0), (5.0, -0.5, -0.0)]:
            assert kummer_m(a, b, z) == 1.0

    def test_phi_1_2_is_expm1_over_z(self):
        assert kummer_m(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_equal_parameters_give_exp(self):
        assert kummer_m(3.0, 3.0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-14)

    def test_frozen_negative_argument_value(self):
        assert kummer_m(2.0, 3.0, -1.0) == pytest.approx(PHI_2_3_NEG1, rel=1e-13)

    @pytest.mark.parametrize("z", [-10.0, -1.0, -0.1, 0.1, 1.0, 10.0])
    def test_phi_1_2_closed_form_sweep(self, z):
        assert kummer_m(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0, 20.0])
    @pytest.mark.parametrize("b", [0.5, 1.5, 7.0, 20.0])
    @pytest.mark.parametrize("z", [-10.0, -3.0, -0.5, 0.5, 3.0, 10.0])
    def test_against_high_precision_series(self, a, b, z):
        # b - a < 0 with z < 0 transforms onto a series whose leading terms
        # still alternate (negative numerator parameter), so a few digits
        # are genuinely lost there; every in-scope caller has b - a > 0
        rel = 1e-12 if (z >= 0 or b - a >= 0) else 1e-7
        reference = float(_mp_series(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=rel)


class TestLargeNegativeArgument:
    # e^z underflows from z ~ -745 on; the window sum keeps the value
    @pytest.mark.parametrize("z", [-700.0, -800.0, -5000.0])
    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.5, 3.5), (2.0, 2.5)])
    def test_against_mpmath(self, a, b, z):
        with mp.workdps(40):
            reference = float(mp.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("a,b,z", [(-1.5, 3.2, -800.0), (-0.5, 2.0, -720.0), (-0.3, 1.1, -5000.0)])
    def test_negative_a_against_mpmath(self, a, b, z):
        # a < 0 < b: the transformed series phi(b - a, b; -z) still has
        # positive terms, so it takes the window sum (e^z * sum gave
        # NaN at z = -800 and inf at z = -720)
        with mp.workdps(40):
            reference = float(mp.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("z", [-9990.0, -2.0e4])
    def test_no_term_cap(self, z):
        # the window holds about 20 sqrt(|z|) terms around the Poisson mode;
        # a series summed from k = 0 needed about |z| + 10 sqrt(|z|) of them
        # and raised at both, past a cap of 10,000 terms
        with mp.workdps(40):
            reference = float(mp.hyp1f1(1, 2, z))
        assert kummer_m(1.0, 2.0, z) == pytest.approx(reference, rel=1e-12)


class TestKummerTransformation:
    @given(
        a=st.floats(min_value=0.5, max_value=20.0),
        b=st.floats(min_value=0.5, max_value=20.0),
        z=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_identity_sweep(self, a, b, z):
        lhs = kummer_m(a, b, z)
        rhs = math.exp(z) * kummer_m(b - a, b, -z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_transformation_beats_direct_summation(self):
        # at z = -30 the raw alternating series has lost most of its digits
        a, b, z = 1.5, 4.5, -30.0
        reference = float(_mp_series(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)
        direct = _float_series(a, b, z)
        assert abs(direct - reference) > abs(kummer_m(a, b, z) - reference)


class TestKummerValidation:
    @pytest.mark.parametrize("b", [0.0, -1.0, -7.0, -3.0 + 5e-13, 1e-13])
    def test_forbidden_b_rejected(self, b):
        with pytest.raises(ValueError):
            kummer_m(1.0, b, 0.5)

    def test_near_integer_b_allowed_outside_tolerance(self):
        assert kummer_m(1.0, -2.5, 0.5) == pytest.approx(float(_mp_series(1.0, -2.5, 0.5)), rel=1e-10)

    @pytest.mark.parametrize("fn", [kummer_m])
    @pytest.mark.parametrize(
        "a,b,z",
        [(math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan),
         (math.inf, 2.0, 1.0), (1.0, 2.0, -math.inf)],
    )
    def test_nonfinite_arguments_rejected(self, fn, a, b, z):
        # rejected before summing: a NaN must not reach the window sum
        with pytest.raises(ValueError, match="must be finite"):
            fn(a, b, z)

    @pytest.mark.parametrize("fn", [kummer_m])
    @pytest.mark.parametrize("a, b, z", [(1j, 2.0, 1.0), (1.0, 2.0 + 0j, 1.0), (1.0, 2.0, complex(-3.0, 1.0))])
    def test_complex_arguments_rejected(self, fn, a, b, z):
        with pytest.raises(ValueError, match="real numbers"):
            fn(a, b, z)

    @pytest.mark.parametrize("a, b, z", [(2.5, 2, -800), (1, 2, 1e6)], ids=["nan", "inf"])
    def test_nonfinite_value_raises(self, a, b, z):
        # only a value past the double range raises: phi(1, 2; 1e6) is about
        # e^1e6.  phi(2.5, 2; -800) once came out as e^-800 (0) times an
        # overflowed sum, NaN; the window sum gives it finite
        with mp.workdps(40):
            reference = mp.hyp1f1(a, b, z)
        if abs(reference) < 1e308:
            assert kummer_m(a, b, z) == pytest.approx(float(reference), rel=1e-12)
        else:
            with pytest.raises(NonConvergenceError, match=re.escape(f"kummer_m(a={a}, b={b}, z={z}) = ")):
                kummer_m(a, b, z)


class TestReachableParameterRanges:
    def test_all_finite_on_closed_form_ranges(self):
        # arguments produced by the closed-form row evaluator with
        # rho <= 50, alpha*s <= 100, i, n <= 20
        for rho in (0.5, 5.0, 50.0):
            for a_s in (0.01, 1.0, 100.0):
                for m in (0, 3, 20):
                    for k in (0, 10, 20):
                        value = kummer_m(m + 1.0, a_s + k + m + 1.0, -rho)
                        assert math.isfinite(value)
                        assert value > 0.0


class TestAgainstMpmath:
    # every argument is one window sum; its error is set by the condition
    # number of that series, not by the sign of a, b or b - a
    @given(
        a=st.floats(min_value=-30.0, max_value=30.0),
        b=st.floats(min_value=-30.0, max_value=30.0),
        log_x=st.floats(min_value=-3.0, max_value=5.0),
        negative=st.booleans(),
    )
    # b far below 0: mp.hyp1f1 at 40 digits gave 0.1670555193257 for 0.16705551933334342
    @example(a=9.002, b=-213.18, log_x=math.log10(47.08), negative=False)
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_sweep(self, a, b, log_x, negative):
        assume(abs(b - round(b)) > 1e-6 or b > 0.5)
        z = -(10.0 ** log_x) if negative else 10.0 ** log_x
        reference, condition = _mp_value_and_condition(a, b, z)
        if not math.isfinite(reference):
            with pytest.raises(NonConvergenceError, match=re.escape(f"kummer_m(a={a}, b={b}, z={z}) = ")):
                kummer_m(a, b, z)
            return
        assume(reference == 0.0 or abs(reference) > 1e-300)
        try:
            value = kummer_m(a, b, z)
        except NonConvergenceError as err:
            # refused where the rounding bound 2^-53 n S of the window's sum may reach it, n = 2 + 4 F
            # + 10 K <= 20 + 14 hi: with the sum itself off by up to that bound, at cond >= 2^53 / (2 n)
            assert "the terms cancel" in str(err)
            c = a if z > 0 else b - a
            hi = hyperg._window(abs(z), c, b - c, b)[1]
            assert condition >= 2.0**53 / (2 * (20 + 14 * hi))
            return
        bound = max(1e-12, 2.0 * 2.0**-52 * condition)
        assert abs(value - reference) <= bound * abs(reference)

    @pytest.mark.parametrize(
        "a, b, z",
        [(2.5, 2.0, -800.0), (1.0, -2.5, -800.0), (20.0, 0.5, -2000.0), (1.0, 2.0, 712.0), (1.0, 1e7, 1e6),
         (-2.0, 1.0, 2e4)],
    )
    def test_named_cases(self, a, b, z):
        # the first three were e^z (0) times a directly summed series that
        # overflowed, NaN; (1, 2, 712) is within a factor 80 of the largest
        # double; the window of (1, 1e7, 1e6) ends where the terms' own
        # ratio x / (b + k) <= 0.1 puts it, far below the Poisson mode;
        # phi(-2, 1; 2e4) is a polynomial, whose window ends at k = 2
        with mp.workdps(40):
            reference = float(mp.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("z", [5e-324, -5e-324])
    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (-3.5, 0.5), (2.0, -2.5)])
    def test_smallest_subnormal_argument(self, a, b, z):
        # every term past the first is 0 or below the smallest double
        with mp.workdps(40):
            reference = float(mp.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-15)

    def test_window_sized_by_the_terms_decay(self, monkeypatch):
        # x / (b + k) <= 0.1 from the first term: about 17 terms reach
        # 2^-53, where the Poisson weights alone would place the window's
        # end near x = 1e6
        windows = []
        real = hyperg._window

        def spy(*args):
            windows.append(real(*args))
            return windows[-1]

        monkeypatch.setattr(hyperg, "_window", spy)
        value = kummer_m(1.0, 1e7, 1e6)
        assert windows and max(hi - lo + 1 for lo, hi, _ in windows) <= 64
        with mp.workdps(40):
            reference = float(mp.hyp1f1(1, 1e7, 1e6))
        assert value == pytest.approx(reference, rel=1e-15)

    def test_value_far_below_the_double_range_is_zero(self):
        # phi(a, a + 1; z) < e^{z a / (a + 1)}
        assert kummer_m(1e7, 1e7 + 1.0, -1e6) == 0.0

    @pytest.mark.parametrize("z", [-2e6, 2e6])
    def test_past_the_exact_exponent_split_raises(self, z):
        # e^{-x} = first * 2**-shift is split exactly only below 2**21 ln 2
        message = f"kummer_m(a=1.0, b={1e8}, z={z}) = ?: Poisson window sum needs x < "
        with pytest.raises(NonConvergenceError, match=re.escape(message)):
            kummer_m(1.0, 1e8, z)


class TestWindowReach:
    """A window reaches k = hyperg._K_MAX at most; one past it is refused before it is searched
    for or summed."""

    @pytest.mark.parametrize(
        "a, b, z, reason",
        [(1e12, 1.0, -1.0, "the terms pass the largest double: |t_1000000| is past 2^1077 e^x"),
         (-1e12, 1.0, 1.0, "the terms pass the largest double: |t_1000000| is past 2^1077 e^x"),
         (1e300, 1.0, 1.0, f"the terms peak past k = {2**21}"),
         (1e308, 1.0, 1e5, f"the terms peak past k = {2**21}")],
        ids=["polynomial-after-transformation", "polynomial", "peak-past-2^53", "peak-past-the-double-range"],
    )
    def test_far_window_refused_quickly(self, a, b, z, reason):
        # a polynomial of degree 1e12 asked numpy for a 7.28 TiB array at
        # once (MemoryError), terms that peak near k = 1e150 kept stepping a
        # j that floats could no longer move, and x a = 1e313 overflowed a
        # numpy scalar (RuntimeWarning), then the peak (OverflowError); the
        # polynomials' terms, about (1e12)^k / k!^2, peak near k = 1e6
        start = time.perf_counter()
        message = f"kummer_m(a={a}, b={b}, z={z}) = ?: {reason}"
        with pytest.raises(NonConvergenceError, match=re.escape(message)):
            kummer_m(a, b, z)
        assert time.perf_counter() - start < 1.0

    def test_cap_is_the_windows_last_term(self, monkeypatch):
        monkeypatch.setattr(hyperg, "_K_MAX", 100)
        # polynomials of degree 100 and 101 whose terms fall from k = 0: their
        # windows end within a few terms, whatever the degree (101 was refused)
        for a in (-100.0, -101.0):
            with mp.workdps(40):
                reference = float(mp.hyp1f1(a, 1, 1e-9))
            assert kummer_m(a, 1.0, 1e-9) == pytest.approx(reference, rel=1e-15)
        for a, b, z, reason in (
                # a polynomial whose terms, about 3000^k / k!^2, peak near k = 55 and fall
                # below 2^-53 of their peak only past k = 100
                (-3000.0, 1.0, 1.0, "Poisson window reaches past"),
                # the terms peak near k = 90, and the window ends at 184
                (1.0, 2.0, 90.0, "Poisson window reaches past"),
                (1.0, 2.0, 200.0, "the terms peak past")):
            with pytest.raises(NonConvergenceError, match=re.escape(f"{reason} k = 100")):
                kummer_m(a, b, z)


class TestRoundingBound:
    """One series whose terms cancel past the rounding bound of their sum is refused; within it,
    the value is answered."""

    @pytest.mark.parametrize("a, b, z, was", [(-1000.5, 2.0, 1.0, -4.56e7), (-9999.7, 2.0, 10.0, -2.31e251),
                                               (-100.5, 2.0, 50.0, -1.78e32), (-40.0, 200.0, 90.0, -1.03e-11),
                                               (-40.5, 200.0, 90.0, 2.47e-15)])
    def test_cancelling_series_refused(self, a, b, z, was):
        # each returned `was`, off by more than half the value; condition numbers 1.8e27 to 5.5e270
        reference, condition = _mp_value_and_condition(a, b, z)
        assert condition > 2.0**53 and abs(was - reference) > 0.5 * abs(reference)
        message = f"kummer_m(a={a}, b={b}, z={z}) = ?: the terms cancel: their sizes pass 2^53 / "
        with pytest.raises(NonConvergenceError, match=re.escape(message)):
            kummer_m(a, b, z)

    @pytest.mark.parametrize("a, b, z", [(20.0, 0.5, -10.0), (-20.5, 3.0, 30.0)])
    def test_ill_conditioned_series_within_the_bound_answered(self, a, b, z):
        # condition numbers 8.6e7 (criterion 6's worst case) and 1.4e10
        reference, condition = _mp_value_and_condition(a, b, z)
        assert condition > 1e7
        assert abs(kummer_m(a, b, z) - reference) <= 2.0 * 2.0**-52 * condition * abs(reference)


class TestHugeParameters:
    """Parameters up to the largest double: rising factorials past hyperg._K_MAX from
    Stirling's series, steps of the window sum that never overflow, and no inf or nan
    out of kummer_m."""

    @pytest.mark.parametrize("a", [1e16, 1e17, 1e18, 1e20, 1e40, 1e155])
    def test_large_first_parameter_against_the_series(self, a):
        # phi(a, 1; 1e5 / a) ~ I_0(2 sqrt(1e5)) = 7.4547e272: lgamma(a + k) differenced
        # at a = 1e20 (ulp about 1e6) ended the window at k = 316 of about 430, and
        # two factors of 2^515 in one step overflowed at a = 1e155
        z = 1e5 / a
        reference = float(_mp_series(a, 1.0, z, terms=1000))
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kummer_m(a, 1.0, z)
        assert time.perf_counter() - start < 1.0
        assert value == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("a, b, z", [(1e160, 1e160, 1.0), (1e-300, 1e308, 1e6)])
    def test_parameters_whose_squares_overflow(self, a, b, z):
        # e and about 1: the peak's quadratic is solved scaled, and lgamma(1e308) is not formed.
        # The series summed is exact to double at both: the sum of 1 / k!, and 1 plus a k = 1
        # term a z / b = 1e-602 and smaller ones (mp.hyp1f1 took seconds there)
        reference = float(_mp_series(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("a, z", [(1e200, 1e-190), (1e308, 1e-300)])
    def test_value_past_the_largest_double_refused_quickly(self, a, z):
        # about e^{2 sqrt(a z)}, past the double range: the largest term tells, before any sum
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError,
                               match=re.escape(f"kummer_m(a={a}, b=1.0, z={z}) = ?: the terms pass the largest")):
                kummer_m(a, 1.0, z)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("a, b, z", [(-7.19e89, -16.47, -3.17e-78), (-1e308, 1.0, 1e-300)])
    def test_terms_past_the_double_range_refused_for_any_sign(self, a, b, z):
        # c = b - a = 7.19e89 and b = -16.47: terms that peak near k = 1.5e6 at about
        # e^{3e6} were summed a step of three factors at a time, still running after 5 s;
        # a polynomial of degree 1e308, whose term sizes are read without lgamma(1e308)
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError,
                           match=re.escape(f"kummer_m(a={a}, b={b}, z={z}) = ?: the terms pass the largest double")):
            kummer_m(a, b, z)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("a, b, z, reference", [(-1040153.655, 10.71, 5.42e-22, 0.99999999999999994736),
                                                    (-3e6, 1.0, 1e-9, 0.99700224924939135766)])
    def test_negative_parameter_window_ends_where_the_terms_fall(self, a, b, z, reference):
        # the first summed a window past k = -a (2.0 s), the second, a polynomial of
        # degree past 2^21, was refused; their terms fall from k = 0, about (x |a|)^k / k!^2
        start = time.perf_counter()
        value = kummer_m(a, b, z)
        assert time.perf_counter() - start < 0.1
        assert abs(value - reference) <= 1e-15

    @pytest.mark.parametrize("mantissa", [math.inf, math.nan])
    def test_no_inf_or_nan_returned(self, mantissa, monkeypatch):
        # math.ldexp raises nothing for an inf or nan mantissa
        monkeypatch.setattr(hyperg, "_window_sum", lambda *args: (np.array([mantissa]), np.array([0])))
        with pytest.raises(NonConvergenceError, match=re.escape("kummer_m(a=1.0, b=2.0, z=-1.0) = ")):
            kummer_m(1.0, 2.0, -1.0)


def _running_product_by_tails(factors):
    """`hyperg._running_product` as it was first written: each block's last shift added to every
    later exponent, the whole tail, so that n factors took n^2 / 1024 additions."""
    mantissas, exponents = np.frexp(factors)
    exponents = np.cumsum(exponents, axis=-1)
    for lo in range(0, mantissas.shape[-1], hyperg._PRODUCT_BLOCK):
        block = mantissas[..., lo:lo + hyperg._PRODUCT_BLOCK]
        if lo:
            block[..., 0] *= mantissas[..., lo - 1]
            exponents[..., lo:] += shift[..., -1:]
        np.cumprod(block, axis=-1, out=block)
        shift = np.frexp(block, out=(block, None))[1]
        exponents[..., lo:lo + hyperg._PRODUCT_BLOCK] += shift
    return mantissas, exponents


class TestLinearCost:
    """A window sum costs time linear in its window and in the factors of its start product:
    the running product carries one shift per row from block to block, and the terms below
    k1 are one array."""

    # the first block starts from the identity, and no factors give no products: a window whose
    # first term is its mode has an empty lower product
    @pytest.mark.parametrize("shape", [(2**20 + 3,), (3, 5 * 512 + 7), (0,), (1,), (513,)])
    def test_running_product_bits_are_the_tail_loops(self, shape):
        # factors of every binade, so that the exponents run both up and down
        rng = np.random.default_rng(20)
        factors = np.ldexp(rng.uniform(0.5, 1.0, shape), rng.integers(-1021, 1025, shape))
        start = time.perf_counter()
        m, e = hyperg._running_product(factors)
        assert time.perf_counter() - start < 0.25
        m_ref, e_ref = _running_product_by_tails(factors)
        assert e.dtype == e_ref.dtype
        assert m.tobytes() == m_ref.tobytes() and e.tobytes() == e_ref.tobytes()

    @pytest.mark.parametrize("a, b, z", [(2.5e204, -1534304.48, -1.59e-264), (-9.4e215, -2085543.53, 9.69e-223),
                                         (4.05e51, -916494.7, 1.16e-98)])
    def test_start_products_of_a_million_factors(self, a, b, z):
        # k1 past hi: 1.5e6, 2.1e6 and 9.2e5 terms below k1, and no step.  They took 1.3 to 7 s, in
        # the tail loops and one array per term.  Each value is 1 + a z / b to double
        start = time.perf_counter()
        value = kummer_m(a, b, z)
        assert time.perf_counter() - start < 1.5
        assert value == pytest.approx(float(_mp_series(a, b, z)), rel=1e-15)

    def test_start_product_of_a_non_integer_q(self):
        # b - c = 0.5 at x = 1e6: R(k1) is a product of about 1e6 factors, which took 0.5 s
        start = time.perf_counter()
        value = kummer_m(0.5, 3.5, -1e6)
        assert time.perf_counter() - start < 0.3
        with mp.workdps(40):
            assert value == pytest.approx(float(mp.hyp1f1(0.5, 3.5, -1e6)), rel=1e-12)


def _padded_weights(x, lo, hi, mode):
    """`hyperg._poisson_weights` from lo > 0 as first written: both sides as the two rows of one
    running product, the shorter padded with ones."""
    ratios = np.ones((2, max(mode - lo, hi - mode)))
    ratios[0, :mode - lo] = np.arange(mode, lo, -1.0) / x
    ratios[1, :hi - mode] = x / np.arange(mode + 1.0, hi + 1.0)
    m, e = hyperg._running_product(ratios)
    w_m = np.concatenate([np.flip(m[0, :mode - lo]), [1.0], m[1, :hi - mode]])
    w_e = np.concatenate([np.flip(e[0, :mode - lo]), [0], e[1, :hi - mode]])
    return w_m, w_e, np.ldexp(w_m, w_e).sum()


class TestPoissonWeights:
    @pytest.mark.parametrize("window", [
        (2000.0, 0.5, 3.0), (1e5, 1e-4, 301.0), (300.0, 1.0, 61.0), (1e6, 0.5, 3.0, 3.5)])
    def test_two_products_are_the_padded_rows(self, window):
        # windows from lo > 0 with uneven sides, the longer below or above the mode, over one
        # block or many
        x = window[0]
        lo, hi, mode = hyperg._window(*window)
        assert 0 < lo and mode - lo != hi - mode
        weights = hyperg._poisson_weights(x, lo, hi, mode)
        for got, ref in zip(weights, _padded_weights(x, lo, hi, mode)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_window_from_its_mode(self):
        w_m, w_e, weight = hyperg._poisson_weights(50.5, 50, 80, 50)
        assert w_m[0] == 1.0 and w_e[0] == 0 and len(w_m) == 31
        for got, ref in zip((w_m, w_e, weight), _padded_weights(50.5, 50, 80, 50)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


class TestPolynomialWindow:
    def test_window_ends_at_the_tail_bound(self):
        # degree 2e6: the window ended at k = 2e6 and took 6 s; the terms fall like (2e-3)^k / k!^2
        start = time.perf_counter()
        value = kummer_m(-2e6, 1.0, 1e-9)
        assert time.perf_counter() - start < 0.1
        assert value == pytest.approx(0.99800099977730588646, rel=1e-12)

    @pytest.mark.parametrize("a, b, z", [(-30.0, 1.0, 5.0), (-200.0, 3.5, 0.01), (5.5, 0.5, -3.0),
                                         (-12.0, -3.5, 10.0), (-7.0, -7.5, 2.0)])
    def test_against_mpmath(self, a, b, z):
        # a window that ends at k = 12, before the degree; at the degree, for -30,
        # for phi(-5, 0.5; 3) after Kummer's transformation and for -12; and a
        # degree below the first k with b + k > 0
        reference, condition = _mp_value_and_condition(a, b, z)
        bound = max(1e-12, 2.0 * 2.0**-52 * condition)
        assert abs(kummer_m(a, b, z) - reference) <= bound * abs(reference)

    @pytest.mark.parametrize("a, b, z", [(-2.0, -1e7 - 0.5, 1.0), (-1.0, -3e6 - 0.5, 2.0),
                                         (-3.0, -2.5e6 - 0.25, 40.0)])
    def test_degree_before_a_start_past_the_cap(self, a, b, z):
        # the first k with b + k > 0 lies past k = 2^21, where the tail bound
        # starts, but the terms end at the degree: these raised "the terms
        # peak past k = 2097152" for 1.0000002 and 1.0000006666665555
        n = int(-a)
        term, exact = Fraction(1), Fraction(1)
        for k in range(n):
            term *= (Fraction(a) + k) / (Fraction(b) + k) * Fraction(z) / (k + 1)
            exact += term
        assert kummer_m(a, b, z) == pytest.approx(float(exact), rel=2.0**-51, abs=0.0)

    def test_degree_past_the_cap_still_refused(self):
        message = f"kummer_m(a=-3000000.0, b=-10000000.5, z=1.0) = ?: Poisson window reaches past k = {2**21}"
        with pytest.raises(NonConvergenceError, match=re.escape(message)):
            kummer_m(-3e6, -1e7 - 0.5, 1.0)
