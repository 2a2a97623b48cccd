import math
import re

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrenew import NonConvergenceError, kummer_m

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
    """phi(a, b; z) at 40 digits and the condition number of the series kummer_m sums.

    That series is phi(a, b; z) for z > 0 and e^z phi(b - a, b; -z) for
    z < 0; its condition number is sum |terms| / |sum|.  From the first k
    with c + k > 0 and b + k > 0 on (c its numerator parameter) all terms
    share one sign, so only the terms before it are summed one by one.
    """
    c, x = (a, z) if z > 0 else (b - a, -z)
    with mp.workdps(40):
        value = mp.hyp1f1(c, b, x)
        term, head, head_abs = mp.mpf(1), mp.mpf(0), mp.mpf(0)
        for k in range(max(0, math.ceil(-c), math.ceil(-b)) + 1):
            head, head_abs = head + term, head_abs + abs(term)
            term *= (c + k) / (mp.mpf(b) + k) * x / (k + 1)
        condition = (head_abs + abs(value - head)) / abs(value)
        return float(value * mp.exp(min(z, 0))), float(condition)


class TestKummerValues:
    def test_unit_at_zero_argument_exactly(self):
        assert kummer_m(0.5, 1.5, 0.0) == 1.0

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
    # e^z underflows from z ~ -745 on; the scaled series keeps the value
    @pytest.mark.parametrize("z", [-700.0, -800.0, -5000.0])
    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.5, 3.5), (2.0, 2.5)])
    def test_against_mpmath(self, a, b, z):
        with mp.workdps(40):
            reference = float(mp.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("a,b,z", [(-1.5, 3.2, -800.0), (-0.5, 2.0, -720.0), (-0.3, 1.1, -5000.0)])
    def test_negative_a_against_mpmath(self, a, b, z):
        # a < 0 < b: the transformed series phi(b - a, b; -z) still has
        # positive terms, so it takes the scaled series (e^z * sum gave
        # NaN at z = -800 and inf at z = -720)
        with mp.workdps(40):
            reference = float(mp.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)

    def test_beyond_the_term_cap_raises(self):
        # the transformed series needs about |z| terms
        with pytest.raises(NonConvergenceError):
            kummer_m(1.0, 2.0, -2.0e4)


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
        # rejected before summing: a NaN must not run all MAX_TERMS terms
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
        # overflowed sum, NaN; the scaled series gives it finite
        with mp.workdps(40):
            reference = mp.hyp1f1(a, b, z)
        if abs(reference) < 1e308:
            assert kummer_m(a, b, z) == pytest.approx(float(reference), rel=1e-12)
        else:
            with pytest.raises(NonConvergenceError, match=re.escape(f"kummer_m(a={a}, b={b}, z={z}) = ")):
                kummer_m(a, b, z)

    def test_nonconvergence_carries_residual(self):
        with pytest.raises(NonConvergenceError, match=re.escape("kummer_m(a=1.0, b=2.0, z=-9990.0)")) as err:
            # the ratio bound falls below 1 within the term cap, but the
            # terms have not yet fallen within the tolerance there
            kummer_m(1.0, 2.0, -9990.0)
        assert err.value.residual is not None


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
    # every argument is summed by one scaled series; its error is set by the
    # condition number of that series, not by the sign of a, b or b - a
    @given(
        a=st.floats(min_value=-30.0, max_value=30.0),
        b=st.floats(min_value=-30.0, max_value=30.0),
        log_x=st.floats(min_value=-3.0, max_value=math.log10(5000.0)),
        negative=st.booleans(),
    )
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
        bound = max(1e-12, 2.0 * 2.0**-52 * condition)
        assert abs(kummer_m(a, b, z) - reference) <= bound * abs(reference)

    @pytest.mark.parametrize(
        "a, b, z",
        [(2.5, 2.0, -800.0), (1.0, -2.5, -800.0), (20.0, 0.5, -2000.0), (1.0, 2.0, 712.0), (1.0, 1e7, 1e6),
         (-2.0, 1.0, 2e4)],
    )
    def test_named_cases(self, a, b, z):
        # the first three were e^z (0) times a directly summed series that
        # overflowed, NaN; (1, 2, 712) is within a factor 80 of the largest
        # double; (1, 1e7, 1e6) converges only by the ratio bound
        # x / (b + k), with x far above the term cap; phi(-2, 1; 2e4) is a
        # polynomial, whose series ends with no ratio bound below 1
        with mp.workdps(40):
            reference = float(mp.hyp1f1(a, b, z))
        assert kummer_m(a, b, z) == pytest.approx(reference, rel=1e-12)

    def test_value_far_below_the_double_range_is_zero(self):
        # phi(a, a + 1; z) < e^{z a / (a + 1)}
        assert kummer_m(1e7, 1e7 + 1.0, -1e6) == 0.0

    @pytest.mark.parametrize("z", [-2e6, 2e6])
    def test_past_the_exact_exponent_split_raises(self, z):
        # e^{-x} = first * 2**-shift is split exactly only below 2**21 ln 2
        message = f"kummer_m(a=1.0, b={1e8}, z={z}) = ?: scaled Kummer series needs x < "
        with pytest.raises(NonConvergenceError, match=re.escape(message)):
            kummer_m(1.0, 1e8, z)
