import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrenew import (
    MMInfinityKernel,
    QueueParams,
    generating_function,
    rbar_closed_form,
    solve_row_adaptive,
    solve_rows,
)
from mrenew import crosscheck
from mrenew.closedform import ode_residual, tbar_from_rbar

UNIT = QueueParams(1.0, 1.0)
PURE_DEATH = QueueParams(0.0, 1.0)


class TestScaling:
    def test_forward_example(self):
        assert tbar_from_rbar(0, 1.0, 1.0, PURE_DEATH) == pytest.approx(1.0, rel=1e-15)

    def test_zero_maps_to_zero(self):
        assert tbar_from_rbar(3, 2.0, 0.0, UNIT) == 0.0


class TestGeneratingFunction:
    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_boundary_value_at_one(self, s, lam):
        p = QueueParams(lam, 1.0)
        for i in range(11):
            assert abs(generating_function(i, 1.0, s, p) - 1.0 / s) <= 1e-12

    def test_constant_solution_without_arrivals(self):
        # rho = 0, i = 0: y == 1/s solves the equation exactly
        for x in (-0.9, 0.0, 0.5, 1.0):
            assert generating_function(0, x, 2.0, PURE_DEATH) == pytest.approx(0.5, rel=1e-14)

    def test_power_series_of_oracle_row(self):
        # y_1(0.5) must equal sum_k tbar[1,k] * 0.5^k with tbar from the
        # adaptively solved transform row
        i, x, s = 1, 0.5, 1.0
        row = solve_row_adaptive(i, s, MMInfinityKernel(UNIT))
        tail = [
            tbar_from_rbar(n, s, float(v), UNIT) * x**n for n, v in enumerate(row.values)
        ]
        assert generating_function(i, x, s, UNIT) == pytest.approx(math.fsum(tail), abs=1e-8)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            generating_function(0, 1.5, 1.0, UNIT)
        with pytest.raises(ValueError):
            generating_function(0, -1.0, 1.0, UNIT)
        with pytest.raises(ValueError):
            generating_function(0, 0.5, 0.0, UNIT)
        with pytest.raises(ValueError):
            generating_function(-1, 0.5, 1.0, UNIT)
        for s in (math.nan, math.inf, complex(1.0, 2.0), np.complex128(1.0)):
            with pytest.raises(ValueError, match="transform variable"):
                generating_function(1, 0.5, s, UNIT)


def _integral_reference(i, x, s, p):
    """40-digit alpha * int_0^1 t^(a-1) (1 - (1-x) t)^i e^(-rho (1-x)(1-t)) dt.

    Substituting t = u^(1/a) removes the t^(a-1) endpoint singularity that
    mpmath's quadrature resolves poorly for small a = alpha s.
    """
    with mp.workdps(40):
        a = mp.mpf(p.alpha) * mp.mpf(s)
        x = mp.mpf(x)
        z = mp.mpf(p.rho) * (1 - x)

        def integrand(u):
            t = u ** (1 / a)
            return (1 - (1 - x) * t) ** i * mp.exp(-z * (1 - t))

        return float(p.alpha / a * mp.quad(integrand, [0, 0.5, 1]))


class TestGeneratingFunctionIntegral:
    @pytest.mark.parametrize(
        "rho,i,x,s",
        [(60.0, 15, 0.0, 2.0), (60.0, 15, 0.5, 0.3), (60.0, 15, -0.5, 2.0),
         (5.0, 8, -0.5, 1.0), (200.0, 30, 0.9, 0.05), (0.5, 3, 0.25, 5.0),
         (1000.0, 10, 0.2, 1e-3)],
    )
    def test_matches_mpmath_quadrature(self, rho, i, x, s):
        # the alternating k-sum read -2.5e-13 for 3.4e-17 at the first case
        p = QueueParams(rho, 1.0)
        reference = _integral_reference(i, x, s, p)
        assert generating_function(i, x, s, p) == pytest.approx(reference, rel=1e-12)


class TestOdeResidual:
    def test_exact_solution_gives_zero_residual(self):
        assert abs(ode_residual(0, 0.5, 1.0, PURE_DEATH, h=1e-4)) <= 1e-10

    def test_forced_zero_function_leaves_forcing_term(self):
        p = QueueParams(1.0, 2.0)
        res = ode_residual(2, 0.5, 1.0, p, h=1e-4, y_fn=lambda u: 0.0)
        assert res == pytest.approx(2.0 * 0.5**2, rel=1e-15)

    def test_small_residual_at_fine_step(self):
        assert abs(ode_residual(3, 0.3, 1.0, UNIT, h=1e-4)) <= 1e-6

    def test_second_order_decay_in_h(self):
        coarse = abs(ode_residual(3, 0.3, 1.0, UNIT, h=2e-3))
        fine = abs(ode_residual(3, 0.3, 1.0, UNIT, h=1e-3))
        assert coarse > 1e-12
        assert coarse / fine >= 3.0

    def test_stencil_domain_enforced(self):
        with pytest.raises(ValueError):
            ode_residual(0, 0.99999, 1.0, UNIT, h=1e-4)


class TestClosedFormRow:
    def test_identity_when_no_arrivals(self):
        assert rbar_closed_form(0, 0, 2.0, PURE_DEATH) == pytest.approx(1.0, rel=1e-15)

    def test_matches_oracle_diagonal(self):
        reference = float(solve_row_adaptive(0, 1.0, MMInfinityKernel(UNIT)).values[0])
        value = rbar_closed_form(0, 0, 1.0, UNIT)
        assert value == pytest.approx(reference, rel=1e-6)

    def test_matches_oracle_off_diagonal(self):
        p = QueueParams(0.5, 1.0)
        reference = float(solve_row_adaptive(2, 2.0, MMInfinityKernel(p)).values[1])
        value = rbar_closed_form(2, 1, 2.0, p)
        assert value == pytest.approx(reference, rel=1e-6)

    def test_pure_death_row_values(self):
        # row i = 2 at s = 1: [1/3, 2/3, 1, 0, ...]
        expected = [1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0, 0.0]
        for n, want in enumerate(expected):
            assert rbar_closed_form(2, n, 1.0, PURE_DEATH) == pytest.approx(want, abs=1e-12)
        # rows i = 3..5 at s = 1: (n + a) C(i,n) B(a+n, i-n+1) = (n + 1) / (i + 1), then 0
        for i in range(3, 6):
            for n in range(i + 3):
                want = (n + 1) / (i + 1) if n <= i else 0.0
                assert rbar_closed_form(i, n, 1.0, PURE_DEATH) == pytest.approx(want, abs=1e-12)

    def test_identity_limit_at_large_s(self):
        s = 1e4
        for i in range(3):
            for n in range(3):
                value = rbar_closed_form(i, n, s, UNIT)
                assert abs(value - (1.0 if i == n else 0.0)) <= 1e-3

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            rbar_closed_form(0, 0, 0.0, UNIT)
        with pytest.raises(ValueError):
            rbar_closed_form(-1, 0, 1.0, UNIT)
        with pytest.raises(ValueError):
            rbar_closed_form(0, -1, 1.0, UNIT)
        for s in (math.nan, math.inf, complex(1.0, 2.0), np.complex128(1.0)):
            with pytest.raises(ValueError, match="transform variable"):
                rbar_closed_form(1, 2, s, UNIT)


def _oracle(i, n, s, p):
    return float(solve_rows(i, n, [s], MMInfinityKernel(p)).values.real[0])


def _assert_criterion_4(value, reference):
    # criterion 4: 1e-6 relative with a 1e-9 absolute floor
    assert math.isfinite(value)
    assert abs(value - reference) <= max(1e-6 * abs(reference), 1e-9)


def _mp_closed_form(i, n, s, p):
    """rbar[i][n](s) by the module docstring's j-sum in 40-digit mpmath."""
    with mp.workdps(40):
        a = mp.mpf(p.alpha) * mp.mpf(s)
        rho = mp.mpf(p.rho)
        total = mp.mpf(0)
        for j in range(min(i, n) + 1):
            q = i + n - 2 * j + 1
            total += (mp.binomial(i, j) * rho ** (n - j) / mp.factorial(n - j) * mp.beta(a + j, q)
                      * mp.exp(-rho) * mp.hyp1f1(a + j, a + j + q, rho))
        return (n + rho + a) * total


class TestClosedFormDefects:
    @pytest.mark.parametrize("s", [1e-10, 1e-8, 1e-6, 1e-4])
    def test_small_s_keeps_the_dominant_weight(self, s):
        # 1 / (a_s + j - 1) at j = 1 rounded a_s + 1 first, so the entry,
        # about 1/s, was off by eps/s relative (8.3e-8 at s = 1e-10)
        reference = _mp_closed_form(3, 2, s, UNIT)
        assert abs(rbar_closed_form(3, 2, s, UNIT) - reference) <= 1e-13 * abs(reference)

    def test_large_start_state_does_not_cancel(self):
        # the alternating k-sum returned -0.0021 here
        p = QueueParams(50.0, 1.0)
        _assert_criterion_4(rbar_closed_form(30, 5, 1.0, p), _oracle(30, 5, 1.0, p))

    def test_far_target_does_not_overflow(self):
        # rho**200 raised a bare OverflowError
        p = QueueParams(50.0, 1.0)
        _assert_criterion_4(rbar_closed_form(0, 200, 1.0, p), _oracle(0, 200, 1.0, p))

    @pytest.mark.parametrize("i,n", [(0, 0), (3, 3), (5, 100), (20, 2)])
    def test_rho_800(self, i, n):
        # e^-800 underflowed, giving NaN or 0.0
        p = QueueParams(800.0, 1.0)
        value = rbar_closed_form(i, n, 1.0, p)
        assert value > 0.0
        _assert_criterion_4(value, _oracle(i, n, 1.0, p))

    @pytest.mark.parametrize("i,n", [(30, 300), (30, 3), (3, 30)])
    def test_tiny_rho_stays_finite(self, i, n):
        # a step ratio carrying 1/rho overflowed to inf at rho = 1e-300
        p = QueueParams(1e-300, 1.0)
        _assert_criterion_4(rbar_closed_form(i, n, 1e6, p), _oracle(i, n, 1e6, p))


class TestClosedFormAgainstOracle:
    # the range the README states as proved
    @given(
        i=st.integers(min_value=0, max_value=30),
        n=st.integers(min_value=0, max_value=300),
        rho=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2000.0)),
        s=st.floats(min_value=1e-4, max_value=1e3),
        alpha=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_oracle(self, i, n, rho, s, alpha):
        p = QueueParams(rho / alpha, alpha)
        _assert_criterion_4(rbar_closed_form(i, n, s, p), _oracle(i, n, s, p))

    @given(
        pair=st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30)),
        s=st.floats(min_value=1e-4, max_value=1e3),
        alpha=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_pure_death_matches_oracle(self, pair, s, alpha):
        # rho = 0 with n <= i, where the entry is the single term j = n
        n, i = sorted(pair)
        p = QueueParams(0.0, alpha)
        _assert_criterion_4(rbar_closed_form(i, n, s, p), _oracle(i, n, s, p))


class TestCrossCheck:
    def test_reports_where_the_worst_occurred(self):
        worst, where = crosscheck.closed_form_vs_oracle((0, 2), (0.5, 2.0), (1.0, 3.0))
        assert set(where) == {"i", "n", "s", "rho"}
        p = QueueParams(where["rho"], 1.0)
        reference = float(solve_row_adaptive(where["i"], where["s"], MMInfinityKernel(p)).values[where["n"]])
        value = rbar_closed_form(where["i"], where["n"], where["s"], p)
        assert worst == abs(value - reference) / max(abs(reference), 1e-3)

    def test_nan_fails_instead_of_passing(self, monkeypatch):
        # a NaN entry must not read as agreement
        real = crosscheck.rbar_closed_form
        monkeypatch.setattr(
            crosscheck, "rbar_closed_form",
            lambda i, n, s, p: math.nan if (i, n) == (1, 0) else real(i, n, s, p),
        )
        worst, where = crosscheck.closed_form_vs_oracle((0, 1), (1.0,), (1.0,))
        assert math.isnan(worst) and not worst <= 1e-6
        assert (where["i"], where["n"]) == (1, 0)


def _taylor_coefficients(fn, n_max, radius=0.5, degree=32):
    """Taylor coefficients at 0 via Chebyshev interpolation of fn on
    [-radius, radius] followed by repeated differentiation of the fit."""
    nodes = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)) * radius
    values = [fn(x) for x in nodes]
    fit = np.polynomial.chebyshev.Chebyshev.fit(nodes, values, degree, domain=[-radius, radius])
    coefficients = []
    current = fit
    for n in range(n_max + 1):
        coefficients.append(current(0.0) / math.factorial(n))
        current = current.deriv()
    return coefficients


class TestCoefficientConsistency:
    @pytest.mark.parametrize(
        "i,s,lam", [(0, 1.0, 1.0), (1, 1.0, 1.0), (3, 0.5, 2.0), (2, 5.0, 0.5)]
    )
    def test_taylor_coefficients_match_scaled_oracle_row(self, i, s, lam):
        p = QueueParams(lam, 1.0)
        extracted = _taylor_coefficients(lambda x: generating_function(i, x, s, p), 5)
        row = solve_row_adaptive(i, s, MMInfinityKernel(p))
        for n in range(6):
            reference = tbar_from_rbar(n, s, float(row.values[n]), p)
            assert extracted[n] == pytest.approx(reference, abs=1e-6)
