import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mp_reference import mp_scaled_series
from mrenew import (
    MMInfinityKernel,
    QueueParams,
    generating_function,
    rbar_closed_form,
    solve_row_adaptive,
    solve_rows,
)
from mrenew import NonConvergenceError, cli, crosscheck, hyperg
from mrenew.closedform import ode_residual

UNIT = QueueParams(1.0, 1.0)
PURE_DEATH = QueueParams(0.0, 1.0)


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
        # y_1(0.5) must equal sum_k tbar[1,k] * 0.5^k with the scaled entries
        # tbar = alpha * rbar / (k + rho + alpha s) of the adaptively solved row
        i, x, s, p = 1, 0.5, 1.0, UNIT
        row = solve_row_adaptive(i, s, MMInfinityKernel(p))
        tail = [p.alpha * float(v) / (n + p.rho + p.alpha * s) * x**n for n, v in enumerate(row.values)]
        assert generating_function(i, x, s, p) == pytest.approx(math.fsum(tail), abs=1e-8)

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

    def test_states_must_be_integers(self):
        # 1.5 gave 0.794, between no two entries of the row
        p = QueueParams(2.0, 1.0)
        for i, n in [(1.5, 1), (1, 1.5)]:
            with pytest.raises(TypeError):
                rbar_closed_form(i, n, 1.0, p)
        with pytest.raises(TypeError):
            generating_function(1.5, 0.5, 1.0, p)
        assert rbar_closed_form(np.int64(1), np.int64(1), 1.0, p) == rbar_closed_form(1, 1, 1.0, p)

    def test_s_without_a_finite_reciprocal_rejected(self):
        # 1 / (alpha s) is a weight factor: past the double range it made the entry inf
        for i, n, s, p in [(0, 39, 1e-320, QueueParams(751.7, 0.634)), (3, 2, 1e-320, UNIT),
                           (0, 0, 1e-308, QueueParams(1.0, 0.5))]:
            with pytest.raises(ValueError, match="transform variable"):
                rbar_closed_form(i, n, s, p)
        with pytest.raises(ValueError, match="transform variable"):
            generating_function(2, 1.0, 1e-320, UNIT)
        # just inside the range the entry is finite: rbar_00 = (1 + a) e^-1 phi(a, a+1; 1) / a
        assert rbar_closed_form(0, 0, 1e-300, UNIT) == pytest.approx(math.exp(-1.0) * 1e300, rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_s_whose_alpha_s_is_past_the_largest_double_rejected(self):
        # numpy warned of an overflow in alpha * s, and the entry, 0 to double
        # precision, was reported as inf past the largest double
        p = QueueParams(1e-300, 1e300)
        message = r"alpha s and 1/\(alpha s\) finite, got s=.* with alpha=1e\+300$"
        for s in (1e10, np.array([1.0, 1e10])):
            with pytest.raises(ValueError, match=message):
                rbar_closed_form(3, 2, s, p)
        with pytest.raises(ValueError, match=message):
            generating_function(2, 0.5, 1e10, p)
        # just inside the range the entry is answered: 0 to double precision
        assert rbar_closed_form(3, 2, 1e8, p) == 0.0


class TestClosedFormGrid:
    """An array of abscissas is summed in one call and gives an array back."""

    GRID = np.geomspace(1e-4, 1e2, 7)

    @pytest.mark.parametrize(
        "i, n, rho",
        [(0, 0, 1.0), (3, 4, 2.5), (12, 7, 40.0), (3, 3, 800.0), (2, 200, 50.0), (4, 2, 0.0), (2, 4, 0.0)],
    )
    def test_grid_matches_scalar_calls(self, i, n, rho):
        p = QueueParams(rho / 1.5, 1.5)
        values = rbar_closed_form(i, n, self.GRID, p)
        assert values.shape == self.GRID.shape
        for s, value in zip(self.GRID, values):
            one = rbar_closed_form(i, n, float(s), p)
            assert abs(value - one) <= 1e-13 * abs(one)

    def test_float_gives_a_float(self):
        assert isinstance(rbar_closed_form(3, 4, 1.0, UNIT), float)
        assert isinstance(rbar_closed_form(0, 4, 1.0, PURE_DEATH), float)

    def test_one_window_for_the_whole_grid(self, monkeypatch):
        calls = []
        real = hyperg._window

        def spy(x, a, q):
            calls.append((x, a, q))
            return real(x, a, q)

        monkeypatch.setattr(hyperg, "_window", spy)
        rbar_closed_form(3, 4, self.GRID, UNIT)
        # j = 0..3 at every abscissa share one window: the least a is alpha
        # times the least s (at j = 0), the largest q = i + n + 1 (at j = 0)
        assert calls == [(UNIT.rho, UNIT.alpha * self.GRID.min(), 8.0)]

    @pytest.mark.parametrize("p", [UNIT, PURE_DEATH])
    def test_empty_grid_gives_empty_array(self, p):
        assert rbar_closed_form(2, 4, np.array([]), p).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e-320])
    def test_one_bad_abscissa_rejects_the_grid(self, bad):
        with pytest.raises(ValueError, match="transform variable"):
            rbar_closed_form(1, 2, np.array([1.0, bad, 2.0]), UNIT)

    def test_complex_grid_rejected(self):
        with pytest.raises(ValueError, match="transform variable"):
            rbar_closed_form(1, 2, np.array([1.0, 2.0 + 1.0j]), UNIT)


def _stacked_rbar(i, n, s, p):
    """rbar_closed_form's row as it was built by broadcast, stack and concatenate, and summed."""
    a_s = p.alpha * np.asarray(s, dtype=float)[..., None]
    rho, hi = p.rho, min(i, n)
    lo = 0 if rho > 0 else n
    u = np.arange(1, hi + 1, dtype=float)
    m = np.arange(1, n - hi + 1, dtype=float)
    t = np.arange(1, abs(i - n) + 1, dtype=float)
    same = np.concatenate([(i - hi + u) / u, rho / m])
    factors = np.concatenate(
        [np.broadcast_to(same, a_s.shape[:-1] + same.shape), 1.0 / (a_s + hi), t / (a_s + hi + t)], axis=-1)
    j = np.arange(hi, lo, -1, dtype=float)
    steps = np.stack(np.broadcast_arrays(
        np.full(j.size, rho),
        j / (i - j + 1.0),
        (i + n - 2.0 * j + 2.0) / (n - j + 1.0),
        (i + n - 2.0 * j + 1.0) / (a_s + i + n - j + 1.0),
        1.0 / (a_s + (j - 1.0)),
    ), axis=-1)
    j = np.arange(hi, lo - 1, -1, dtype=float)
    row = np.concatenate([factors, steps.reshape(*steps.shape[:-2], -1)], axis=-1)
    total = hyperg.weighted_kummer_sum(row, 5, a_s + j, i + n + 1.0 - 2.0 * j, rho)
    return (n + rho + a_s[..., 0]) * total


def _stacked_generating_function(i, x, s, p):
    a_s = p.alpha * s
    j = np.arange(i + 1, dtype=float)
    t = np.arange(1, i + 1, dtype=float)
    factors = np.concatenate([[1.0 / a_s], t / (a_s + t)])
    steps = np.stack([np.full(i, x), (a_s + j[:-1]) / (j[:-1] + 1.0)], axis=1)
    row = np.concatenate([factors, steps.ravel()])
    return p.alpha * hyperg.weighted_kummer_sum(row, 2, a_s + j, i + 1.0 - j, p.rho * (1.0 - x))


class TestRowFilledInPlace:
    """The row of factors and step ratios is filled by slice assignment: the bits are those
    of the row built by broadcast, stack and concatenate."""

    @given(i=st.integers(0, 30), n=st.integers(0, 30), rho=st.sampled_from([0.0, 1e-3, 0.7, 12.0, 150.0, 900.0]),
           s=st.lists(st.floats(1e-4, 1e3), min_size=1, max_size=6), grid=st.booleans())
    @example(i=4, n=4, rho=3.0, s=[0.5], grid=False)          # i = n
    @example(i=0, n=7, rho=3.0, s=[0.5, 2.0], grid=True)      # min(i, n) = 0
    @example(i=9, n=0, rho=3.0, s=[0.5], grid=False)
    @example(i=6, n=3, rho=0.0, s=[0.5, 2.0], grid=True)      # rho = 0: only j = n is left
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_entries_bit_identical(self, i, n, rho, s, grid):
        p = QueueParams(rho / 1.3, 1.3)
        s = np.array(s) if grid else s[0]
        value = rbar_closed_form(i, n, s, p)
        if rho == 0 and n > i:
            assert not np.any(value)
            return
        assert np.shape(value) == np.shape(s)
        assert np.asarray(value).tobytes() == np.asarray(_stacked_rbar(i, n, s, p)).tobytes()

    @pytest.mark.parametrize("i", [0, 1, 6, 25])
    @pytest.mark.parametrize("x", [-0.5, 0.0, 0.3, 1.0])
    def test_generating_function_bit_identical(self, i, x):
        for p in (UNIT, QueueParams(40.0, 0.5), PURE_DEATH):
            assert generating_function(i, x, 0.7, p) == _stacked_generating_function(i, x, 0.7, p)


def _oracle(i, n, s, p):
    return float(solve_rows(i, n, [s], MMInfinityKernel(p)).values.real[0])


def _assert_criterion_4(value, reference):
    # criterion 4: 1e-6 relative with a 1e-9 absolute floor
    assert math.isfinite(value)
    assert abs(value - reference) <= max(1e-6 * abs(reference), 1e-9)


def _mp_closed_form(i, n, s, p, dps=40):
    """rbar[i][n](s) by the module docstring's j-sum in dps-digit mpmath.

    The Kummer factor of a below 1e-20 is summed term by term
    (`mp_scaled_series`), where mp.hyp1f1 would drop its part proportional
    to a.
    """
    with mp.workdps(dps):
        a = mp.mpf(p.alpha) * mp.mpf(s)
        rho = mp.mpf(p.rho)
        total = mp.mpf(0)
        for j in range(min(i, n) + 1):
            q = i + n - 2 * j + 1
            kummer = (mp_scaled_series(a + j, a + j + q, rho) if a + j < 1e-20
                      else mp.exp(-rho) * mp.hyp1f1(a + j, a + j + q, rho))
            total += mp.binomial(i, j) * rho ** (n - j) / mp.factorial(n - j) * mp.beta(a + j, q) * kummer
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

    def test_entry_past_the_double_range_raises(self):
        # (n + rho + a) * sum overflowed to inf with a RuntimeWarning
        p = QueueParams(2000.0, 1.0)
        with pytest.raises(NonConvergenceError, match=r"i=0, n=2000, s=1e-307\) = inf: past the largest double"):
            rbar_closed_form(0, 2000, 1e-307, p)
        assert rbar_closed_form(0, 2000, 1e-306, p) == 3.568099558394526e+307

    def test_one_entry_past_the_double_range_fails_the_grid(self):
        with pytest.raises(NonConvergenceError, match="s=1e-307"):
            rbar_closed_form(0, 2000, np.array([1e-307, 1.0]), QueueParams(2000.0, 1.0))

    def test_cli_exits_one_past_the_double_range(self, capsys):
        argv = ["transform", "--i", "0", "--j", "2000", "--s-grid", "1e-307:1e-307:1",
                "--lambda", "2000", "--alpha", "1", "--solver", "closedform"]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "numerical failure" in err


def _stated_bound(i, n, s, p):
    """The relative error rbar_closed_form(i, n, s, p) states, from its window.

    s is the least abscissa of the call, which sets the window of all its series.

    `hyperg._window_sum` states 2^-53 (2 + 4 min(k1, max q) + 10 K) for each
    series: the window truncation and the rounding of its products.  The
    weights of the j-sum are running products of n + 1 + |i - n| + 5 min(i, n)
    factors, each rounded at most three times and once more in the product
    (4 each); the sum of min(i, n) + 1 positive terms, n + rho + a and the
    last product add min(i, n) + 4.
    """
    q = i + n + 1    # the largest q, at j = 0, whose a = alpha s is the least
    lo, hi, _ = hyperg._window(p.rho, p.alpha * s, q)
    series = 2 + 4 * min(max(lo, 1), q) + 10 * (hi - lo + 1)
    weights = 4 * (n + 1 + abs(i - n) + 5 * min(i, n))
    return 2.0**-53 * (series + weights + min(i, n) + 4)


class TestClosedFormHighRho:
    """The Poisson window against 40-digit mpmath, within the bound it states.

    The grid was fixed before measuring: rho in {300, 1000, 2000}, the
    (i, n) of four slow seed-0 transform requests, and three s per point.
    """

    @pytest.mark.parametrize("rho", [300.0, 1000.0, 2000.0])
    @pytest.mark.parametrize("i, n", [(26, 24), (8, 21), (28, 20), (5, 191)])
    def test_matches_mpmath(self, rho, i, n):
        p = QueueParams(rho, 1.0)
        s = np.array([0.01, 1.0, 100.0])
        values = rbar_closed_form(i, n, s, p)
        for s_k, value in zip(s, values):
            reference = float(_mp_closed_form(i, n, s_k, p))
            assert abs(value - reference) <= _stated_bound(i, n, s.min(), p) * reference

    @pytest.mark.parametrize("rho", [9.5e3, 2e4, 1e5])
    @pytest.mark.parametrize("i, n", [(0, 0), (10, 12), (5, 30)])
    def test_reaches_rho_1e5(self, rho, i, n):
        # the series from k = 0 raised NonConvergenceError here: it needed
        # more than its 10,000 terms from rho ~ 9,500
        p = QueueParams(rho, 1.0)
        s = np.array([0.01, 1.0, 100.0])
        values = rbar_closed_form(i, n, s, p)
        for s_k, value in zip(s, values):
            reference = float(_mp_closed_form(i, n, s_k, p, dps=50))
            assert abs(value - reference) <= _stated_bound(i, n, s.min(), p) * reference

    def test_tiny_alpha_s_against_a_direct_sum(self):
        # at alpha s = 1e-200 the entry is nearly all the part of
        # e^{-rho} phi(a, a + 61; rho) proportional to a, which mp.hyp1f1
        # drops (the j-sum over it gives 1.06e-25); the reference sums that
        # series term by term
        p = QueueParams(731.8, 1.0)
        reference = float(_mp_closed_form(0, 60, 1e-200, p))
        assert abs(rbar_closed_form(0, 60, 1e-200, p) - reference) <= _stated_bound(0, 60, 1e-200, p) * reference

    def test_window_stops_where_the_exponent_split_does(self):
        p = QueueParams(1.5e6, 1.0)
        with pytest.raises(NonConvergenceError, match="Poisson window sum needs x < "):
            rbar_closed_form(0, 0, 1.0, p)

    def test_series_below_the_double_range(self):
        # e^-2000 phi(1e-4, 1e-4 + 301; 2000) = 8.8495680989901570694e-384 at
        # 40, 80 and 120 digits: one float of it is 0.0, so the series is
        # compared as mantissa and exponent
        m, e = hyperg._window_sum(np.array([1e-4]), np.array([301.0]), 2000.0)
        lo, hi, _ = hyperg._window(2000.0, 1e-4, 301.0)
        with mp.workdps(40):
            value = mp.mpf(float(m[0])) * mp.mpf(2) ** int(e[0])
            reference = mp.mpf("8.8495680989901570694e-384")
            assert abs(value / reference - 1) <= 2.0**-53 * (2 + 4 * min(lo, 301) + 10 * (hi - lo + 1))

    def test_entry_fed_by_a_series_below_the_double_range(self):
        # the same series gives rbar_{0,300}(1e-4) at rho = 2000; mpmath
        # agrees at 40, 80 and 120 digits
        p = QueueParams(2000.0, 1.0)
        reference = 1.3538568193620707
        assert abs(rbar_closed_form(0, 300, 1e-4, p) - reference) <= _stated_bound(0, 300, 1e-4, p) * reference


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

    def test_nan_fails_two_oracle_agreement(self, monkeypatch):
        # the first case's NaN stays the worst through every later, finite one
        real = crosscheck.neumann_series_sum
        monkeypatch.setattr(
            crosscheck, "neumann_series_sum",
            lambda i, s, kernel, n: real(i, s, kernel, n) * (math.nan if (i, s) == (0, 1.0) else 1.0),
        )
        worst, where = crosscheck.two_oracle_agreement((0, 1), (1.0, 10.0), ((1.0, 1.0),))
        assert math.isnan(worst) and not worst <= 1e-8
        assert where == {"i": 0, "s": 1.0, "lam": 1.0, "alpha": 1.0}

    def test_nan_fails_inversion_vs_simulation(self, monkeypatch):
        # a NaN at each target's first time: the last of them is kept
        real = crosscheck.renewal_function
        nan_first = np.array([math.nan, 1.0])
        monkeypatch.setattr(crosscheck, "renewal_function", lambda *args: real(*args) * nan_first)
        worst, where = crosscheck.inversion_vs_simulation(0, (0, 1), (0.5, 1.0), 1.0, 1.0, n_paths=200, seed=1)
        assert math.isnan(worst) and not worst <= 3.0
        assert where == {"j": 1, "t": 0.5}

    def test_worst_keeps_the_first_largest_and_the_last_nan(self):
        assert crosscheck._worst([]) == (0.0, None)
        assert crosscheck._worst([(0.0, "a"), (-1.0, "b")]) == (0.0, None)
        assert crosscheck._worst([(1.0, "a"), (2.0, "b"), (2.0, "c"), (1.5, "d")]) == (2.0, "b")
        worst, where = crosscheck._worst([(1.0, "a"), (math.nan, "b"), (5.0, "c"), (math.nan, "d"), (6.0, "e")])
        assert math.isnan(worst) and where == "d"


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
            reference = p.alpha * float(row.values[n]) / (n + p.rho + p.alpha * s)
            assert extracted[n] == pytest.approx(reference, abs=1e-6)
