import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from scipy.linalg import expm

from mrenew import (
    InversionConfig,
    MMInfinityKernel,
    NonConvergenceError,
    QueueParams,
    euler_inversion,
    gaver_stehfest,
    rbar_closed_form,
    renewal_function,
    solve_rows,
)
import mrenew.invert as invert
from mrenew.invert import stehfest_weights

PURE_DEATH = MMInfinityKernel(QueueParams(0.0, 1.0))
UNIT = MMInfinityKernel(QueueParams(1.0, 1.0))


class TestStehfestWeights:
    def test_length_and_alternation(self):
        weights = stehfest_weights(14)
        assert len(weights) == 14
        # the tail of the weight sequence alternates in sign
        signs = [math.copysign(1, w) for w in weights[4:]]
        assert all(a != b for a, b in zip(signs, signs[1:]))

    @pytest.mark.parametrize("order", [4, 8, 12, 14, 16])
    def test_reproduces_constant_function(self, order):
        # inverting F(s) = 1/s termwise reduces to sum V_k / k == 1, exact in
        # rational arithmetic; in floats the error scales with the weight size
        weights = stehfest_weights(order)
        total = math.fsum(w / k for k, w in enumerate(weights, start=1))
        assert total == pytest.approx(1.0, abs=1e-15 * max(abs(w) for w in weights))

    def test_low_order_exact_in_rational_arithmetic(self):
        # order 4: V = (-2, 26, -48, 24)
        assert stehfest_weights(4) == (-2.0, 26.0, -48.0, 24.0)

    @pytest.mark.parametrize("order", range(4, 19, 2))
    def test_equal_the_factorial_form(self, order):
        # Stehfest's (Comm. ACM 13, 1970) form of V_k, summed exactly and rounded once
        half = order // 2
        f = math.factorial
        for k, weight in enumerate(stehfest_weights(order), start=1):
            exact = sum(
                Fraction(j**half * f(2 * j), f(half - j) * f(j) * f(j - 1) * f(k - j) * f(2 * j - k))
                for j in range((k + 1) // 2, min(k, half) + 1)
            )
            assert weight == (-1) ** (k + half) * float(exact)

    @pytest.mark.parametrize("order", [3, 2, 20, 15])
    def test_order_range_enforced(self, order):
        with pytest.raises(ValueError):
            stehfest_weights(order)


class TestGaverStehfest:
    def test_constant(self):
        assert gaver_stehfest(lambda s: 1.0 / s, 1.0, order=14) == pytest.approx(1.0, abs=1e-8)

    def test_exponential_decay(self):
        value = gaver_stehfest(lambda s: 1.0 / (s + 1.0), 1.0, order=14)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_ramp(self):
        assert gaver_stehfest(lambda s: 1.0 / s**2, 2.5, order=14) == pytest.approx(2.5, abs=1e-6)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            gaver_stehfest(lambda s: 1.0 / s, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 5e-324])
    def test_rejects_time_without_a_finite_rule(self, t):
        # at 5e-324 the scale ln2 / t is past the largest double
        with pytest.raises(ValueError):
            gaver_stehfest(lambda s: 1.0 / s, t)

    def test_deterministic(self):
        a = gaver_stehfest(lambda s: 1.0 / (s + 2.0), 0.7)
        b = gaver_stehfest(lambda s: 1.0 / (s + 2.0), 0.7)
        assert a == b


class TestNonFiniteRefused:
    """Neither inverter returns NaN or an infinity, nor lets math.fsum's errors out."""

    @pytest.mark.parametrize("invert_at", [lambda f: gaver_stehfest(f, 1.0), lambda f: euler_inversion(f, 1.0)])
    @pytest.mark.parametrize("sample", [math.nan, math.inf])
    def test_non_finite_sample(self, invert_at, sample):
        # a NaN sample was returned as nan
        with pytest.raises(NonConvergenceError, match="not a finite number"):
            invert_at(lambda s: sample)

    def test_infinite_terms_of_both_signs(self):
        # the weights of order 18 take 1 / s past the largest double with either sign:
        # a bare ValueError: -inf + inf in fsum
        with pytest.raises(NonConvergenceError, match="nan, not a finite number"):
            gaver_stehfest(lambda s: 1.0 / s, 1e300, 18)

    def test_finite_terms_whose_sum_overflows(self):
        # at t = ln 2 the abscissas are k: four terms of 1e308, whose sum fsum refuses with OverflowError
        weights = stehfest_weights(4)
        with pytest.raises(NonConvergenceError, match="nan, not a finite number"):
            gaver_stehfest(lambda s: 1e308 / weights[round(s) - 1], math.log(2.0), 4)

    def test_finite_sum_that_the_scale_overflows(self):
        # one finite term, V_1 1e300, times the scale ln 2 / 1e-300
        with pytest.raises(NonConvergenceError, match="inf, not a finite number"):
            gaver_stehfest(lambda s: 1e300 if s < 1e300 else 0.0, 1e-300)


class TestEulerInversion:
    def test_constant(self):
        assert euler_inversion(lambda s: 1.0 / s, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_exponential_decay(self):
        value = euler_inversion(lambda s: 1.0 / (s + 1.0), 1.0)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_ramp(self):
        assert euler_inversion(lambda s: 1.0 / s**2, 2.5) == pytest.approx(2.5, abs=1e-6)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            euler_inversion(lambda s: 1.0 / s, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 5e-324])
    def test_rejects_time_without_a_finite_rule(self, t):
        with pytest.raises(ValueError):
            euler_inversion(lambda s: 1.0 / s, t)

    @pytest.mark.parametrize(
        "transform",
        [
            lambda s: 1.0 / s,
            lambda s: 1.0 / s**2,
            lambda s: 1.0 / (s + 1.0),
            lambda s: 1.0 / (s + 1.0) ** 2,
            lambda s: 1.0 / (s * s + 1.0),
            lambda s: s / (s * s + 1.0),
        ],
        ids=["one", "ramp", "exp", "t-exp", "sin", "cos"],
    )
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.5])
    def test_weight_table_matches_partial_sum_averaging(self, transform, t):
        # Euler summation as usually written: alternating trapezoid terms
        # (the first halved), their partial sums S_n..S_{n+m}, and the
        # binomial average of those.  The weight table is the same sum
        # reordered, so only rounding may differ.
        m, n, a = invert.EULER_DEFAULT_M, invert.EULER_DEFAULT_N, 18.4
        terms = []
        for k in range(n + m + 1):
            value = complex(transform(complex(a / (2 * t), k * math.pi / t))).real
            terms.append((0.5 if k == 0 else 1.0) * (-1) ** k * value)
        partial = np.cumsum(terms) * (math.exp(a / 2) / t)
        reference = math.fsum(math.comb(m, q) * partial[n + q] for q in range(m + 1)) / 2**m
        assert euler_inversion(transform, t) == pytest.approx(reference, rel=1e-13, abs=0)


def _van_loan_renewal(i, j, t, p):
    """R_ij(t) of the M|M|inf queue p from one matrix exponential (Van Loan, IEEE TAC 1978).

    The generator G is cut at N = max(i, j, rho) + 12 sqrt(rho + 1) + 60
    and bordered with the entry flux f into j: lam from j - 1 and
    (j + 1) / alpha from j + 1.  The corner of expm([[G, f], [0, 0]] t) is
    int_0^t (e^{Gu} f)_i du, the expected number of entries into j by
    time t, which is R_ij(t) - delta_ij.
    """
    n = int(max(i, j, p.rho) + 12 * math.sqrt(p.rho + 1) + 60)
    g = np.zeros((n + 2, n + 2))
    states = np.arange(n)
    g[states, states + 1] = p.lam
    g[states + 1, states] = (states + 1) / p.alpha
    g[: n + 1, : n + 1] -= np.diag(g[: n + 1, : n + 1].sum(axis=1))
    if j > 0:
        g[j - 1, n + 1] = p.lam
    g[j + 1, n + 1] = (j + 1) / p.alpha
    return expm(g * t)[i, n + 1] + (i == j)


# The derandomized sample of both reference tests: rho in {0} and [1e-3, 60],
# i, j <= 15, and (u, log10 alpha) in [0, 1] x [-1, 1] for t = 0.1 * 5000**u alpha
_VAN_LOAN_SAMPLE = (
    st.one_of(st.just(0.0), st.floats(-3.0, math.log10(60.0)).map(lambda e: 10.0**e)),
    st.integers(0, 15),
    st.integers(0, 15),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
)


def _sample_point(rho, u, log_alpha):
    """The queue and the time t in [0.1, 500] alpha of one sampled point."""
    alpha = 10.0**log_alpha
    return QueueParams(rho / alpha, alpha), alpha * 0.1 * 5000.0**u


class TestEulerAgainstVanLoan:
    """Euler values of renewal_function against the exact R_ij(t) of M|M|inf.

    The trapezoid rule at A / 2t + i k pi / t returns f(t) plus the aliases
    sum_{k >= 1} e^{-kA} f((2k + 1) t), about e^{-A} R_ij(3t) for the
    nondecreasing R (Abate & Whitt, ORSA J. Computing 1995).  Euler
    summation of the first n + m + 1 = 27 terms adds its own error at
    times of a few alpha, where the terms have not settled by k = 15: up to
    19.3 times the alias term at rho = 60, i = 0, j = 15, t = 1.32 alpha and
    16.3 times at rho = 0, i = 15, j = 2, t = 7.9 alpha, the worst points of
    a scan of 12 values of rho in [0, 60], i, j <= 15 and 60 to 150
    times in [0.1, 500] alpha.
    The bound is SLACK times the alias term, plus FLOOR, which keeps it
    positive where R vanishes (rho = 0, j > i: both sides are exactly 0);
    no scanned point needed the floor.
    """

    SLACK = 20.0
    FLOOR = 1e-300

    @given(*_VAN_LOAN_SAMPLE)
    @example(60.0, 0, 15, 0.302942, 0.0)     # t = 1.32 alpha
    @example(0.0, 15, 2, 0.512568, 0.0)      # t = 7.87 alpha
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_within_the_alias_bound(self, rho, i, j, u, log_alpha):
        p, t = _sample_point(rho, u, log_alpha)
        value = renewal_function(i, j, [t], MMInfinityKernel(p), InversionConfig(method="euler"))[0]
        alias = math.exp(-invert._EULER_A) * _van_loan_renewal(i, j, 3.0 * t, p)
        share = abs(value - _van_loan_renewal(i, j, t, p)) / (self.SLACK * alias + self.FLOOR)
        target(float(share))    # steer the search to the worst case
        assert share <= 1.0


class TestGaverStehfestAgainstVanLoan:
    """Gaver-Stehfest values of renewal_function against the exact R_ij(t) of M|M|inf.

    GS has no error term of the alias kind: the Salzer acceleration smooths
    R, and it is worst where R climbs steeply from 0.  Its bound is
    REL R + ABS per order, both constants measured.  A scan of 513,600
    points (12 values of rho in [0, 60], every i, j <= 15, 150 times in
    [0.1, 500] alpha per (rho, j), and 300 times in [0.1, 1] alpha at rho =
    40..60, i <= 3, j >= 12) put REL at the worst relative error where
    R >= 1 (1.18e-2 at order 14, 6.43e-3 at 16, 3.37e-3 at 18) and ABS just
    above the rest.  Order 16's scan took rho = 0, 1e-3, 1e-2, 0.1, 0.5, 1,
    2, 5, 10, 20, 40, 60, and 40, 42, ..., 60 for the short times, each
    order's value from one order-18 solve and every j from one bordered
    expm (within 1.4e-13 of `_van_loan_renewal`).  The bound's worst points
    are all at rho = 60, i = 0, j = 15: 0.98 of it at t = 0.244 alpha for
    order 14 (0.4661 on R = 0.4525), 0.99 at t = 0.246 alpha for order 16
    (0.4729 on R = 0.4663) and 0.99 at t = 0.250 alpha for order 18
    (0.4944 on R = 0.4912).  Below R ~ ABS no relative bound holds:
    order 14 gives 2.87e-3 on R = 1.01e-3 (rho = 58, i = 0, j = 15,
    t = 0.104 alpha) and 1.0e-65 on R = 4.0e-73.
    """

    BOUND = {14: (1.2e-2, 8.5e-3), 16: (6.5e-3, 3.6e-3), 18: (3.4e-3, 1.5e-3)}    # order: (REL, ABS)

    @pytest.mark.parametrize("order", sorted(BOUND))
    @given(*_VAN_LOAN_SAMPLE)
    @example(60.0, 0, 15, 0.104883, 0.0)     # t = 0.244 alpha
    @example(60.0, 0, 15, 0.105787, 0.0)     # t = 0.246 alpha
    @example(60.0, 0, 15, 0.107384, 0.0)     # t = 0.250 alpha
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_within_the_measured_bound(self, order, rho, i, j, u, log_alpha):
        p, t = _sample_point(rho, u, log_alpha)
        value = renewal_function(i, j, [t], MMInfinityKernel(p), InversionConfig(order=order))[0]
        exact = _van_loan_renewal(i, j, t, p)
        rel, abs_ = self.BOUND[order]
        share = abs(value - exact) / (rel * exact + abs_)
        target(float(share))    # steer the search to the worst case
        assert share <= 1.0


class TestInversionConfig:
    def test_defaults(self):
        cfg = InversionConfig()
        assert cfg.method == "gaver-stehfest" and cfg.order == 14

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "talbot"},
            {"order": 13},
            {"order": 2},
            {"order": 20},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            InversionConfig(**kwargs)

    def test_order_must_be_an_integer(self):
        # 16.0 passed once the cached stehfest_weights(16) answered for it,
        # and raised a bare TypeError from range() before
        stehfest_weights(16)
        with pytest.raises(TypeError):
            InversionConfig(order=16.0)
        with pytest.raises(TypeError):
            gaver_stehfest(lambda s: 1.0 / s, 1.0, 16.0)
        assert InversionConfig(order=np.int64(16)).order == 16

    def test_euler_ignores_order(self):
        # only Gaver-Stehfest has an order; Euler's lengths are fixed
        assert InversionConfig(method="euler", order=5).order == 5


class TestRenewalFunction:
    def test_no_arrivals_stays_at_one(self):
        values = renewal_function(0, 0, [0.25, 1.0, 4.0], PURE_DEATH)
        np.testing.assert_allclose(values, 1.0, atol=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_pure_death_single_service(self, alpha):
        # rbar_{1,0}(s) = 1/(1 + alpha s), so R_10(t) = 1 - exp(-t/alpha);
        # order 16 holds the stieltjes-to-ordinary conversion below 1e-5
        p = QueueParams(0.0, alpha)
        times = [0.25, 0.5, 1.0, 2.0, 4.0]
        values = renewal_function(1, 0, times, MMInfinityKernel(p), cfg=InversionConfig(order=16))
        exact = [1.0 - math.exp(-t / alpha) for t in times]
        assert max(abs(a - b) for a, b in zip(values, exact)) <= 1e-5

    def test_single_time_example(self):
        value = renewal_function(1, 0, [1.0], PURE_DEATH)[0]
        assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-5)

    def test_nondecreasing_in_time(self):
        times = np.linspace(0.25, 4.0, 16)
        values = renewal_function(0, 0, times, UNIT)
        assert np.all(np.diff(values) >= -1e-5)

    def test_short_time_recovers_identity(self):
        assert renewal_function(0, 0, [1e-4], UNIT)[0] == pytest.approx(1.0, abs=1e-3)
        assert renewal_function(0, 1, [1e-4], UNIT)[0] == pytest.approx(0.0, abs=1e-3)

    def test_methods_agree(self):
        times = [0.5, 1.0, 2.0]
        for j in (0, 1):
            gs = renewal_function(0, j, times, UNIT, cfg=InversionConfig(method="gaver-stehfest"))
            eu = renewal_function(0, j, times, UNIT, cfg=InversionConfig(method="euler"))
            assert np.max(np.abs(gs - eu)) <= 1e-4

    @pytest.mark.parametrize("order, gap", [(16, 2e-8), (18, 1e-6)])
    def test_oracle_precise_enough_for_high_orders(self, order, gap):
        # Gaver-Stehfest 16 and 18 amplify transform errors by ~1e8; a cut
        # taken where the entries move by 1e-10 left 1.4e-7 and 4.7e-6 here
        p = QueueParams(50.0, 1.0)
        oracle = renewal_function(3, 40, [1.0], MMInfinityKernel(p), cfg=InversionConfig(order=order))
        closed = gaver_stehfest(lambda s: rbar_closed_form(3, 40, s, p) / s, 1.0, order)
        assert abs(oracle[0] - closed) <= gap

    @pytest.mark.parametrize("solver", ["oracle", "closedform"])
    def test_empty_time_grid_gives_empty_result(self, solver):
        # an empty time grid has no abscissas; the closed form, reached
        # through rbar_closed_form, takes the empty abscissa grid too
        if solver == "oracle":
            assert renewal_function(0, 0, [], UNIT).shape == (0,)
        else:
            assert rbar_closed_form(0, 0, np.array([]), UNIT.params).shape == (0,)

    def test_negative_target_state_rejected(self):
        for times in ([1.0], []):
            with pytest.raises(ValueError, match=r"^j must be in \[0, 65534\], got -1$"):
                renewal_function(0, -1, times, UNIT)

    def test_solver_option_removed(self):
        # the truncated solve is the only route
        with pytest.raises(TypeError):
            renewal_function(0, 0, [1.0], UNIT, solver="oracle")

    @pytest.mark.parametrize("t_grid", [1.0, [[1.0, 2.0]]], ids=["scalar", "2-D"])
    def test_time_grid_must_be_one_dimensional(self, t_grid):
        with pytest.raises(ValueError, match="t_grid must be one-dimensional"):
            renewal_function(0, 0, t_grid, UNIT)

    def test_times_below_t_min_rejected(self):
        with pytest.raises(ValueError):
            renewal_function(0, 0, [1e-12], UNIT)

    @pytest.mark.parametrize("method, largest", [("gaver-stehfest", math.log(2.0) / 1e-14), ("euler", 9.2 / 1e-14)],
                             ids=["gs", "euler"])
    def test_times_past_the_solvers_floor_rejected_by_their_time(self, method, largest):
        # the smallest Re(s) of the rule, ln2 / t or A / 2t, may not pass the
        # oracle's floor 1e-14; the oracle refused the abscissa, not naming t.
        # Just inside the limit the time is not refused (accuracy is not checked)
        cfg = InversionConfig(method=method)
        assert np.isfinite(renewal_function(0, 0, [1.0, 0.99 * largest], UNIT, cfg=cfg)).all()
        with pytest.raises(ValueError, match=re.escape(f"time {1.01 * largest} is too large: ") + ".* < 1e-14"):
            renewal_function(0, 0, [1.0, 1.01 * largest], UNIT, cfg=cfg)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_times_rejected(self, t):
        with pytest.raises(ValueError):
            renewal_function(0, 0, [1.0, t], UNIT)


class TestBatchedAbscissas:
    """renewal_function solves every abscissa of its grid in one solve_rows call."""

    KERNEL = MMInfinityKernel(QueueParams(3.0, 0.5))

    def _one_at_a_time(self, i, j, s):
        return solve_rows(i, j, [s], self.KERNEL).values[0] / s

    def test_gaver_stehfest_bit_identical_to_one_solve_per_abscissa(self):
        times = [0.3, 1.0, 2.0, 7.5]
        values = renewal_function(2, 4, times, self.KERNEL, cfg=InversionConfig(order=16))
        for t, value in zip(times, values):
            assert value == gaver_stehfest(lambda s: self._one_at_a_time(2, 4, s), t, 16)

    def test_euler_matches_one_solve_per_abscissa(self):
        times = [0.5, 3.0]
        values = renewal_function(1, 0, times, self.KERNEL, cfg=InversionConfig(method="euler"))
        for t, value in zip(times, values):
            one = euler_inversion(lambda s: self._one_at_a_time(1, 0, s), t)
            assert value == pytest.approx(one, rel=1e-12)

    def test_evaluates_each_distinct_abscissa_once(self, monkeypatch):
        # GS14 at t = 1 and t = 2: k ln2 / 2 for even k is an abscissa of
        # t = 1 as well, so 28 abscissas hold 21 distinct values, all
        # passed in one call
        calls = []
        real = invert.solve_rows

        def spy(i, j, s_values, *args):
            calls.append(list(s_values))
            return real(i, j, s_values, *args)

        monkeypatch.setattr(invert, "solve_rows", spy)
        renewal_function(0, 0, [1.0, 2.0], UNIT)
        assert len(calls) == 1
        expected = {k * (math.log(2.0) / t) for t in (1.0, 2.0) for k in range(1, 15)}
        assert len(calls[0]) == len(set(calls[0])) == 21
        assert set(calls[0]) == expected

    @pytest.mark.parametrize("order", [16, 18])
    def test_one_sweep_per_level_whatever_the_grid_length(self, order, monkeypatch):
        # Structural guard, no timing: every abscissa of the grid shares
        # each kernel call, so longer grids make no more calls.
        calls = []
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            calls.append(np.shape(s))
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        cfg = InversionConfig(order=order)
        counts = []
        for times in ([1.0], [0.5, 1.0], [0.5, 1.0, 1.5]):
            calls.clear()
            renewal_function(0, 1, times, UNIT, cfg=cfg)
            counts.append(len(calls))
            assert all(len(shape) == 1 and shape[0] >= order for shape in calls)
        assert counts == [counts[0]] * 3
