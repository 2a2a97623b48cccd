import math

import numpy as np
import pytest

from mrenew import (
    InversionConfig,
    MMInfinityKernel,
    QueueParams,
    TruncationConfig,
    euler_inversion,
    gaver_stehfest,
    renewal_function,
    solve_row_adaptive,
)
import mrenew.invert as invert
from mrenew.invert import stehfest_weights

PURE_DEATH = QueueParams(0.0, 1.0)
UNIT = QueueParams(1.0, 1.0)


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

    def test_deterministic(self):
        a = gaver_stehfest(lambda s: 1.0 / (s + 2.0), 0.7)
        b = gaver_stehfest(lambda s: 1.0 / (s + 2.0), 0.7)
        assert a == b


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
        values = renewal_function(1, 0, times, p, cfg=InversionConfig(order=16))
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

    def test_closed_form_solver_route(self):
        gs_oracle = renewal_function(0, 0, [1.0], UNIT, solver="oracle")
        gs_closed = renewal_function(0, 0, [1.0], UNIT, solver="closedform")
        assert gs_closed[0] == pytest.approx(gs_oracle[0], abs=1e-8)

    @pytest.mark.parametrize("solver", ["oracle", "closedform"])
    def test_empty_time_grid_gives_empty_result(self, solver):
        assert renewal_function(0, 0, [], UNIT, solver=solver).shape == (0,)

    def test_euler_requires_oracle_solver(self):
        with pytest.raises(ValueError):
            renewal_function(0, 0, [1.0], UNIT, solver="closedform", cfg=InversionConfig(method="euler"))

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            renewal_function(0, 0, [1.0], UNIT, solver="montecarlo")

    def test_times_below_t_min_rejected(self):
        with pytest.raises(ValueError):
            renewal_function(0, 0, [1e-12], UNIT)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_times_rejected(self, t):
        with pytest.raises(ValueError):
            renewal_function(0, 0, [1.0, t], UNIT)


class TestBatchedAbscissas:
    """renewal_function solves every abscissa of its grid in one solve_rows call."""

    P = QueueParams(3.0, 0.5)

    def _one_at_a_time(self, i, j, s):
        row = solve_row_adaptive(i, s, MMInfinityKernel(self.P), TruncationConfig(n0=max(64, j + 2)))
        return row.values[j] / s

    def test_gaver_stehfest_bit_identical_to_one_solve_per_abscissa(self):
        times = [0.3, 1.0, 2.0, 7.5]
        values = renewal_function(2, 4, times, self.P, cfg=InversionConfig(order=16))
        for t, value in zip(times, values):
            assert value == gaver_stehfest(lambda s: self._one_at_a_time(2, 4, s), t, 16)

    def test_euler_matches_one_solve_per_abscissa(self):
        times = [0.5, 3.0]
        values = renewal_function(1, 0, times, self.P, cfg=InversionConfig(method="euler"))
        for t, value in zip(times, values):
            one = euler_inversion(lambda s: self._one_at_a_time(1, 0, s), t)
            assert value == pytest.approx(one, rel=1e-12)

    def test_closed_form_evaluates_each_distinct_abscissa_once(self, monkeypatch):
        # GS14 at t = 1 and t = 2: k ln2 / 2 for even k is an abscissa of
        # t = 1 as well, so 28 abscissas hold 21 distinct values
        calls = []
        real = invert.rbar_closed_form

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(invert, "rbar_closed_form", spy)
        values = renewal_function(0, 0, [1.0, 2.0], UNIT, solver="closedform")
        assert len(calls) == len(set(calls)) == 21
        monkeypatch.undo()
        for t, value in zip([1.0, 2.0], values):
            assert value == gaver_stehfest(lambda s: real(0, 0, s, UNIT) / s, t, 14)

    @pytest.mark.parametrize("order", [16, 18])
    def test_one_sweep_per_level_whatever_the_grid_length(self, order, monkeypatch):
        # Structural guard, no timing: the kernel is evaluated once per
        # truncation level for the whole grid.  These grids fit one sweep
        # at every level they reach.
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
        # UNIT rows settle one doubling after n0 = 64 at these abscissas
        assert counts == [2, 2, 2]
