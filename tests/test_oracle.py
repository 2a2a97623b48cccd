import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import mrenew.oracle as oracle
from mrenew import (
    KernelTransform,
    MMInfinityKernel,
    NonConvergenceError,
    PivotError,
    QueueParams,
    TruncationConfig,
    neumann_series_sum,
    rbar_closed_form,
    solve_row_adaptive,
    solve_row_truncated,
    solve_rows,
)

# rbar_00(1) for lam = alpha = 1, pinned once the adaptive solve first
# converged; analytically 2*(1 - 1/e) (cross-checked against the Neumann
# route and the closed form).
RBAR_00_AT_1 = 1.2642411176571153

PURE_DEATH = QueueParams(0.0, 1.0)
UNIT = QueueParams(1.0, 1.0)


def kernel(p):
    return MMInfinityKernel(p)


class TestSolveRowTruncated:
    def test_no_arrivals_row_zero_is_identity(self):
        res = solve_row_truncated(0, 1.0, kernel(PURE_DEATH), 8)
        expected = np.zeros(9)
        expected[0] = 1.0
        np.testing.assert_allclose(res.values, expected, atol=1e-15)
        assert res.normalization_residual <= 1e-14

    def test_pure_death_back_substitution_row(self):
        # r[2,j] = delta_2j + sigma(j+1) r[2,j+1]: [1/3, 2/3, 1, 0, ...],
        # and the normalization sum is exactly 1
        res = solve_row_truncated(2, 1.0, kernel(PURE_DEATH), 8)
        expected = np.zeros(9)
        expected[:3] = [1.0 / 3.0, 2.0 / 3.0, 1.0]
        np.testing.assert_allclose(res.values, expected, atol=1e-15)
        assert res.normalization_residual <= 1e-14

    def test_truncated_solve_makes_no_convergence_claim(self):
        assert solve_row_truncated(0, 1.0, kernel(UNIT), 16).converged is False

    def test_diagonal_entry_at_least_one(self):
        for i in (0, 1, 3):
            res = solve_row_truncated(i, 0.5, kernel(UNIT), 64)
            assert res.values[i] >= 1.0
            assert np.all(res.values >= 0.0)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            solve_row_truncated(0, 0.0, kernel(UNIT), 8)
        with pytest.raises(ValueError):
            solve_row_truncated(0, -1.0, kernel(UNIT), 8)

    @pytest.mark.parametrize(
        "s", [math.nan, math.inf, complex(math.nan, 1.0), complex(1.0, math.inf)]
    )
    def test_rejects_nonfinite_s(self, s):
        # rejected up front: a NaN would otherwise double n up to n_max
        with pytest.raises(ValueError):
            solve_row_truncated(0, s, kernel(UNIT), 8)
        with pytest.raises(ValueError):
            solve_row_adaptive(0, s, kernel(UNIT))

    def test_rejects_start_state_outside_truncation(self):
        with pytest.raises(ValueError):
            solve_row_truncated(8, 1.0, kernel(UNIT), 8)
        with pytest.raises(ValueError):
            solve_row_truncated(-1, 1.0, kernel(UNIT), 8)

    def test_rejects_array_s(self):
        # a row is solved at one abscissa; an array gave the row of its first
        with pytest.raises(ValueError, match="one transform variable"):
            solve_row_truncated(0, np.array([1.0, 2.0]), kernel(UNIT), 16)
        with pytest.raises(ValueError, match="one transform variable"):
            solve_row_adaptive(0, np.array([1.0, 2.0]), kernel(UNIT))

    @pytest.mark.parametrize("solve", [solve_row_truncated, neumann_series_sum])
    def test_level_must_be_an_integer(self, solve):
        # 16.5 failed inside the elimination or in numpy's array constructor
        for n in (16.5, 16.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                solve(0, 1.0, kernel(UNIT), n)
        as_numpy = solve(0, 1.0, kernel(UNIT), np.int64(16))
        as_int = solve(0, 1.0, kernel(UNIT), 16)
        if solve is solve_row_truncated:
            assert type(as_numpy.truncation_n) is int
            as_numpy, as_int = as_numpy.values, as_int.values
        assert np.array_equal(as_numpy, as_int)

    def test_complex_s_conjugate_symmetry(self):
        k = kernel(UNIT)
        plus = solve_row_truncated(1, complex(1.0, 2.0), k, 64)
        minus = solve_row_truncated(1, complex(1.0, -2.0), k, 64)
        np.testing.assert_allclose(plus.values, np.conj(minus.values), atol=1e-14)
        assert plus.normalization_residual < 1e-10


class TestSolveRowAdaptive:
    def test_pinned_regression_value(self):
        res = solve_row_adaptive(0, 1.0, kernel(UNIT))
        assert res.converged
        assert res.normalization_residual <= 1e-10
        assert res.values[0] == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-10)
        assert res.values[0] == pytest.approx(RBAR_00_AT_1, abs=1e-12)

    def test_matches_exact_pure_death_row(self):
        res = solve_row_adaptive(2, 1.0, kernel(PURE_DEATH))
        assert res.converged
        np.testing.assert_allclose(res.values[:4], [1 / 3, 2 / 3, 1.0, 0.0], atol=1e-12)

    def test_converges_fast_for_large_s(self):
        res = solve_row_adaptive(0, 10.0, kernel(UNIT))
        assert res.converged
        assert res.truncation_n <= 256

    def test_converges_for_small_s(self):
        res = solve_row_adaptive(0, 0.01, kernel(UNIT))
        assert res.converged
        assert res.normalization_residual <= 1e-10

    def test_identity_limit_at_large_s(self):
        s = 1e6
        for i in (0, 2):
            res = solve_row_adaptive(i, s, kernel(UNIT))
            assert abs(res.values[i] - 1.0) < 1e-4
            off = np.delete(res.values, i)
            assert np.max(np.abs(off)) < 1e-4

    def test_start_state_above_n0_is_handled(self):
        res = solve_row_adaptive(100, 1.0, kernel(UNIT))
        assert res.converged
        assert res.values[100] >= 1.0

    def test_nonconvergence_reports_last_residual(self, monkeypatch):
        monkeypatch.setattr(oracle, "_N_MAX", 8)
        monkeypatch.setattr(oracle, "_TOL", 1e-16)
        with pytest.raises(NonConvergenceError, match="n_max=8;") as err:
            solve_row_adaptive(0, 0.01, kernel(UNIT), TruncationConfig(n0=4))
        assert err.value.residual is not None
        assert err.value.residual > 0.0

    def test_residual_nonincreasing_under_doubling(self):
        for p, i, s in [(UNIT, 0, 1.0), (QueueParams(2.0, 0.5), 2, 0.1)]:
            k = kernel(p)
            residuals = [
                solve_row_truncated(i, s, k, n).normalization_residual
                for n in (32, 64, 128, 256)
            ]
            for coarse, fine in zip(residuals, residuals[1:]):
                assert fine <= coarse + 1e-13


class _ZeroPivotKernel(KernelTransform):
    """sigma_bar = tau_bar = 1 away from state 0: the forward pivot of row 1 is 0."""

    def transforms(self, j, s):
        ones = np.ones(np.broadcast(j, s).shape)
        return np.where(j == 0, 0.0, ones), ones


class _SlowWalkKernel(KernelTransform):
    """Up and down with weight 1 / (2 + 2s) each: a row decays like e^{-sqrt(2s) k}."""

    def transforms(self, j, s):
        half = np.ones(np.broadcast(j, s).shape) * 0.5 / (1.0 + s)
        return np.where(j == 0, 0.0, half), half


class TestSolveRows:
    # rho = 300 over s in 1e-3..1e3: the columns are cut at 18 levels, from N = 64 to 446
    SPREAD = (QueueParams(300.0, 1.0), np.geomspace(1e-3, 1e3, 20))

    def test_real_columns_bit_identical_to_one_column_solves(self):
        p, s_values = self.SPREAD
        k = kernel(p)
        entries = solve_rows(1, 3, s_values, k)
        assert len(set(entries.truncation_n.tolist())) == 18
        for col, s in enumerate(s_values.tolist()):
            one = solve_rows(1, 3, [s], k)
            assert entries.values[col] == one.values[0]
            assert entries.truncation_n[col] == one.truncation_n[0]
            assert entries.normalization_residual[col] == one.normalization_residual[0]
            # the adaptive row is a full back-substitution at the same N; its
            # residual sits on its rounding floor, so only the entry is pinned
            row = solve_row_adaptive(1, s, k)
            assert entries.values[col] == row.values[3]
            assert entries.truncation_n[col] == row.truncation_n

    def test_complex_columns_match_one_column_solves_and_conjugates(self):
        k = kernel(QueueParams(2.0, 1.0))
        upper = [complex(0.5, y) for y in np.linspace(0.0, 40.0, 12)]
        s_values = upper + [s.conjugate() for s in upper]
        entries = solve_rows(2, 1, s_values, k)
        for col, s in enumerate(s_values):
            one = solve_row_adaptive(2, s, k).values[1]
            assert abs(entries.values[col] - one) <= 1e-13 * abs(one)
        np.testing.assert_allclose(entries.values[12:], np.conj(entries.values[:12]), rtol=1e-15)

    def test_columns_independent_of_their_company(self):
        p, s_values = self.SPREAD
        k = kernel(p)
        together = solve_rows(0, 0, s_values, k).values
        reversed_ = solve_rows(0, 0, s_values[::-1], k).values
        np.testing.assert_array_equal(together, reversed_[::-1])

    def test_nonconvergent_column_named_with_its_residual(self, monkeypatch):
        monkeypatch.setattr(oracle, "_N_MAX", 22)
        s_values = [10.0, 1.0, 0.01, 5.0]    # 0.01 is cut at N = 23, the others by 22
        with pytest.raises(NonConvergenceError) as err:
            solve_rows(0, 0, s_values, kernel(UNIT), TruncationConfig(n0=8))
        assert "s=0.01" in str(err.value)
        at_cap = solve_row_truncated(0, 0.01, kernel(UNIT), 22).normalization_residual
        assert err.value.residual == at_cap

    def test_pivot_error_still_raised(self):
        # forward elimination meets the zero pivot at row 1 first
        with pytest.raises(PivotError, match="at row 1$"):
            solve_row_truncated(0, 1.0, _ZeroPivotKernel(), 8)
        with pytest.raises(PivotError, match="at row 1$"):
            solve_rows(0, 0, np.linspace(1.0, 2.0, 40), _ZeroPivotKernel())

    def test_cut_past_the_residual_floor(self):
        # The summed residual sits on a rounding floor of up to ~3e-10 at
        # some of these points, above tol; the cut tests the lost mass
        # |tau_N x_N| instead, which has no such floor.
        worst = 0.0
        for rho in np.geomspace(100.0, 2000.0, 40):
            p = QueueParams(rho, 1.0)
            s_values = np.geomspace(1e-4, 1e-2, 5)
            entries = solve_rows(0, 0, s_values, kernel(p))
            for s, value in zip(s_values.tolist(), entries.values.tolist()):
                closed = rbar_closed_form(0, 0, s, p)
                worst = max(worst, abs(value - closed) / abs(closed))
        assert worst <= 1e-12

    def test_no_abscissas_give_empty_entries(self):
        entries = solve_rows(0, 0, [], kernel(UNIT))
        for field in (entries.s, entries.values, entries.truncation_n, entries.normalization_residual):
            assert field.shape == (0,)

    def test_sweeps_stay_within_the_element_budget(self, monkeypatch):
        shapes = []
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            shapes.append(np.broadcast(j, s).shape)
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        p, s_values = self.SPREAD
        solve_rows(0, 0, np.concatenate([s_values, s_values + 0.5]), kernel(p))
        assert any(len(shape) == 2 for shape in shapes)
        for shape in shapes:
            assert len(shape) == 1 or shape[0] * shape[1] <= oracle._SWEEP_ELEMENTS

    def test_level_sweeps_every_open_column_together(self, monkeypatch):
        # 400 columns leave room for 15 states per block: the blocks get
        # shorter, the sweep never splits its columns
        k = kernel(QueueParams(20.0, 1.0))
        s_values = np.geomspace(0.05, 50.0, 400)
        halves = [solve_rows(15, 2, half, k) for half in (s_values[:200], s_values[200:])]
        calls = []      # (lowest state, columns) per kernel call
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            calls.append((int(np.min(j)), np.size(s)))
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        entries = solve_rows(15, 2, s_values, k)
        assert [lo for lo, _ in calls] == list(range(0, 15 * len(calls), 15))
        assert all(columns == 400 for _, columns in calls)
        for field in ("values", "truncation_n", "normalization_residual"):
            together = getattr(entries, field)
            np.testing.assert_array_equal(together, np.concatenate([getattr(h, field) for h in halves]))

    def test_deep_complex_grid_shares_one_sweep_per_block(self, monkeypatch):
        # the 100 Euler abscissas of t = 2 and t = 5 at rho = 1000 settle at
        # n = 1024 and 2048; no column may fall back to a sweep of its own
        shapes = []
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            shapes.append((np.shape(j), np.shape(s)))
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        grid = [complex(9.2 / t, k * math.pi / t) for t in (2.0, 5.0) for k in range(50)]
        entries = solve_rows(0, 0, grid, kernel(QueueParams(1000.0, 1.0)))
        assert entries.truncation_n.max() >= 1024
        assert all(len(j) == 2 and len(s) == 1 and s[0] >= oracle._MIN_BATCH for j, s in shapes)

    def test_rejects_bad_arguments(self):
        k = kernel(UNIT)
        with pytest.raises(ValueError):
            solve_rows(0, 0, [1.0, math.nan, 2.0], k)
        with pytest.raises(ValueError):
            solve_rows(0, 0, [[1.0, 2.0]], k)
        with pytest.raises(ValueError):
            solve_rows(0, -1, [1.0], k)
        with pytest.raises(ValueError):
            solve_rows(-1, 0, [1.0], k)

    def test_states_must_be_integers(self):
        k = kernel(UNIT)
        for call in (
            lambda: solve_rows(1.5, 0, [1.0], k),
            lambda: solve_rows(0, 1.5, [1.0], k),
            lambda: solve_row_truncated(1.5, 1.0, k, 16),
            lambda: neumann_series_sum(1.5, 1.0, k, 16),
        ):
            with pytest.raises(TypeError):
                call()
        # numpy integers are integers
        assert solve_rows(np.int64(1), np.int64(2), [1.0], k).values[0] == solve_rows(1, 2, [1.0], k).values[0]
        assert solve_row_truncated(np.int64(1), 1.0, k, 16).i == 1


class TestLevelSolve:
    """Forward elimination against a dense solve of the same truncated system."""

    K = kernel(QueueParams(8.0, 1.0))

    @staticmethod
    def dense(i, s, k, n):
        sigma, tau = k.transforms(np.arange(n + 1), s)
        a = np.eye(n + 1, dtype=sigma.dtype)    # equation k, as in the module docstring
        a[np.arange(1, n + 1), np.arange(n)] = -tau[:-1]
        a[np.arange(n), np.arange(1, n + 1)] = -sigma[1:]
        x = np.linalg.solve(a, np.eye(n + 1)[i])
        return x, abs(np.sum((1.0 - sigma - tau) * x) - 1.0)

    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("i", [0, 5])
    @pytest.mark.parametrize("shift", [0.0, 3j], ids=["real", "complex"])
    @pytest.mark.parametrize("count", [1, oracle._MIN_BATCH], ids=["scalars", "batched"])
    def test_rows_and_residuals_match_dense_solve(self, n, i, shift, count):
        s_values = np.geomspace(0.01, 100.0, count) + shift
        # every state kept, as solve_row_truncated runs it
        sweep = s_values[0] if count == 1 else s_values
        rows, levels, residuals, _ = oracle._eliminate(i, sweep, self.K, n, n, n)
        assert levels.tolist() == [n] * count
        for col, s in enumerate(s_values):
            x, residual = self.dense(i, s, self.K, n)
            assert np.max(np.abs(rows[col] - x)) <= 1e-13 * np.max(np.abs(x))
            assert abs(residuals[col] - residual) <= 1e-13


@st.composite
def _entry_problems(draw):
    """(i, j, rho, s): real s over [1e-4, 1e3], or an Euler abscissa A/2t + i k pi/t at rho <= 500.

    rho, s and t are spread evenly over decades; rho = 0 one time in four.
    """
    i, j = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    rho = 0.0 if draw(st.integers(0, 3)) == 3 else 1e-3 * 2e6 ** draw(st.floats(0.0, 1.0))
    if rho <= 500.0 and draw(st.booleans()):
        t = 0.05 * 1e3 ** draw(st.floats(0.0, 1.0))
        return i, j, rho, complex(18.4 / (2.0 * t), draw(st.integers(0, 49)) * math.pi / t)
    return i, j, rho, 1e-4 * 1e7 ** draw(st.floats(0.0, 1.0))


class TestAgainstBandedSolve:
    """solve_rows against a banded LU solve of the same system cut at twice its N.

    The bound is 1e-12 of the largest entry 0..max(i+10, j), times
    max(1, 0.01 / |s|): I - Qbar(s) loses only mass ~ s per state, so
    rounding grows like 1/s, and at s = 1e-4 both solvers are 1e-12 to
    1e-11 (of that entry) from the exact solution of the same double
    system while their cut errors are below 1e-15.
    """

    # two cases where the bound on the moves still to come, not the lost
    # mass, decides the cut: loosening oracle._EPS to 1e-6 cuts them 12
    # states early and misses the bound 80x and 28x
    @example((2, 21, 22.6, 0.011))
    @example((9, 19, 28.0, 0.117))
    @given(_entry_problems())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_entry_matches_system_cut_at_twice_n(self, problem):
        i, j, rho, s = problem
        k = kernel(QueueParams(rho, 1.0))
        entries = solve_rows(i, j, [s], k)
        n = 2 * int(entries.truncation_n[0])
        sigma, tau = k.transforms(np.arange(n + 1), s)
        bands = np.zeros((3, n + 1), dtype=sigma.dtype)    # equation k, as in the module docstring
        bands[0, 1:], bands[1], bands[2, :-1] = -sigma[1:], 1.0, -tau[:-1]
        unit = np.zeros(n + 1)
        unit[i] = 1.0
        x = solve_banded((1, 1), bands, unit)
        scale = np.max(np.abs(x[: max(i + 10, j) + 1]))
        share = abs(entries.values[0] - x[j]) / (1e-12 * scale * max(1.0, 0.01 / abs(s)))
        target(float(share))    # steer the search to the worst case
        assert share <= 1.0


class TestBottomOfTheRange:
    """solve_rows against rbar_closed_form at the smallest s of the supported range.

    The bound is the one TestAgainstBandedSolve holds from s = 1e-4 up:
    1e-12 of the largest entry 0..max(i+10, j), times 0.01 / s.
    """

    S = np.array([1e-6, 1e-5])

    @pytest.mark.parametrize("rho", np.geomspace(0.1, 2000.0, 12).tolist(), ids="{:.3g}".format)
    def test_entries_match_the_closed_form(self, rho):
        p = QueueParams(rho, 1.0)
        for i in (0, 5, 30):
            closed = np.array([rbar_closed_form(i, n, self.S, p) for n in range(max(i + 10, 30) + 1)])
            for j in (0, 5, 30):
                top = max(i + 10, j)
                scale = np.max(np.abs(closed[: top + 1]), axis=0)
                error = np.abs(solve_rows(i, j, self.S, kernel(p)).values - closed[j])
                assert (error <= 1e-12 * scale * 0.01 / self.S).all(), (i, j, error / scale)


class TestTruncationConfig:
    def test_defaults_valid(self):
        assert [f.name for f in dataclasses.fields(TruncationConfig)] == ["n0"]
        assert TruncationConfig().n0 == 64
        assert oracle._N_MAX == 2**16 and oracle._TOL == 1e-10
        assert TruncationConfig(n0=2**16).n0 == 2**16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n0": 1},
            {"n0": -64},
            {"n0": 2**16 + 1},    # above the cap n_max
            {"n0": 2**17},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TruncationConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"n_max": 2**10}, {"tol": 1e-12}])
    def test_cap_and_tolerance_are_not_options(self, kwargs):
        with pytest.raises(TypeError):
            TruncationConfig(**kwargs)

    def test_real_cap_is_named(self):
        # a symmetric walk killed at rate s ~ 1e-12 decays over ~1e6 states
        with pytest.raises(NonConvergenceError, match=r"by n_max=65536;"):
            solve_rows(0, 0, [1e-12], _SlowWalkKernel())


class TestNeumannSeries:
    def test_no_arrivals_row_zero_stays_identity(self):
        row = neumann_series_sum(0, 1.0, kernel(PURE_DEATH), 16)
        expected = np.zeros(17)
        expected[0] = 1.0
        np.testing.assert_array_equal(row, expected)

    def test_agrees_with_truncated_solve(self):
        k = kernel(UNIT)
        series = neumann_series_sum(0, 1.0, k, 256)
        direct = solve_row_truncated(0, 1.0, k, 256).values
        assert np.max(np.abs(series - direct)) <= 1e-8

    def test_two_oracle_sweep(self):
        for lam, alpha in [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]:
            k = kernel(QueueParams(lam, alpha))
            for i in (0, 3, 5):
                for s in (0.1, 1.0, 10.0):
                    series = neumann_series_sum(i, s, k, 256)
                    direct = solve_row_truncated(i, s, k, 256).values
                    assert np.max(np.abs(series - direct)) <= 1e-8

    def test_stop_below_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oracle, "_NEUMANN_TERMS", 5)
        with pytest.raises(NonConvergenceError, match="after 5 terms"):
            neumann_series_sum(0, 0.1, kernel(UNIT), 64)

    def test_rejects_bad_arguments(self):
        k = kernel(UNIT)
        with pytest.raises(ValueError):
            neumann_series_sum(0, 0.0, k, 16)
        with pytest.raises(ValueError):
            neumann_series_sum(17, 1.0, k, 16)
        # an array s paired each state with its own abscissa
        with pytest.raises(ValueError, match="one transform variable"):
            neumann_series_sum(0, np.array([1.0, 2.0]), k, 1)

    def test_term_count_and_stop_are_not_arguments(self):
        with pytest.raises(TypeError):
            neumann_series_sum(0, 1.0, kernel(UNIT), 16, 10)
        with pytest.raises(TypeError):
            neumann_series_sum(0, 1.0, kernel(UNIT), 16, stop_below=1e-12)


class TestNormalization:
    def test_converged_rows_satisfy_normalization(self):
        # sum_k (1 - sigma - tau) rbar_ik == 1 at tolerance for every
        # converged adaptive solve on a small parameter sweep
        for lam, alpha in [(0.5, 1.0), (2.0, 0.5)]:
            k = kernel(QueueParams(lam, alpha))
            for i in (0, 2):
                for s in (0.1, 1.0):
                    res = solve_row_adaptive(i, s, k)
                    assert res.converged
                    assert res.normalization_residual <= 1e-10
