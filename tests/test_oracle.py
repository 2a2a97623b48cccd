import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import mrenew.invert as invert
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
        # both routines truncate the same operator at n, and both take a state i <= n: i = n was
        # refused here while the Neumann series accepted it
        for solve in (solve_row_truncated, neumann_series_sum):
            for i, message in ((9, r"n must be in \[9, 131072\], got 8"), (-1, r"i must be in \[0, 65534\], got -1")):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    solve(i, 1.0, kernel(UNIT), 8)
        res = solve_row_truncated(8, 1.0, kernel(UNIT), 8)
        np.testing.assert_allclose(res.values, neumann_series_sum(8, 1.0, kernel(UNIT), 8), rtol=1e-10)

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
        # top = i + 10 = 10: the levels judged are 11 and the cap 16
        monkeypatch.setattr(oracle, "_N_MAX", 16)
        monkeypatch.setattr(oracle, "_TOL", 1e-16)
        with pytest.raises(NonConvergenceError, match="n_max=16;") as err:
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


class _PivotAtSKernel(KernelTransform):
    """sigma_bar = 1 at state round(s), tau_bar = 1 one state below, 0 elsewhere: the
    pivot of row round(s) is 0.  It breaks `KernelTransform`'s contract, being not
    nonincreasing in s; a kernel that keeps it has no small pivot at s > 0."""

    def transforms(self, j, s):
        at = np.round(np.real(s))
        return np.where(j == at, 1.0, 0.0), np.where(j == at - 1, 1.0, 0.0)


class _SlowWalkKernel(KernelTransform):
    """Up and down with weight 1 / (2 + 2s) each: a row decays like e^{-sqrt(2s) k}."""

    def transforms(self, j, s):
        half = np.ones(np.broadcast(j, s).shape) * 0.5 / (1.0 + s)
        return np.where(j == 0, 0.0, half), half


class _ConservativeKernel(KernelTransform):
    """sigma_bar + tau_bar = 1 at every state and s: a reflecting walk that never loses mass."""

    def transforms(self, j, s):
        half = np.ones(np.broadcast(j, s).shape) * 0.5
        return np.where(j == 0, 0.0, half), np.where(j == 0, 1.0, half)


class _WellKernel(KernelTransform):
    """Up with weight 0.9 below state 30 and 0.1 from it, killed at rate s: the row piles up near 30."""

    def transforms(self, j, s):
        up = np.where(j < 30, 0.9, 0.1) / (1.0 + s)
        return np.where(j == 0, 0.0, 1.0 / (1.0 + s) - up), np.where(j == 0, 1.0 / (1.0 + s), up)


@st.composite
def _lattice_problems(draw):
    """(i, j, kernel, s, n0, cap): M|M|inf at rho over [1e-3, 2000], 1 to 2 _MIN_BATCH real
    abscissas over [1e-4, 1e3] or as many Euler abscissas A/2t + i k pi/t, k = 0, 1, ...,
    a floor n0 of 2 to 64, and a cap n_max of _N_MAX, or one time in two 0 to 40 levels
    past max(n0, i + 12, j + 2), where both solvers judge two levels or more.

    rho, s and t are spread evenly over decades.
    """
    i, j, n0 = draw(st.integers(0, 30)), draw(st.integers(0, 30)), draw(st.integers(2, 64))
    k = kernel(QueueParams(1e-3 * 2e6 ** draw(st.floats(0.0, 1.0)), 1.0))
    width = draw(st.integers(1, 2 * oracle._MIN_BATCH))
    if draw(st.booleans()):
        t = 0.05 * 1e3 ** draw(st.floats(0.0, 1.0))
        s_values = [complex(18.4 / (2.0 * t), m * math.pi / t) for m in range(width)]
    else:
        s_values = [1e-4 * 1e7 ** u for u in draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))]
    cap = max(n0, i + 12, j + 2) + draw(st.integers(0, 40)) if draw(st.booleans()) else None
    return i, j, k, s_values, n0, cap


class TestSolveRows:
    # rho = 50 over s in 1e-3..1e3: for (i, j) = (1, 3) the columns are cut at
    # 7 judged levels from N = 13 to 117, where the lost-mass test passes
    # at the ends of the grid and the bound test, earlier, between them
    SPREAD = (QueueParams(50.0, 1.0), np.geomspace(1e-3, 1e3, 20))

    def test_real_columns_bit_identical_to_one_column_solves(self):
        p, s_values = self.SPREAD
        k = kernel(p)
        entries = solve_rows(1, 3, s_values, k)
        assert set(entries.truncation_n.tolist()) == {13, 21, 29, 37, 53, 109, 117}
        lost_mass = oracle._solve_rows(1, 3, s_values, k, TruncationConfig(), margin=0, proven=False)
        assert (lost_mass.truncation_n > entries.truncation_n).sum() == 6
        widest = oracle._MIN_BATCH - 1     # the widest grid swept as a short one
        short = solve_rows(1, 3, s_values[:widest], k)
        for field in ("values", "truncation_n", "normalization_residual"):
            np.testing.assert_array_equal(getattr(short, field), getattr(entries, field)[:widest])
        for col, s in enumerate(s_values.tolist()):
            one = solve_rows(1, 3, [s], k)
            assert entries.values[col] == one.values[0]
            assert entries.truncation_n[col] == one.truncation_n[0]
            assert entries.normalization_residual[col] == one.normalization_residual[0]
            # the lost-mass test alone never cuts earlier, and where it cuts at
            # the same N the sweep is the same, bit for bit
            assert entries.truncation_n[col] <= lost_mass.truncation_n[col]
            if entries.truncation_n[col] == lost_mass.truncation_n[col]:
                assert entries.values[col] == lost_mass.values[col]

    @pytest.mark.parametrize("i, j", [(12, 0), (12, 5), (20, 3), (30, 0), (30, 29), (1, 11), (0, 10), (5, 30),
                                      (1, 40)])
    def test_entry_back_substituted_down_to_j_only(self, i, j):
        # both sweeps back-substitute from top only down to j; the entry has
        # the bits of the whole row 0..top at the same cut.  For j < i,
        # solve_row_adaptive's row holds entry j too, cut deeper (top = i + 10)
        # and summed from its N down: each moves entry j by less than 2**-52
        # of it, and rounding by a few units more (at (20, 3), 3.6 units)
        p, s_values = self.SPREAD
        k = kernel(p)
        top = max(i, j)
        first = max(top + 1, j + 2)     # the first level judged
        for grid in (s_values, s_values[:oracle._MIN_BATCH - 1]):
            entries = solve_rows(i, j, grid, k)
            sweep = oracle._eliminate_short if grid.size < oracle._MIN_BATCH else oracle._eliminate
            rows, levels, _, _ = sweep(i, grid, k, top, 0, first, oracle._N_MAX)
            assert entries.truncation_n.tolist() == list(levels)
            assert entries.values.tobytes() == np.array([row[j] for row in rows]).tobytes()
            for col, s in enumerate(grid.tolist() if j < i else []):
                assert entries.values[col] == pytest.approx(solve_row_adaptive(i, s, k).values[j], rel=2.0**-50)

    @pytest.mark.parametrize("p", [PURE_DEATH, QueueParams(0.1, 1.0)], ids=["no_move", "move"])
    def test_first_level_past_top_judged_without_a_last_move(self, p, monkeypatch):
        # for (i, j) = (10, 0) the first level judged is top + 1 = 11, where the
        # lost mass is below tol but no move of x[top] came before: without
        # arrivals this move is 0 too and the cut is there; at rho = 0.1 it is
        # not, and the move test waits for a ratio of two moves, to level 19
        short = solve_rows(10, 0, [1.0], kernel(p))
        assert short.truncation_n.tolist() == [11 if p is PURE_DEATH else 19]
        monkeypatch.setattr(oracle, "_MIN_BATCH", 1)
        array = solve_rows(10, 0, [1.0], kernel(p))
        for field in ("values", "truncation_n", "normalization_residual"):
            np.testing.assert_array_equal(getattr(short, field), getattr(array, field))

    @pytest.mark.parametrize("width", [2, oracle._MIN_BATCH])
    def test_the_last_level_is_judged_off_the_lattice(self, width, monkeypatch):
        # for (i, j) = (10, 0) at the floor n0 = 8 the levels judged are 11,
        # 19, 27, ...; judged at every level, s = 10 first passes a test at 19,
        # s = 1 at 22 and s = 0.01 at 23, so at the cap n_max = 22 s = 1
        # passes only there
        monkeypatch.setattr(oracle, "_N_MAX", 22)
        k, cfg = kernel(UNIT), TruncationConfig(n0=8)
        entries = oracle._solve_rows(10, 0, [10.0] + [1.0] * (width - 1), k, cfg, margin=0, proven=True)
        assert entries.truncation_n.tolist() == [19] + [22] * (width - 1)
        assert (entries.normalization_residual <= oracle._TOL).all()
        assert entries.values[-1] == solve_row_truncated(10, 1.0, k, 22).values[0]
        with pytest.raises(NonConvergenceError, match=r"s=0\.01\) did not converge by n_max=22;"):
            oracle._solve_rows(10, 0, [1.0] + [0.01] * (width - 1), k, cfg, margin=0, proven=True)

    @given(_lattice_problems())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_every_cut_is_a_judged_level(self, problem):
        # first + 8m or n_max, for solve_rows at any width and for solve_row_adaptive
        i, j, k, s_values, n0, cap = problem
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(oracle, "_N_MAX", cap)
            cfg = TruncationConfig(n0=n0)
            cuts = []       # (first level judged, N) of each column that converged
            with contextlib.suppress(NonConvergenceError):
                rows = oracle._solve_rows(i, j, s_values, k, cfg, margin=0, proven=True)
                cuts += [(max(n0, i + 1, j + 2), int(n)) for n in rows.truncation_n]
            with contextlib.suppress(NonConvergenceError):
                cuts.append((max(n0, i + 11), solve_row_adaptive(i, s_values[0], k, cfg).truncation_n))
            for first, n in cuts:
                assert n == oracle._N_MAX or n >= first and (n - first) % 8 == 0, (first, n)

    def test_complex_columns_match_one_column_solves_and_conjugates(self):
        k = kernel(QueueParams(2.0, 1.0))
        upper = [complex(0.5, y) for y in np.linspace(0.0, 40.0, 12)]
        s_values = upper + [s.conjugate() for s in upper]
        entries = solve_rows(2, 1, s_values, k)
        for col, s in enumerate(s_values):
            one = solve_row_adaptive(2, s, k).values[1]
            assert abs(entries.values[col] - one) <= 1e-13 * abs(one)
        np.testing.assert_allclose(entries.values[12:], np.conj(entries.values[:12]), rtol=1e-15)

    def test_complex_column_with_a_subnormal_last_move_cut_as_a_short_one(self):
        # at rho = 0.001, with top = j = 15, the last move of x[top] before
        # N = 64 is subnormal and the bound test fails there: the ratio of the
        # complex moves must stay finite, or the move test fails and the array
        # columns sweep on (to N = 72)
        k, cfg = kernel(QueueParams(0.001, 1.0)), TruncationConfig(n0=64)
        s = 12.57 + 90.15j
        one = oracle._solve_rows(5, 15, [s], k, cfg, margin=0, proven=True)
        entries = oracle._solve_rows(5, 15, [s] * oracle._MIN_BATCH, k, cfg, margin=0, proven=True)
        assert one.truncation_n.tolist() == [64]
        assert entries.truncation_n.tolist() == [64] * oracle._MIN_BATCH
        np.testing.assert_allclose(entries.values, one.values[0], rtol=1e-15)

    def test_columns_independent_of_their_company(self):
        p, s_values = self.SPREAD
        k = kernel(p)
        together = solve_rows(0, 0, s_values, k).values
        reversed_ = solve_rows(0, 0, s_values[::-1], k).values
        np.testing.assert_array_equal(together, reversed_[::-1])

    def test_nonconvergent_column_named_with_its_residual(self, monkeypatch):
        monkeypatch.setattr(oracle, "_N_MAX", 22)
        # for (i, j) = (10, 0), 0.01 first passes a test at N = 23, past the cap
        # 22; the levels judged are 11, 19 and 22
        s_values = [10.0, 1.0, 0.01, 5.0]
        with pytest.raises(NonConvergenceError) as err:
            oracle._solve_rows(10, 0, s_values, kernel(UNIT), TruncationConfig(n0=8), margin=0, proven=True)
        assert "s=0.01" in str(err.value)
        # the residual is the mass the cut at the cap loses, |tau_bar(22) x[22]|
        k = kernel(UNIT)
        tau = k.transforms(np.array([[22]]), np.array([0.01]))[1].item()
        assert err.value.residual == abs(tau * solve_row_truncated(10, 0.01, k, 22).values[22])

    def test_pivot_error_still_raised(self):
        # forward elimination meets the zero pivot at row 1 first
        with pytest.raises(PivotError, match=r"at row 1, s=1\.0$"):
            solve_row_truncated(0, 1.0, _ZeroPivotKernel(), 8)
        for s_values in ([1.0, 2.0], np.linspace(1.0, 2.0, 40)):
            with pytest.raises(PivotError, match=r"at row 1, s=1\.0$"):
                solve_rows(0, 0, s_values, _ZeroPivotKernel())

    @pytest.mark.parametrize("grid, named", [([20.0, 10.0], 10.0), ([20.0, 10.4, 9.6], 10.4)])
    def test_pivot_error_names_the_lowest_row_then_the_first_abscissa(self, grid, named):
        # both sweeps step every open column of a block before they report its
        # lowest small pivot; 10.4 and 9.6 meet theirs at one row, which the
        # target j = 10 keeps them from cutting before
        padded = grid + grid[-1:] * (oracle._MIN_BATCH - len(grid))
        for s_values, s in ((grid, named), (padded, named), (grid[::-1], grid[-1])):
            with pytest.raises(PivotError, match=rf"^pivot 0\.0 below 1e-14 at row 10, s={s}$"):
                solve_rows(0, 10, s_values, _PivotAtSKernel())

    def test_short_grid_reads_each_block_once(self, monkeypatch):
        calls = []      # (lowest state, highest state, columns) per kernel call
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            calls.append((int(np.min(j)), int(np.max(j)), np.size(s)))
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        p, s_values = self.SPREAD
        solve_rows(1, 3, s_values[:6], kernel(p))
        # the first block steps _FIRST_BLOCK = 65 states, past the first level
        # judged, 5, and reads one more: states 0..65, all six columns at once
        assert [call for call in calls if call[0] == 0] == [(0, 65, 6)]
        assert all(columns <= 6 for _, _, columns in calls)

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
        # 100 Euler abscissas at t = 2, rho = 1000, target 1000: the deep sweep
        # fills its blocks, 61 states x 100 columns, the row read ahead included
        grid = [complex(9.2 / 2.0, k * math.pi / 2.0) for k in range(100)]
        solve_rows(0, 1000, grid, kernel(QueueParams(1000.0, 1.0)))
        assert any(len(shape) == 2 for shape in shapes)
        assert max(math.prod(shape) for shape in shapes) == 6100
        for shape in shapes:
            assert shape[0] * shape[1] <= oracle._SWEEP_ELEMENTS

    def test_level_sweeps_every_open_column_together(self, monkeypatch):
        # 400 columns leave room for 15 states per block: 14 stepped and 1
        # read ahead.  The blocks get shorter, the sweep never splits its columns
        k = kernel(QueueParams(20.0, 1.0))
        s_values = np.geomspace(0.05, 50.0, 400)
        halves = [solve_rows(15, 2, half, k) for half in (s_values[:200], s_values[200:])]
        calls = []      # (lowest state, highest state, columns) per kernel call
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            calls.append((int(np.min(j)), int(np.max(j)), np.size(s)))
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        entries = solve_rows(15, 2, s_values, k)
        assert [lo for lo, _, _ in calls] == list(range(0, 14 * len(calls), 14))
        assert all(high == low + 14 for low, high, _ in calls)
        assert all(columns == 400 for _, _, columns in calls)
        for field in ("values", "truncation_n", "normalization_residual"):
            together = getattr(entries, field)
            np.testing.assert_array_equal(together, np.concatenate([getattr(h, field) for h in halves]))

    def test_deep_complex_grid_shares_one_sweep_per_block(self, monkeypatch):
        # the 100 Euler abscissas of t = 2 and t = 5 at rho = 1000, target
        # j = 1000, are cut by the lost-mass test at N = 1090 to 1252; no
        # column may fall back to a sweep of its own
        shapes = []
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            shapes.append((np.shape(j), np.shape(s)))
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        grid = [complex(9.2 / t, k * math.pi / t) for t in (2.0, 5.0) for k in range(50)]
        entries = solve_rows(0, 1000, grid, kernel(QueueParams(1000.0, 1.0)))
        assert entries.truncation_n.min() >= 1024
        assert all(len(j) == 2 and len(s) == 1 and s[0] >= oracle._MIN_BATCH for j, s in shapes)

    def test_row_below_the_cap_judged_twice(self):
        # top = i = 65530: the levels judged are 65531, 65539, ..., and the row is cut at
        # the second, far below the cap n_max = 2**17.  With top = i + 10 the row was once
        # judged past a cap of 65536, with no ratio of moves, and refused as not converged
        k = kernel(UNIT)
        entries = solve_rows(65530, 0, [1.0], k)
        assert entries.truncation_n.tolist() == [65539]
        assert entries.values[0] == 1.1227817521312554e-05
        closed = rbar_closed_form(65530, 0, 1.0, UNIT)
        assert abs(entries.values[0] - closed) <= 1e-13 * closed        # 8.9e-14 of it

    def test_rows_past_the_last_judged_state_refused(self):
        # every route's states end at 65534, whatever its top: solve_row_adaptive's
        # i + 10 no longer narrows its range (it refused i past 65524)
        k = kernel(UNIT)
        for call, message in ((lambda: solve_rows(65535, 0, [1.0], k), r"i must be in \[0, 65534\], got 65535"),
                              (lambda: solve_rows(0, 65535, [1.0], k), r"j must be in \[0, 65534\], got 65535"),
                              (lambda: solve_rows(70000, 0, [1.0], k), r"i must be in \[0, 65534\], got 70000"),
                              (lambda: solve_row_adaptive(65535, 1.0, k), r"i must be in \[0, 65534\], got 65535")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    @pytest.mark.parametrize("rho", [1.0, 100.0, 2000.0, 30000.0])
    @pytest.mark.parametrize("top", [65492, 65534])
    def test_rows_at_the_end_of_the_range_cut_below_the_cap(self, top, rho):
        # with the cap at 2**16 these rows were refused as not converged: the first failing
        # top of solve_rows(top, 0, [1.0]) was 65534 at rho = 1 and 65492 at rho = 30000.
        # Each entry is within the rounding bound of the largest of entries 0..top of the
        # row cut 64 levels deeper, absolute since the j = 0 entries underflow to 0 at
        # rho >= 2000; j = top is the row of `renewal --i 65534 --j 65534`
        k = kernel(QueueParams(rho, 1.0))
        real = np.array([0.01, 1.0, 100.0])
        euler = np.array([complex(9.2, m * math.pi) for m in range(27)])    # Euler's abscissas at t = 1
        for grid, targets in ((real, (0, top)), (euler, (top,))):
            entries = [solve_rows(top, j, grid, k) for j in targets]
            cut = max(int(e.truncation_n.max()) for e in entries)
            assert cut < oracle._N_MAX
            n = cut + 64
            # solve_row_truncated's sweep at n, over the whole grid in one pass
            sweep = oracle._eliminate_short if grid.size < oracle._MIN_BATCH else oracle._eliminate
            rows = sweep(top, grid, k, n, 0, n, n)[0]
            for j, e in zip(targets, entries):
                for s, value, row in zip(grid, e.values, rows):
                    assert abs(value - row[j]) <= 1e-12 * max(1.0, 0.01 / abs(s)) * np.max(np.abs(row[: top + 1]))

    def test_adaptive_row_at_the_last_state_converges(self):
        # top = i + 10 = 65544 lies past the last state: its range was [0, 65524]
        res = solve_row_adaptive(65534, 1.0, kernel(UNIT))
        assert res.converged and res.truncation_n < oracle._N_MAX
        assert res.normalization_residual <= 1e-10

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

    def test_config_option_removed(self):
        # the first judged level is the row's own: only solve_row_adaptive takes a floor
        with pytest.raises(TypeError):
            solve_rows(0, 0, [1.0], kernel(UNIT), TruncationConfig())

    def test_record_keeps_its_own_abscissas(self):
        for s_values in (np.array([0.5, 1.0]), np.array([0.5 + 1j, 1.0 - 2j])):
            before = s_values.copy()
            entries = solve_rows(0, 0, s_values, kernel(UNIT))
            s_values[:] = 7.0
            assert np.array_equal(entries.s, before)

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
        # every state kept, as solve_row_truncated runs it; a short grid steps Python scalars
        sweep = oracle._eliminate_short if count < oracle._MIN_BATCH else oracle._eliminate
        rows, levels, residuals, _ = sweep(i, s_values, self.K, n, 0, n, n)
        assert list(levels) == [n] * count
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
    """solve_rows against a banded LU solve of the same system cut at twice its N
    or solve_row_adaptive's, whichever is deeper.

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
        # the bound test can cut solve_rows early; the reference stays as deep as the lost-mass cut
        n = 2 * max(int(entries.truncation_n[0]), solve_row_adaptive(i, s, k).truncation_n)
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


@st.composite
def _low_cut_problems(draw):
    """(i, j, rho, s): i, j <= 30, rho over [1e-3, 5], and 1 to 2 _MIN_BATCH real abscissas
    over [1e-4, 1e3] or as many Euler abscissas A/2t + i k pi/t, k = 0, 1, ...

    rho, s and t are spread evenly over decades.
    """
    i, j, rho = draw(st.integers(0, 30)), draw(st.integers(0, 30)), 1e-3 * 5e3 ** draw(st.floats(0.0, 1.0))
    width = draw(st.integers(1, 2 * oracle._MIN_BATCH))
    if draw(st.booleans()):
        t = 0.05 * 1e3 ** draw(st.floats(0.0, 1.0))
        return i, j, rho, [complex(18.4 / (2.0 * t), m * math.pi / t) for m in range(width)]
    return i, j, rho, [1e-4 * 1e7 ** u for u in draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))]


class TestLowCuts:
    """Rows cut below 64 states, the old floor, at rho <= 5, against a banded LU solve of
    the same system cut at twice the deeper of solve_rows' N and solve_row_adaptive's,
    at TestAgainstBandedSolve's bound: solve_rows' entry, and solve_row_adaptive's entries
    0..i+10, whose stop test covers them."""

    @given(_low_cut_problems())
    @settings(max_examples=125, derandomize=True, deadline=None)
    def test_rows_match_a_deeper_banded_solve(self, problem):
        i, j, rho, s_values = problem
        k = kernel(QueueParams(rho, 1.0))
        entries = solve_rows(i, j, s_values, k)
        assert entries.truncation_n.max() < 64
        worst = 0.0
        for s, value, cut in zip(s_values, entries.values, entries.truncation_n.tolist()):
            row = solve_row_adaptive(i, s, k)
            assert row.truncation_n < 64
            n = 2 * max(cut, row.truncation_n)
            sigma, tau = k.transforms(np.arange(n + 1), s)
            bands = np.zeros((3, n + 1), dtype=sigma.dtype)    # equation k, as in the module docstring
            bands[0, 1:], bands[1], bands[2, :-1] = -sigma[1:], 1.0, -tau[:-1]
            unit = np.zeros(n + 1)
            unit[i] = 1.0
            x = solve_banded((1, 1), bands, unit)
            bound = 1e-12 * max(1.0, 0.01 / abs(s))
            worst = max(worst, abs(value - x[j]) / (bound * np.max(np.abs(x[: max(i + 10, j) + 1]))),
                        np.max(np.abs(row.values[: i + 11] - x[: i + 11])) / (bound * np.max(np.abs(x[: i + 11]))))
        target(worst)    # steer the search to the worst case
        assert worst <= 1.0


class TestLostMassResidual:
    """solve_rows reports the mass its cut loses, |tau_bar(N) x[N]| of the row cut at N.

    Past the cut the normalization sum obeys sum_{k<=N} c_k x_k = 1 - tau_bar(N) x[N]
    exactly, so the residual solve_row_truncated sums over the same row differs from
    the lost mass only by rounding: that of the entries, each within
    1e-12 max(1, 0.01 / |s|) of the largest (TestAgainstBandedSolve), times sum_k |c_k|,
    and that of the sum, (N + 1) 2**-52 (sum_k |c_k x_k| + 1).
    """

    @given(_entry_problems())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_residual_is_the_lost_mass_and_the_summed_residual_to_rounding(self, problem):
        i, j, rho, s = problem
        k = kernel(QueueParams(rho, 1.0))
        entries = solve_rows(i, j, [s], k)
        n = int(entries.truncation_n[0])
        row = solve_row_truncated(i, s, k, n)
        sigma, tau = (a[:, 0] for a in k.transforms(np.arange(n + 1)[:, None], np.array([s])))
        lost = abs(tau[n] * row.values[n])
        assert entries.normalization_residual[0] == lost
        c = 1.0 - sigma - tau
        bound = (1e-12 * max(1.0, 0.01 / abs(s)) * np.max(np.abs(row.values)) * np.sum(np.abs(c))
                 + (n + 1) * 2.0**-52 * (np.sum(np.abs(c * row.values)) + 1.0))
        share = abs(row.normalization_residual - lost) / bound
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


@st.composite
def _column_problems(draw):
    """(i, j, rho, s): i, j <= 300, rho <= 2000, real s over [1e-6, 1e3] or an Euler abscissa.

    rho and s are spread evenly over decades; rho = 0 one time in eight.
    """
    i, j = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    rho = 0.0 if draw(st.integers(0, 7)) == 7 else 1e-3 * 2e6 ** draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        t = 0.05 * 1e3 ** draw(st.floats(0.0, 1.0))
        return i, j, rho, complex(18.4 / (2.0 * t), draw(st.integers(0, 49)) * math.pi / t)
    return i, j, rho, 1e-6 * 1e9 ** draw(st.floats(0.0, 1.0))


@st.composite
def _fork_problems(draw):
    """(i, j, kernel, s): M|M|inf at rho over [1e-3, 2000] and alpha over [0.5, 2], with
    1 to _MIN_BATCH - 1 real abscissas over [1e-4, 1e3] or _MIN_BATCH - 1 Euler
    abscissas A/2t + i k pi/t, k = 0, 1, ...

    rho, alpha, s and t are spread evenly over decades.
    """
    i, j = draw(st.integers(0, 30)), draw(st.integers(0, 30))
    rho, alpha = 1e-3 * 2e6 ** draw(st.floats(0.0, 1.0)), 0.5 * 4.0 ** draw(st.floats(0.0, 1.0))
    k = kernel(QueueParams(rho / alpha, alpha))
    if draw(st.booleans()):
        t = 0.05 * 1e3 ** draw(st.floats(0.0, 1.0))
        return i, j, k, [complex(18.4 / (2.0 * t), m * math.pi / t) for m in range(oracle._MIN_BATCH - 1)]
    decades = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=oracle._MIN_BATCH - 1)
    return i, j, k, [1e-4 * 1e7 ** u for u in draw(decades)]


class _PlantedKernel(KernelTransform):
    """M|M|inf at rho (alpha = 1) for Re(s) < threshold; from it on zero but for the
    planted {state: (sigma_bar, tau_bar)}.  Not `KernelTransform`-conforming."""

    def __init__(self, rho, threshold, plant):
        self.k, self.threshold, self.plant = kernel(QueueParams(rho, 1.0)), threshold, plant

    def transforms(self, j, s):
        sigma, tau = self.k.transforms(j, s)
        far = np.real(s) >= self.threshold
        sigma, tau = np.where(far, 0.0, sigma), np.where(far, 0.0, tau)
        for state, (sigma_at, tau_at) in self.plant.items():
            at = far & (j == state)
            sigma, tau = np.where(at, sigma_at, sigma), np.where(at, tau_at, tau)
        return sigma, tau


@st.composite
def _planted_pivot_problems(draw):
    """(i, j, kernel, s): a `_PlantedKernel` at rho over [1, 2000] whose pivot at a row
    3 to 202 is 0 (sigma_bar = 1 there, tau_bar = 1 one state below) at the abscissas
    from a threshold on, with 1 to _MIN_BATCH - 1 real abscissas over [1e-4, 1e3].

    rho, s and the threshold are spread evenly over decades.
    """
    i, j, row = draw(st.integers(0, 30)), draw(st.integers(0, 30)), 2 + draw(st.integers(1, 200))
    rho, threshold = 2e3 ** draw(st.floats(0.0, 1.0)), 1e-4 * 1e7 ** draw(st.floats(0.0, 1.0))
    k = _PlantedKernel(rho, threshold, {row: (1.0, 0.0), row - 1: (0.0, 1.0)})
    decades = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=oracle._MIN_BATCH - 1)
    return i, j, k, [1e-4 * 1e7 ** u for u in draw(decades)]


class TestSweepFork:
    """A short grid against the same grid padded to _MIN_BATCH columns by its last
    abscissa, which the array sweep takes instead."""

    @staticmethod
    def padded(s_values):
        return s_values + s_values[-1:] * (oracle._MIN_BATCH - len(s_values))

    @given(_fork_problems())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_short_and_array_sweeps_agree_per_column(self, problem):
        i, j, k, s_values = problem
        short, padded = solve_rows(i, j, s_values, k), solve_rows(i, j, self.padded(s_values), k)
        width = len(s_values)
        assert short.truncation_n.tolist() == padded.truncation_n[:width].tolist()
        if np.iscomplexobj(short.values):
            # Python and numpy divide complex numbers by different rules
            np.testing.assert_allclose(short.values, padded.values[:width], rtol=1e-13, atol=0.0)
        else:
            for field in ("values", "normalization_residual"):
                assert getattr(short, field).tobytes() == getattr(padded, field)[:width].tobytes(), field

    @given(_planted_pivot_problems())
    @settings(max_examples=200, derandomize=True, deadline=None)
    @example((40, 40, _PlantedKernel(200.0, 50.0, {70: (1.0, 0.0), 69: (0.0, 1.0)}), [100.0, 1e-3]))
    def test_a_planted_pivot_gives_one_outcome_at_either_width(self, problem):
        # a pivot counts only while its column is open: the array sweep steps a
        # cut column on with the open ones, and raised at a zero pivot past its
        # cut where the short sweep answered (N = 42 and 82 in the example)
        i, j, k, s_values = problem

        def outcome(grid):
            try:
                entries = solve_rows(i, j, grid, k)
            except PivotError as err:
                return str(err)
            return [getattr(entries, field)[:len(s_values)].tobytes()
                    for field in ("truncation_n", "values", "normalization_residual")]

        assert outcome(s_values) == outcome(self.padded(s_values))

    @pytest.mark.parametrize("state", [1000, 1100, 1200, 1300])
    def test_a_nan_past_every_cut_gives_one_outcome_at_either_width(self, state):
        # the columns are cut at N = 850 and 602; a block held 6144 // columns
        # states, so at 2 columns the block from state 603 reached 1206 and met
        # the NaN at 1100 or 1200, where 17 columns, in blocks of 360 states,
        # answered; both widths now read blocks of 6144 // _MIN_BATCH - 1
        # states, up to the end of the block that steps state 850
        block = oracle._SWEEP_ELEMENTS // oracle._MIN_BATCH - 1
        reach = block * (850 // block + 1)
        k = _PlantedKernel(600.0, 50.0, {state: (0.0, math.nan)})

        def outcome(grid):
            try:
                entries = solve_rows(600, 600, grid, k)
            except ValueError as err:
                return str(err)
            return entries.truncation_n[:2].tolist()

        s_values = [1e-3, 100.0]
        assert outcome(s_values) == outcome(self.padded(s_values))
        assert outcome(s_values) == ([850, 602] if state > reach else
                                     f"kernel values at state {state}, s=100.0 are not finite: "
                                     "sigma_bar = 0.0, tau_bar = nan")


class TestBoundTest:
    """solve_rows' bound test against the lost-mass test alone (solve_row_adaptive's)."""

    FAR = QueueParams(558.842, 1.41448)     # rho = 790.5, far above the target (14, 9)

    @staticmethod
    def cut(i, j, s, k, proven):
        """Entries 0..top, and N, of one column as solve_rows cuts it, or by the lost-mass test alone."""
        top = max(i, j)
        first = max(top + 1, j + 2)     # the first level judged
        rows, levels, _, passed = oracle._eliminate_short(i, np.array([s]), k, top, 0, first,
                                                          oracle._N_MAX, proven)
        assert all(passed)
        return rows[0], int(levels[0])

    @pytest.mark.parametrize("method", ["gaver-stehfest", "euler"])
    def test_cuts_far_below_rho_at_the_floor_with_the_same_bits(self, method):
        # the abscissas renewal_function sends for each time; top = 14, and the
        # levels judged are 15, 23, 31, ...
        s_values = [s for t in (0.5, 5.0, 300.0) for s in invert._rule(method, t)[0]]
        k = kernel(self.FAR)
        entries = solve_rows(14, 9, s_values, k)
        assert entries.truncation_n.tolist() == [31] * len(s_values)
        lost_mass = oracle._solve_rows(14, 9, s_values, k, TruncationConfig(), margin=0, proven=False)
        assert lost_mass.truncation_n.min() > 100
        assert np.array_equal(entries.values, lost_mass.values)

    @given(_column_problems())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_never_deeper_and_within_one_unit_of_x_top(self, problem):
        i, j, rho, s = problem
        k = kernel(QueueParams(rho, 1.0))
        row, n = self.cut(i, j, s, k, proven=True)
        reference, n_lost_mass = self.cut(i, j, s, k, proven=False)
        assert n <= n_lost_mass
        top = max(i, j)
        # the cut moves x[top] by less than 2**-52 of it; then rounding, 2**-52 of the entry
        assert abs(row[j] - reference[j]) <= 2.0**-52 * (abs(reference[top]) + abs(reference[j]))

    @pytest.mark.parametrize("s", [1e-9, 1e-6, 1e-3])
    def test_holds_where_the_row_piles_up_past_the_cut(self, s):
        # x[N+1] reaches ~1e6 below state 30; bounding it by 1 instead of
        # 1 / c[N+1] cut at N = 26 and moved the entry by 2.6e-10 at s = 1e-9
        value = solve_rows(0, 10, [s], _WellKernel()).values[0]
        reference = oracle._solve_rows(0, 10, [s], _WellKernel(), TruncationConfig(), margin=0, proven=False).values[0]
        assert abs(value - reference) <= 2.0**-52 * 2 * abs(reference)

    @pytest.mark.parametrize("s", [1.0, 0.5 + 3j], ids=["real", "complex"])
    @pytest.mark.parametrize("count", [1, oracle._MIN_BATCH], ids=["scalars", "batched"])
    def test_no_bound_where_no_mass_is_lost_or_x_top_is_zero(self, s, count, monkeypatch):
        # with the lost-mass test switched off, only the bound test could cut
        monkeypatch.setattr(oracle, "_TOL", -1.0)
        monkeypatch.setattr(oracle, "_N_MAX", 300)
        assert solve_rows(14, 9, [s] * count, kernel(self.FAR)).truncation_n.tolist() == [31] * count
        # c = 1 - sigma_bar - tau_bar = 0 everywhere, and at rho = 0 x[top] = 0
        for k in (_ConservativeKernel(), kernel(PURE_DEATH)):
            with pytest.raises(NonConvergenceError, match="n_max=300;"):
                solve_rows(14, 9, [s] * count, k)


class TestAbscissaFloor:
    """Re(s) below 1e-14, where the rounding bound passes the entries' size, is refused."""

    @pytest.mark.parametrize("s", [1e-15, 1e-100, 1e-320, complex(1e-15, 1.0)])
    def test_refused_below_the_floor(self, s):
        k = kernel(UNIT)
        for call in (
            lambda: solve_rows(0, 0, [s], k),
            lambda: solve_rows(0, 0, [1.0] * oracle._MIN_BATCH + [s], k),
            lambda: solve_row_truncated(0, s, k, 16),
            lambda: solve_row_adaptive(0, s, k),
            lambda: neumann_series_sum(0, s, k, 16),
        ):
            with pytest.raises(ValueError, match=r"Re\(s\) >= 1e-14"):
                call()

    def test_answered_from_the_floor_up(self):
        # the accuracy at s = 1e-6 is TestBottomOfTheRange's
        for s in (1e-14, 1e-6, complex(1e-14, 1.0)):
            assert np.isfinite(solve_rows(0, 0, [s], kernel(UNIT)).values[0])
            assert np.isfinite(solve_row_adaptive(0, s, kernel(UNIT)).values[0])


class _SpoiltKernel(KernelTransform):
    """M|M|inf at rho = 2, but entry 0 (sigma_bar) or 1 (tau_bar) is `value` at state 40,
    at real s only if so asked."""

    def __init__(self, entry, value, real_only=False):
        self.entry, self.value, self.real_only = entry, value, real_only

    def transforms(self, j, s):
        pair = list(kernel(QueueParams(2.0, 1.0)).transforms(j, s))
        if not (self.real_only and np.iscomplexobj(s)):
            pair[self.entry] = np.where(j == 40, self.value, pair[self.entry])
        return tuple(pair)


class TestNonFiniteKernel:
    """A kernel value that is not finite is refused at once, naming its state and abscissa."""

    @pytest.mark.parametrize("entry", [0, 1], ids=["sigma", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_every_route_refuses(self, entry, value):
        # a NaN swept solve_rows to n_max and the Neumann sum to its term cap;
        # an infinity gave rows of NaN
        k = _SpoiltKernel(entry, value)
        for call in (
            lambda: solve_rows(0, 0, [0.5, 1.0], k),
            lambda: solve_rows(0, 0, np.linspace(0.5, 2.0, oracle._MIN_BATCH), k),
            lambda: solve_row_truncated(0, 0.5, k, 64),
            lambda: solve_row_adaptive(0, 0.5, k),
            lambda: neumann_series_sum(0, 0.5, k, 64),
        ):
            with pytest.raises(ValueError, match=r"at state 40, s=0\.5 are not finite"):
                call()

    def test_lowest_state_named_first(self):
        # a short grid reads each block for all its columns: the lowest bad
        # state is named, and among its abscissas the first
        class Spoilt(KernelTransform):
            def transforms(self, j, s):
                sigma, tau = kernel(QueueParams(2.0, 1.0)).transforms(j, s)
                return sigma, np.where(j == np.where(s < 1.0, 40, 30), math.nan, tau)

        for s_values in ([0.5, 1.0, 2.0], [0.5, *np.linspace(1.0, 2.0, oracle._MIN_BATCH - 1)]):
            with pytest.raises(ValueError, match=r"at state 30, s=1\.0 are not finite"):
                solve_rows(0, 0, s_values, Spoilt())

    def test_read_for_a_column_past_its_cut_at_either_width(self):
        # s = 100 is cut at N = 42, but s = 1e-3 reads on to N = 82: every
        # block is read for every abscissa, so both widths meet the NaN at
        # state 100; the short sweep read only the open columns and answered
        k = _PlantedKernel(200.0, 50.0, {100: (0.0, math.nan)})
        for s_values in ([100.0, 1e-3], [100.0] + [1e-3] * (oracle._MIN_BATCH - 1)):
            with pytest.raises(ValueError, match=r"^kernel values at state 100, s=100\.0 are not finite: "
                                                 r"sigma_bar = 0\.0, tau_bar = nan$"):
                solve_rows(40, 40, s_values, k)

    def test_value_at_the_real_part_refused(self):
        # the bound test at complex s reads c at Re s; a NaN there went unseen
        k = _SpoiltKernel(0, math.nan, real_only=True)
        for s_values in ([complex(0.5, 2.0)], [complex(0.5, y) for y in range(oracle._MIN_BATCH)]):
            with pytest.raises(ValueError, match=r"at state 40, s=0\.5 are not finite: sigma_bar = nan"):
                solve_rows(0, 0, s_values, k)


class TestKernelCallShape:
    """Every solver reads the kernel in the one shape `validate_kernel` checks:
    a column of states (rows, 1) against a row of abscissas (cols,)."""

    @pytest.mark.parametrize(
        "route, cols",
        [
            (lambda k: solve_rows(1, 3, np.geomspace(0.1, 10.0, 6), k), 6),
            (lambda k: solve_rows(1, 3, invert._rule("euler", 2.0)[0], k), 27),
            (lambda k: solve_row_truncated(2, 0.5, k, 40), 1),
            (lambda k: solve_row_adaptive(2, 0.5, k), 1),
            (lambda k: solve_row_adaptive(2, complex(0.5, 3.0), k), 1),
            (lambda k: neumann_series_sum(2, 0.5, k, 40), 1),
            (lambda k: neumann_series_sum(2, complex(0.5, 3.0), k, 40), 1),
        ],
        ids=["short-sweep", "array-sweep", "truncated", "adaptive-real", "adaptive-complex",
             "neumann-real", "neumann-complex"],
    )
    def test_states_in_a_column_abscissas_in_a_row(self, route, cols, monkeypatch):
        shapes = []
        real = MMInfinityKernel.transforms

        def spy(self, j, s):
            shapes.append((np.shape(j), np.shape(s)))
            return real(self, j, s)

        monkeypatch.setattr(MMInfinityKernel, "transforms", spy)
        route(kernel(QueueParams(2.0, 1.0)))
        assert shapes
        for j, s in shapes:
            assert len(j) == 2 and j[1] == 1 and len(s) == 1 and 1 <= s[0] <= cols
        # the first block is read at every column
        assert max(s[0] for _, s in shapes) == cols


class TestTruncationConfig:
    def test_defaults_valid(self):
        assert [f.name for f in dataclasses.fields(TruncationConfig)] == ["n0"]
        assert TruncationConfig().n0 == 2
        assert oracle._N_MAX == 2**17 and oracle._TOL == 1e-10
        assert TruncationConfig(n0=2**17).n0 == 2**17

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n0": 1},
            {"n0": -64},
            {"n0": 2**17 + 1},    # above the cap n_max
            {"n0": 2**18},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TruncationConfig(**kwargs)

    def test_floor_must_be_an_integer(self):
        # 64.5 was accepted, and the solve then raised a bare TypeError
        with pytest.raises(TypeError):
            TruncationConfig(n0=64.5)
        assert TruncationConfig(n0=np.int64(64)).n0 == 64

    @pytest.mark.parametrize("kwargs", [{"n_max": 2**10}, {"tol": 1e-12}])
    def test_cap_and_tolerance_are_not_options(self, kwargs):
        with pytest.raises(TypeError):
            TruncationConfig(**kwargs)

    def test_real_cap_is_named(self):
        # a symmetric walk killed at rate s ~ 1e-12 decays over ~1e6 states
        with pytest.raises(NonConvergenceError, match=r"by n_max=131072;"):
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
