import dataclasses
import math
import warnings

import numpy as np
import pytest

from mrenew import (
    EventCapError,
    MMInfinityKernel,
    QueueParams,
    SimConfig,
    simulate_renewal_counts,
)
from mrenew import mcsim
from mrenew.mcsim import _BLOCK, step_embedded

UNIT = QueueParams(1.0, 1.0)
PURE_DEATH = QueueParams(0.0, 1.0)


def _draws(n, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return rng.random((n, 2))


def _same(runs_a, runs_b):
    """Two results of simulate_renewal_counts hold the same records, bit for bit."""
    return len(runs_a) == len(runs_b) and all(
        (a.i, a.j, a.n_paths) == (b.i, b.j, b.n_paths)
        and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("t", "mean", "std_error"))
        for a, b in zip(runs_a, runs_b)
    )


def _step(state, p, u_time, u_dir):
    """step_embedded on one-element inputs, back as Python scalars."""
    kernel = MMInfinityKernel(p)
    states, sojourns = step_embedded(np.array([state]), kernel, np.array([u_time]), np.array([u_dir]))
    return int(states[0]), float(sojourns[0])


class TestStepEmbedded:
    def test_absorbed_at_empty_system_without_arrivals(self):
        state, sojourn = _step(0, PURE_DEATH, 0.5, 0.5)
        assert math.isinf(sojourn)
        assert state == 0

    def test_state_zero_always_moves_up(self):
        for u in (0.0, 0.3, 0.999999):
            state, sojourn = _step(0, UNIT, 0.5, u)
            assert state == 1
            assert sojourn > 0.0

    def test_sojourn_strictly_positive_even_at_zero_uniform(self):
        _, sojourn = _step(3, UNIT, 0.0, 0.5)
        assert sojourn > 0.0

    def test_moves_are_one_step(self):
        for u in (0.1, 0.9):
            state, _ = _step(4, UNIT, 0.5, u)
            assert state in (3, 5)

    def test_empirical_race_law(self):
        # j = 2, lam = alpha = 1: total rate 3, up-probability 1/3, mean
        # sojourn 1/3; one million draws stay within 3 standard errors
        n = 1_000_000
        draws = _draws(n, seed=2024)
        states, sojourns = step_embedded(np.full(n, 2), MMInfinityKernel(UNIT), draws[:, 0], draws[:, 1])
        up_frac = np.count_nonzero(states == 3) / n
        se_up = math.sqrt(up_frac * (1 - up_frac) / n)
        assert abs(up_frac - 1.0 / 3.0) <= 3 * se_up
        mean_sojourn = sojourns.sum() / n
        se_sojourn = math.sqrt((np.square(sojourns).sum() / n - mean_sojourn**2) / n)
        assert abs(mean_sojourn - 1.0 / 3.0) <= 3 * se_sojourn

    @pytest.mark.parametrize("j", [0, 1, 5])
    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_step_transform_matches_kernel(self, j, s):
        # E[exp(-s T); up] == tau_bar(j, s): the identity tying the
        # simulator to the transform kernel
        n = 1_000_000
        draws = _draws(n, seed=90_000 + j)
        kernel = MMInfinityKernel(UNIT)
        sigma_ref, tau_ref = kernel.transforms(j, s)
        states, sojourns = step_embedded(np.full(n, j), kernel, draws[:, 0], draws[:, 1])
        weights = np.exp(-s * sojourns)
        up_vals = np.where(states == j + 1, weights, 0.0)
        down_vals = np.where(states == j - 1, weights, 0.0)
        for sample, reference in ((up_vals, tau_ref), (down_vals, sigma_ref)):
            mean = sample.mean()
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(mean - reference) <= 4 * max(se, 1e-12)


class TestSimulateRenewalCounts:
    def test_one_record_per_target_with_arrays_over_the_grid(self):
        cfg = SimConfig(n_paths=300, seed=2)
        times = [0.25, 0.5, 1.0, 2.0]
        estimates = simulate_renewal_counts(1, [3, 0, 1], times, UNIT, cfg)
        assert [(est.i, est.j, est.n_paths) for est in estimates] == [(1, 3, 300), (1, 0, 300), (1, 1, 300)]
        for est in estimates:
            assert np.array_equal(est.t, times)
            for values in (est.t, est.mean, est.std_error):
                assert isinstance(values, np.ndarray) and values.dtype == float and values.shape == (4,)

    def test_absorbed_case_is_exact(self):
        cfg = SimConfig(n_paths=500, seed=1)
        (est,) = simulate_renewal_counts(0, [0], [0.5, 5.0], PURE_DEATH, cfg)
        assert np.array_equal(est.mean, [1.0, 1.0])
        assert np.array_equal(est.std_error, [0.0, 0.0])

    def test_single_service_completion_probability(self):
        # count of entries into 0 by t is Bernoulli(1 - exp(-t))
        cfg = SimConfig(n_paths=100_000, seed=7)
        (est,) = simulate_renewal_counts(1, [0], [0.5, 1.0, 2.0], PURE_DEATH, cfg)
        exact = 1.0 - np.exp(-est.t)
        assert est.std_error[1] == pytest.approx(0.0015, abs=3e-4)
        assert np.all(np.abs(est.mean - exact) <= 3 * est.std_error)

    def test_mean_contains_identity_offset(self):
        # one block: the means are its counts' means, plus delta_ij
        cfg = SimConfig(n_paths=200, seed=3)
        times = np.array([0.5, 1.0])
        stay, leave = simulate_renewal_counts(2, [2, 3], times, UNIT, cfg)
        counts = mcsim._walk_block(MMInfinityKernel(UNIT), 2, np.array([2, 3]), times, cfg, 0)
        assert np.array_equal(stay.mean, 1.0 + counts.mean(axis=0)[0])
        assert np.array_equal(leave.mean, counts.mean(axis=0)[1])
        assert np.all(stay.mean >= 1.0) and np.all(leave.mean >= 0.0)

    def test_monotone_along_time_grid(self):
        cfg = SimConfig(n_paths=2_000, seed=11)
        estimates = simulate_renewal_counts(0, [0, 1], [0.5, 1.0, 2.0, 3.0], UNIT, cfg)
        for est in estimates:
            assert np.all(np.diff(est.mean) >= 0.0)

    def test_seed_determinism_across_worker_counts(self):
        # two blocks, the second partial
        cfg = SimConfig(n_paths=2_000, seed=42)
        serial = simulate_renewal_counts(0, [0, 1], [0.5, 1.0, 2.0], UNIT, cfg, workers=1)
        for workers in (2, 4):
            parallel = simulate_renewal_counts(0, [0, 1], [0.5, 1.0, 2.0], UNIT, cfg, workers=workers)
            assert _same(serial, parallel)

    def test_different_seeds_differ(self):
        cfg_a = SimConfig(n_paths=500, seed=1)
        cfg_b = SimConfig(n_paths=500, seed=2)
        (a,) = simulate_renewal_counts(0, [0], [1.0], UNIT, cfg_a)
        (b,) = simulate_renewal_counts(0, [0], [1.0], UNIT, cfg_b)
        assert not np.array_equal(a.mean, b.mean)

    def test_event_cap_aborts(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_MAX_EVENTS", 3)
        cfg = SimConfig(n_paths=10, seed=5)
        with pytest.raises(EventCapError, match="max_events=3 "):
            simulate_renewal_counts(0, [0], [10.0], QueueParams(5.0, 1.0), cfg)

    def test_repeated_target_counts_in_every_column(self):
        cfg = SimConfig(n_paths=2_000, seed=1)
        first, second = simulate_renewal_counts(0, [1, 1], [1.0, 2.0], UNIT, cfg)
        assert np.all(first.mean > 0.5)
        assert np.array_equal(first.mean, second.mean)
        assert np.array_equal(first.std_error, second.std_error)

    def test_single_path_has_zero_standard_error(self):
        # the sample standard deviation of one path is undefined (ddof=1)
        cfg = SimConfig(n_paths=1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates = simulate_renewal_counts(0, [0, 1], [0.5, 1.0], UNIT, cfg)
        assert len(estimates) == 2
        assert all(np.array_equal(est.std_error, [0.0, 0.0]) for est in estimates)

    def test_input_validation(self):
        cfg = SimConfig(n_paths=10, seed=5)
        with pytest.raises(ValueError):
            simulate_renewal_counts(0, [0], [1.0, 0.5], UNIT, cfg)  # unsorted
        with pytest.raises(ValueError):
            simulate_renewal_counts(0, [0], [], UNIT, cfg)
        with pytest.raises(ValueError):
            simulate_renewal_counts(0, [-1], [0.5], UNIT, cfg)
        with pytest.raises(ValueError, match="states must be >= 0"):
            simulate_renewal_counts(-1, [0], [0.5], UNIT, cfg)
        with pytest.raises(ValueError):
            simulate_renewal_counts(0, [0], [0.5], UNIT, cfg, workers=0)
        # a NaN time is never passed, so every path would walk to max_events
        for t_grid in ([math.nan], [0.5, math.nan]):
            with pytest.raises(ValueError, match="finite"):
                simulate_renewal_counts(0, [0], t_grid, UNIT, cfg)

    @pytest.mark.parametrize("t_grid", [1.0, [[0.5, 1.0]]], ids=["scalar", "2-D"])
    def test_time_grid_must_be_one_dimensional(self, t_grid):
        # a scalar raised a bare IndexError, a 2-D grid numpy's "truth value ... is ambiguous"
        cfg = SimConfig(n_paths=10, seed=5)
        with pytest.raises(ValueError, match="t_grid must be one-dimensional"):
            simulate_renewal_counts(0, [0], t_grid, UNIT, cfg)

    def test_states_must_be_integers(self):
        # the int64 cast walked 1.5 from state 1 and counted entries into 1 for a target 1.5
        cfg = SimConfig(n_paths=10, seed=5)
        with pytest.raises(TypeError):
            simulate_renewal_counts(1.5, [1], [0.5], UNIT, cfg)
        with pytest.raises(TypeError):
            simulate_renewal_counts(1, [1.5], [0.5], UNIT, cfg)
        estimates = simulate_renewal_counts(np.int64(1), [np.int64(2)], [0.5], UNIT, cfg)
        assert _same(estimates, simulate_renewal_counts(1, [2], [0.5], UNIT, cfg))
        assert type(estimates[0].i) is int and type(estimates[0].j) is int

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0, seed=1)
        # -1 would alias 2**64 - 1 and 2**64 would alias 0 in the 64-bit key
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(n_paths=1, seed=seed)
        SimConfig(n_paths=1, seed=2**64 - 1)
        # keyword-only, so n_paths and seed cannot be swapped by position
        with pytest.raises(TypeError):
            SimConfig(1, 1)
        # the event cap is the constant _MAX_EVENTS, not an option
        assert [f.name for f in dataclasses.fields(SimConfig)] == ["n_paths", "seed"]
        assert mcsim._MAX_EVENTS == 10_000_000
        with pytest.raises(TypeError):
            SimConfig(n_paths=1, seed=1, max_events=5)


class TestBlockContract:
    """Paths are walked in lock-step blocks of _BLOCK, one stream per block."""

    TIMES = [0.25, 0.5]

    def test_partial_last_block_identical_across_worker_counts(self):
        cfg = SimConfig(n_paths=2 * _BLOCK + 37, seed=8)
        runs = [
            simulate_renewal_counts(1, [0, 2], self.TIMES, UNIT, cfg, workers=w) for w in (1, 2, 3)
        ]
        assert _same(runs[0], runs[1]) and _same(runs[0], runs[2])

    def test_block_paths_do_not_depend_on_run_length(self):
        times = np.array(self.TIMES)
        targets = np.array([0, 1])

        def block(n_paths, b):
            cfg = SimConfig(n_paths=n_paths, seed=4)
            return mcsim._walk_block(MMInfinityKernel(UNIT), 0, targets, times, cfg, b)

        assert np.array_equal(block(_BLOCK, 0), block(3 * _BLOCK, 0))
        assert np.array_equal(block(2 * _BLOCK, 1), block(3 * _BLOCK, 1))
        assert not np.array_equal(block(2 * _BLOCK, 0), block(2 * _BLOCK, 1))

    @pytest.mark.parametrize("max_events, raises", [(2, True), (3, False)])
    def test_event_cap_in_lock_step(self, max_events, raises, monkeypatch):
        # pure death from 3 with a long horizon: every path takes exactly
        # three events, in a run of two blocks
        monkeypatch.setattr(mcsim, "_MAX_EVENTS", max_events)
        cfg = SimConfig(n_paths=_BLOCK + 5, seed=5)
        if raises:
            with pytest.raises(EventCapError, match=r"path \d+ exceeded max_events=2"):
                simulate_renewal_counts(3, [0], [50.0], PURE_DEATH, cfg)
        else:
            (est,) = simulate_renewal_counts(3, [0], [50.0], PURE_DEATH, cfg)
            assert np.array_equal(est.mean, [1.0])

    def test_step_calls_do_not_grow_with_paths(self, monkeypatch):
        # one array step per lock-step iteration of a block, not one per
        # path event: pure death from 5 takes five steps and then one
        # absorbing step in every block, whatever its size
        calls = []
        real = mcsim.step_embedded

        def spy(*args):
            calls.append(args[0].size)
            return real(*args)

        monkeypatch.setattr(mcsim, "step_embedded", spy)
        for n_paths, blocks in ((10, 1), (_BLOCK, 1), (_BLOCK + 1, 2)):
            calls.clear()
            cfg = SimConfig(n_paths=n_paths, seed=3)
            simulate_renewal_counts(5, [0], [50.0], PURE_DEATH, cfg)
            assert len(calls) == 6 * blocks
            assert sum(calls) == 6 * n_paths
