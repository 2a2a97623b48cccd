import dataclasses
import math
import time
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrenew import (
    EventCapError,
    InversionConfig,
    KernelTransform,
    MMInfinityKernel,
    QueueParams,
    SimConfig,
    renewal_function,
    simulate_renewal_counts,
    validate_kernel,
)
from mrenew import cli, mcsim
from mrenew.mcsim import _BLOCK

UNIT = MMInfinityKernel(QueueParams(1.0, 1.0))
PURE_DEATH = MMInfinityKernel(QueueParams(0.0, 1.0))


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


def _step(state, kernel, u_time, u_dir):
    """kernel.step on one-element inputs, back as Python scalars."""
    states, sojourns = kernel.step(np.array([state]), np.array([u_time]), np.array([u_dir]))
    return int(states[0]), float(sojourns[0])


class TestStepEmbedded:
    """MMInfinityKernel.step, the embedded-chain step the simulator walks."""

    def test_absorbed_at_empty_system_without_arrivals(self):
        # no clock runs: the sojourn is 1 / 0 = inf, and numpy's warning
        # for that division stays inside step, at any lam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, sojourn = _step(0, PURE_DEATH, 0.5, 0.5)
            states, sojourns = PURE_DEATH.step(np.array([0, 1, 4]), np.array([0.0, 0.5, 0.9]), np.array([0.5] * 3))
            for u_time in (0.0, 0.5):
                _step(0, UNIT, u_time, 0.5)
        assert math.isinf(sojourn)
        assert state == 0
        assert states.tolist() == [0, 0, 3]
        assert math.isinf(sojourns[0]) and np.all(np.isfinite(sojourns[1:]))

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
        states, sojourns = UNIT.step(np.full(n, 2), draws[:, 0], draws[:, 1])
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
        sigma_ref, tau_ref = UNIT.transforms(j, s)
        states, sojourns = UNIT.step(np.full(n, j), draws[:, 0], draws[:, 1])
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
        counts = mcsim._walk_block(UNIT, 2, np.array([2, 3]), times, cfg, 0)
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
            simulate_renewal_counts(0, [0], [10.0], MMInfinityKernel(QueueParams(5.0, 1.0)), cfg)

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

    def test_records_keep_their_own_time_grid(self):
        grid = np.array([0.5, 1.0])
        estimates = simulate_renewal_counts(0, [0, 1], grid, UNIT, SimConfig(n_paths=10, seed=5))
        grid[:] = 9.0
        estimates[0].t[:] = 8.0
        assert np.array_equal(estimates[1].t, [0.5, 1.0])

    def test_empty_target_set_walks_no_path(self, monkeypatch):
        walked = []
        monkeypatch.setattr(mcsim, "_walk_block", lambda *args: walked.append(args))
        assert simulate_renewal_counts(0, [], [1.0], UNIT, SimConfig(n_paths=10, seed=1)) == []
        assert walked == []

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

    def test_seed_must_be_an_integer(self):
        # 1.9 ran seed 1's stream, bit for bit
        with pytest.raises(TypeError):
            SimConfig(n_paths=10, seed=1.9)
        cfg = SimConfig(n_paths=10, seed=np.uint64(1))
        assert _same(simulate_renewal_counts(0, [0], [0.5], UNIT, cfg),
                     simulate_renewal_counts(0, [0], [0.5], UNIT, SimConfig(n_paths=10, seed=1)))

    def test_n_paths_must_be_an_integer(self):
        # 10.5 was accepted, and the walk then raised a bare TypeError
        with pytest.raises(TypeError):
            SimConfig(n_paths=10.5, seed=1)
        assert SimConfig(n_paths=np.int64(10), seed=1).n_paths == 10

    def test_workers_must_be_an_integer(self):
        # 1.5 ran one worker on a one-block run, and failed on a longer one
        cfg = SimConfig(n_paths=10, seed=1)
        with pytest.raises(TypeError):
            simulate_renewal_counts(0, [0], [0.5], UNIT, cfg, workers=1.5)

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


@dataclasses.dataclass(frozen=True)
class _MM1Kernel(KernelTransform):
    """M|M|1: up at rate lam from every state, down at rate mu from states above 0."""

    lam: float
    mu: float

    def _rates(self, j):
        return self.lam, self.mu * (np.asarray(j) > 0)

    def transforms(self, j, s):
        up, down = self._rates(j)
        total = up + down + s
        return down / total, up / total

    def step(self, states, u_time, u_dir):
        up, down = self._rates(states)
        rate = up + down
        return states + np.where(u_dir * rate < up, 1, -1), -np.log1p(-u_time) / rate


class TestOtherKernel:
    """A kernel with transforms and step goes through both time-domain routes, as M|M|infinity does."""

    KERNEL = _MM1Kernel(lam=0.8, mu=1.0)

    def test_kernel_is_valid(self):
        assert validate_kernel(self.KERNEL, 50, [0.0, 0.1, 1.0, 10.0]) == []

    def test_euler_inversion_and_simulation_agree(self):
        # seed and the 4-standard-error bound were fixed before the first run;
        # 12 points, so a 4 SE bound leaves each a two-sided 6e-5 chance
        times = [0.5, 1.0, 2.0, 4.0]
        cfg = SimConfig(n_paths=20_000, seed=5)
        for est in simulate_renewal_counts(0, [0, 1, 2], times, self.KERNEL, cfg):
            assert np.all(est.std_error > 0)
            inverted = renewal_function(0, est.j, times, self.KERNEL, cfg=InversionConfig(method="euler"))
            assert np.all(np.abs(inverted - est.mean) <= 4 * est.std_error), (est.j, inverted, est.mean)

    def test_bit_identical_across_worker_counts(self):
        cfg = SimConfig(n_paths=_BLOCK + 100, seed=3)
        serial = simulate_renewal_counts(1, [0, 2], [0.5, 1.0], self.KERNEL, cfg, workers=1)
        assert _same(serial, simulate_renewal_counts(1, [0, 2], [0.5, 1.0], self.KERNEL, cfg, workers=2))


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
            return mcsim._walk_block(UNIT, 0, targets, times, cfg, b)

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
        real = MMInfinityKernel.step

        def spy(self, states, *uniforms):
            calls.append(states.size)
            return real(self, states, *uniforms)

        monkeypatch.setattr(MMInfinityKernel, "step", spy)
        for n_paths, blocks in ((10, 1), (_BLOCK, 1), (_BLOCK + 1, 2)):
            calls.clear()
            cfg = SimConfig(n_paths=n_paths, seed=3)
            simulate_renewal_counts(5, [0], [50.0], PURE_DEATH, cfg)
            assert len(calls) == 6 * blocks
            assert sum(calls) == 6 * n_paths


class TestEventCapBeforeTheWalk:
    """A horizon whose least expected jump count passes the cap by 10 standard
    deviations is refused before any path is walked."""

    def test_cli_refuses_a_billion_events_at_once(self, capsys):
        argv = "simulate --i 0 --j 0 --t-grid 1e9:1e9:1 --lambda 1 --alpha 1 --paths 3 --seed 1".split()
        start = time.perf_counter()
        assert cli.run(argv) == 1
        assert time.perf_counter() - start < 1.0    # it walked 10^7 iterations, about 150 s
        err = capsys.readouterr().err
        assert "numerical failure" in err and "1e+09 events by t=1000000000.0" in err
        assert "max_events=10000000 " in err

    def test_threshold_is_the_cap_plus_ten_standard_deviations(self, monkeypatch):
        # cap 100: refused from lam t > 100 + 10 sqrt(100) = 200; at 200 the walk runs into the cap itself
        monkeypatch.setattr(mcsim, "_MAX_EVENTS", 100)
        cfg = SimConfig(n_paths=3, seed=1)
        assert UNIT.least_rate == 1.0
        with pytest.raises(EventCapError, match=r"at least 200\.5 events by t=200\.5, past max_events=100 "):
            simulate_renewal_counts(0, [0], [200.5], UNIT, cfg)
        with pytest.raises(EventCapError, match=r"path \d+ exceeded max_events=100 before t=200\.0"):
            simulate_renewal_counts(0, [0], [200.0], UNIT, cfg)

    def test_kernel_that_claims_no_rate_still_walks(self, monkeypatch):
        monkeypatch.setattr(mcsim, "_MAX_EVENTS", 3)
        kernel = _MM1Kernel(lam=5.0, mu=1.0)
        assert kernel.least_rate == 0.0 and PURE_DEATH.least_rate == 0.0
        with pytest.raises(EventCapError, match=r"path \d+ exceeded max_events=3 before t=10\.0"):
            simulate_renewal_counts(0, [0], [10.0], kernel, SimConfig(n_paths=10, seed=5))


def _reference_mm_step(params, states, u_time, u_dir):
    """MMInfinityKernel.step as first written: one formula for every lam,
    under np.errstate at every call."""
    up, down = params.lam, states / params.alpha
    rate = up + down
    with np.errstate(divide="ignore"):
        sojourn = -np.log1p(-np.maximum(u_time, 1e-300)) / rate
    move = (u_dir * rate < up) * 2 - (rate > 0.0)
    return states + move, sojourn


def _reference_walk(step, i, targets, t_grid, cfg, block):
    """mcsim._walk_block as first written: entries matched by np.nonzero at
    every lock-step iteration, and `elapsed` updated in place."""
    horizon = t_grid[-1]
    size = min(_BLOCK, cfg.n_paths - block * _BLOCK)
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, block], dtype=np.uint64)))
    live = np.arange(size)
    state = np.full(size, i, dtype=np.int64)
    elapsed = np.zeros(size)
    hit_paths, hit_cols, hit_times = [], [], []
    while True:
        u = rng.random((2, live.size))
        state, sojourn = step(state, u[0], u[1])
        elapsed += sojourn
        keep = elapsed <= horizon
        if not keep.all():
            live, state, elapsed = live[keep], state[keep], elapsed[keep]
            if live.size == 0:
                break
        rows, cols = np.nonzero(state[:, None] == targets)
        if rows.size:
            hit_paths.append(live[rows])
            hit_cols.append(cols)
            hit_times.append(elapsed[rows])
    marks = np.zeros((size, targets.size, t_grid.size))
    if hit_paths:
        first = np.searchsorted(t_grid, np.concatenate(hit_times), side="left")
        np.add.at(marks, (np.concatenate(hit_paths), np.concatenate(hit_cols), first), 1.0)
    return np.cumsum(marks, axis=2)


class TestAgainstReferenceWalker:
    """_walk_block counts what the first walker counted, bit for bit."""

    @given(
        st.one_of(st.just(0.0), st.floats(0.1, 40.0)),
        st.floats(0.5, 2.0),
        st.booleans(),
        st.integers(0, 20),
        st.lists(st.integers(0, 20), min_size=1, max_size=4),
        st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3),
        st.integers(1, _BLOCK + 200),
        st.integers(0, 2**64 - 1),
    )
    # absorbing at 0, a repeated target, two blocks
    @example(0.0, 1.0, False, 3, [0, 0, 2], [1.0, 5.0], _BLOCK + 300, 7)
    # rho 30: 205 lock-step iterations, in four chunks, and a repeated target
    @example(30.0, 1.0, False, 0, [30, 31, 30], [0.5, 3.0], 375, 0)
    # M|M|1 over two blocks, 120-135 lock-step iterations a block
    @example(0.8, 1.0, True, 1, [0, 2], [5.0, 60.0], _BLOCK + 100, 3)
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_counts_match_bit_for_bit(self, lam, alpha, mm1, i, targets, times, n_paths, seed):
        if mm1:
            kernel = _MM1Kernel(lam=max(lam, 0.1), mu=1.0 / alpha)
            step = kernel.step
        else:
            kernel = MMInfinityKernel(QueueParams(lam, alpha))
            step = partial(_reference_mm_step, kernel.params)
        targets, t_grid = np.array(targets, dtype=np.int64), np.array(sorted(times))
        cfg = SimConfig(n_paths=n_paths, seed=seed)
        for block in range(-(-n_paths // _BLOCK)):
            assert np.array_equal(
                mcsim._walk_block(kernel, i, targets, t_grid, cfg, block),
                _reference_walk(step, i, targets, t_grid, cfg, block),
            )

    def test_errstate_is_not_entered_per_lock_step_iteration(self, monkeypatch):
        # one 375-path block at rho 30 takes about 200 lock-step iterations
        steps, guards = [], []
        real_step, real_errstate = MMInfinityKernel.step, np.errstate

        def step_spy(self, states, *uniforms):
            steps.append(states.size)
            return real_step(self, states, *uniforms)

        def errstate_spy(*args, **kwargs):
            guards.append(kwargs)
            return real_errstate(*args, **kwargs)

        monkeypatch.setattr(MMInfinityKernel, "step", step_spy)
        monkeypatch.setattr(np, "errstate", errstate_spy)
        cfg = SimConfig(n_paths=375, seed=0)
        mcsim._walk_block(MMInfinityKernel(QueueParams(30.0, 1.0)), 0, np.array([30]), np.array([3.0]), cfg, 0)
        assert len(steps) > 2 * mcsim._CHUNK
        assert len(guards) <= 1
