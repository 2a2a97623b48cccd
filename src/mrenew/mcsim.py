"""Monte Carlo estimation of the renewal matrix of a kernel.

Paths of the embedded jump chain are walked in the time domain and entries
into each target state by each grid time are counted.  Each jump is the
kernel's: `kernel.step(states, u_time, u_dir)` (the contract is in
`mrenew.model.KernelTransform`) turns two uniforms per path into the next
state and the sojourn, and a path with sojourn inf is absorbed.  This
module walks paths and counts entries, and nothing else.

Paths are walked in blocks of _BLOCK, in lock-step: each step draws two
uniforms for every path of the block still live and moves them all in a
few array operations.  A lock-step iteration mostly holds a few hundred
paths, so it costs what its numpy calls cost, not what their elements
do.  It keeps the arrays of live paths, states and elapsed times it made,
and the entries into the targets are matched once per _CHUNK iterations,
in one comparison over the chunk's arrays.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011): block b draws from one Philox stream keyed by
(seed, b).  Workers take whole blocks, so estimates are bit-identical for
any worker count; the blocks' counts are joined in block order into one
array and all statistics are reduced over that array in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EventCapError
from .model import KernelTransform, _index, _time_grid

_BLOCK = 1024  # paths per random stream; fixed, so results do not depend on workers
_MAX_EVENTS = 10_000_000  # events a path may take before the run is aborted
_CHUNK = 64  # lock-step iterations whose entries are matched together; bounds the arrays held


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    n_paths: int
    seed: int

    def __post_init__(self):
        _index(self.n_paths, "n_paths", 1, math.inf)
        # the Philox key holds 64 bits; a seed outside would alias one inside
        _index(self.seed, "seed", 0, 2**64 - 1)


@dataclass(frozen=True)
class RenewalEstimate:
    """Monte Carlo estimate of R_ij(t[k]): delta_ij plus mean entries into j by each t[k]."""

    i: int
    j: int
    t: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    n_paths: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _entries(targets, steps):
    """(paths, target columns, times) of the entries into targets over the
    recorded (live, state, elapsed) arrays of some lock-step iterations."""
    lives, states, times = map(np.concatenate, zip(*steps))
    rows, cols = (states[:, None] == targets).nonzero()
    return lives[rows], cols, times[rows]


def _walk_block(kernel, i, targets, t_grid, cfg, block):
    """Entry counts for the paths of `block`: (size, n_targets, n_times).

    A block holds _BLOCK paths, except the last of a run, which holds the
    rest of cfg.n_paths.  The paths step in lock-step, so every live path
    has taken the same number of events; paths past the horizon or
    absorbed are dropped.  A path still live after _MAX_EVENTS events
    raises EventCapError.  Every lock-step iteration makes new arrays and
    writes none in place, so it records them as they are, and the entries
    are matched once per _CHUNK records and once more when no path is
    live; the last record is then empty.
    """
    horizon = t_grid[-1]
    size = min(_BLOCK, cfg.n_paths - block * _BLOCK)
    rng = _block_rng(cfg.seed, block)
    live = np.arange(size)              # block-local index of each live path
    state = np.full(size, i, dtype=np.int64)
    elapsed = np.zeros(size)
    steps, hits = [], []
    events = 0
    with np.errstate(all="ignore"):     # step's rate of 0 or inf reads as a sojourn of inf or 0
        while live.size:
            u = rng.random((2, live.size))
            state, sojourn = kernel.step(state, u[0], u[1])
            elapsed = elapsed + sojourn
            keep = elapsed <= horizon       # an absorbed path's elapsed is inf
            if np.count_nonzero(keep) != live.size:
                live, state, elapsed = live[keep], state[keep], elapsed[keep]
            events += 1
            if events > _MAX_EVENTS and live.size:
                raise EventCapError(
                    f"path {block * _BLOCK + live[0]} exceeded max_events={_MAX_EVENTS} "
                    f"before t={horizon}"
                )
            steps.append((live, state, elapsed))
            if len(steps) == _CHUNK or not live.size:
                hits.append(_entries(targets, steps))
                steps = []
    marks = np.zeros((size, targets.size, t_grid.size))
    paths, cols, entered = map(np.concatenate, zip(*hits))
    # an entry at time e counts at every grid time t >= e; e <= horizon
    first = np.searchsorted(t_grid, entered, side="left")
    np.add.at(marks, (paths, cols, first), 1.0)
    return np.cumsum(marks, axis=2)


def simulate_renewal_counts(
    i: int,
    j_set,
    t_grid,
    kernel: KernelTransform,
    cfg: SimConfig,
    workers: int = 1,
) -> list:
    """Estimate R_ij(t) of `kernel` for every j in j_set and t in t_grid.

    Returns a list of one RenewalEstimate per target, in the order of
    j_set, each with arrays over the (ascending) t_grid and its own copy of
    t_grid; an empty j_set walks no path.  Deterministic for a fixed
    cfg.seed regardless of `workers`.
    """
    i, targets, times = _index(i, "i"), [_index(j, "j") for j in j_set], _time_grid(t_grid)
    if times.size == 0 or not np.isfinite(times).all() or times[0] <= 0 or np.any(np.diff(times) < 0):
        raise ValueError("t_grid must be nonempty, finite, > 0 and ascending")
    _index(workers, "workers", 1, math.inf)
    if not targets:
        return []
    # a count that dominates Poisson(expected) stays within the cap with probability below Phi(-10)
    if (expected := float(kernel.least_rate) * float(times[-1])) > _MAX_EVENTS + 10 * math.sqrt(_MAX_EVENTS):
        raise EventCapError(f"paths are expected to take at least {expected:g} events by t={times[-1]}, "
                            f"past max_events={_MAX_EVENTS} by more than 10 standard deviations")

    n_paths = cfg.n_paths
    n_blocks = -(-n_paths // _BLOCK)
    workers = min(workers, n_blocks)
    walk = partial(_walk_block, kernel, i, np.asarray(targets, dtype=np.int64), times, cfg)
    if workers == 1:
        parts = list(map(walk, range(n_blocks)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only workers need it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(walk, range(n_blocks), chunksize=-(-n_blocks // workers)))
    counts = np.concatenate(parts)

    means = counts.mean(axis=0) + (np.asarray(targets) == i)[:, None]
    if n_paths > 1:
        errs = counts.std(axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        errs = np.zeros_like(means)
    return [RenewalEstimate(i, j, times.copy(), means[q], errs[q], n_paths) for q, j in enumerate(targets)]
