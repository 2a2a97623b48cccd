"""Monte Carlo estimation of the renewal matrix for the M|M|infinity process.

Reads only the kernel's jump rates (up, down) = `MMInfinityKernel.rates`:
paths of the embedded jump chain are walked in the time domain and entries
into each target state by each grid time are counted.  From state j the
sojourn is the minimum of an up clock and a down clock, i.e. exponential
with rate up + down, and the jump goes up with probability up / (up + down).
The transform of one such step is the kernel's (sigma_bar, tau_bar) =
(down, up) / (up + down + s), which ties the simulator to the rest of the
package (and is what the kernel-consistency tests check).

Paths are walked in blocks of _BLOCK, in lock-step: each step draws two
uniforms for every path of the block still live and moves them all in a
few array operations.  Randomness is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): block b draws
from one Philox stream keyed by (seed, b).  Workers take whole blocks, so
estimates are bit-identical for any worker count; the blocks' counts are
joined in block order into one array and all statistics are reduced over
that array in a fixed order.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EventCapError
from .model import MMInfinityKernel, QueueParams

_TINY_UNIFORM = 1e-300  # floor on the time uniform; keeps sojourns strictly positive
_BLOCK = 1024  # paths per random stream; fixed, so results do not depend on workers
_MAX_EVENTS = 10_000_000  # events a path may take before the run is aborted


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    n_paths: int
    seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 0 <= self.seed < 2**64:
            # the Philox key holds 64 bits; a seed outside would alias one inside
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class RenewalEstimate:
    """Monte Carlo estimate of R_ij(t[k]): delta_ij plus mean entries into j by each t[k]."""

    i: int
    j: int
    t: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray
    n_paths: int


def step_embedded(
    states: np.ndarray, kernel: MMInfinityKernel, u_time: np.ndarray, u_dir: np.ndarray
) -> tuple:
    """One embedded-chain step from each of `states`, driven by two uniforms each.

    Arrays in, arrays out: returns (next_states, sojourns).  Where both of
    `kernel.rates` vanish (lam = 0 at state 0) the path is absorbed: it
    keeps its state and its sojourn is inf.
    """
    up, down = kernel.rates(states)
    rate = up + down
    with np.errstate(divide="ignore"):
        sojourn = -np.log1p(-np.maximum(u_time, _TINY_UNIFORM)) / rate
    move = np.where(u_dir * rate < up, 1, np.where(rate > 0.0, -1, 0))
    return states + move, sojourn


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _walk_block(kernel, i, targets, t_grid, cfg, block):
    """Entry counts for the paths of `block`: (size, n_targets, n_times).

    A block holds _BLOCK paths, except the last of a run, which holds the
    rest of cfg.n_paths.  The paths step in lock-step, so every live path
    has taken the same number of events; paths past the horizon or
    absorbed are dropped.  A path still live after _MAX_EVENTS events
    raises EventCapError.
    """
    horizon = t_grid[-1]
    size = min(_BLOCK, cfg.n_paths - block * _BLOCK)
    rng = _block_rng(cfg.seed, block)
    live = np.arange(size)              # block-local index of each live path
    state = np.full(size, i, dtype=np.int64)
    elapsed = np.zeros(size)
    hit_paths, hit_cols, hit_times = [], [], []
    events = 0
    while True:
        u = rng.random((2, live.size))
        state, sojourn = step_embedded(state, kernel, u[0], u[1])
        elapsed += sojourn
        keep = elapsed <= horizon       # an absorbed path's elapsed is inf
        if not keep.all():
            live, state, elapsed = live[keep], state[keep], elapsed[keep]
            if live.size == 0:
                break
        events += 1
        if events > _MAX_EVENTS:
            raise EventCapError(
                f"path {block * _BLOCK + live[0]} exceeded max_events={_MAX_EVENTS} "
                f"before t={horizon}"
            )
        rows, cols = np.nonzero(state[:, None] == targets)
        if rows.size:
            hit_paths.append(live[rows])
            hit_cols.append(cols)
            hit_times.append(elapsed[rows])
    marks = np.zeros((size, targets.size, t_grid.size))
    if hit_paths:
        # an entry at time e counts at every grid time t >= e; e <= horizon
        first = np.searchsorted(t_grid, np.concatenate(hit_times), side="left")
        np.add.at(marks, (np.concatenate(hit_paths), np.concatenate(hit_cols), first), 1.0)
    return np.cumsum(marks, axis=2)


def simulate_renewal_counts(
    i: int,
    j_set,
    t_grid,
    p: QueueParams,
    cfg: SimConfig,
    workers: int = 1,
) -> list:
    """Estimate R_ij(t) for every j in j_set and t in t_grid.

    Returns a list of one RenewalEstimate per target, in the order of
    j_set, each with arrays over the (ascending) t_grid.  Deterministic for
    a fixed cfg.seed regardless of `workers`.
    """
    i, targets = operator.index(i), list(map(operator.index, j_set))
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    if times.size == 0 or not np.isfinite(times).all() or times[0] <= 0 or np.any(np.diff(times) < 0):
        raise ValueError("t_grid must be nonempty, finite, > 0 and ascending")
    if i < 0 or any(j < 0 for j in targets):
        raise ValueError(f"states must be >= 0, got i={i}, j_set={targets}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    n_paths = cfg.n_paths
    n_blocks = -(-n_paths // _BLOCK)
    workers = min(workers, n_blocks)
    walk = partial(_walk_block, MMInfinityKernel(p), i, np.asarray(targets, dtype=np.int64), times, cfg)
    if workers == 1:
        parts = list(map(walk, range(n_blocks)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(walk, range(n_blocks), chunksize=-(-n_blocks // workers)))
    counts = np.concatenate(parts)

    means = counts.mean(axis=0) + (np.asarray(targets) == i)[:, None]
    if n_paths > 1:
        errs = counts.std(axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        errs = np.zeros_like(means)
    return [RenewalEstimate(i, j, times, means[q], errs[q], n_paths) for q, j in enumerate(targets)]
