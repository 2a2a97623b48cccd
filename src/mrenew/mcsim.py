"""Monte Carlo estimation of the renewal matrix for the M|M|infinity process.

Fully independent of the transform machinery: paths of the embedded jump
chain are walked in the time domain and entries into each target state by
each grid time are counted.  From state j the sojourn is the minimum of an
arrival clock (rate lam) and j service clocks (rate 1/alpha each), i.e.
exponential with rate lam + j/alpha, and the jump goes up with probability
lam / (lam + j/alpha).  The transform of one such step reproduces the
kernel entries exactly, which is what ties the simulator to the rest of
the package (and what the kernel-consistency test checks).

Randomness is counter-based: path p draws from a Philox stream keyed by
(seed, p), so estimates are bit-identical for any worker count; per-worker
results are placed into one array indexed by absolute path number and all
statistics are reduced over that array in a fixed order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EventCapError
from .model import QueueParams

_TINY_UNIFORM = 1e-300  # floor on the time uniform; keeps sojourns strictly positive


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    seed: int
    t_max: float
    max_events: int = 10_000_000

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")


@dataclass(frozen=True)
class RenewalEstimate:
    """Monte Carlo estimate of R_ij(t): delta_ij plus mean entries into j by t."""

    i: int
    j: int
    t: float
    mean: float
    std_error: float
    n_paths: int


def step_embedded(state: int, p: QueueParams, u_time: float, u_dir: float) -> tuple:
    """One embedded-chain step from `state` driven by two uniform draws.

    Returns (next_state, sojourn).  When both rates vanish (lam = 0 at
    state 0) the process is absorbed and the sojourn is math.inf.
    """
    rate = p.lam + state / p.alpha
    if rate <= 0.0:
        return state, math.inf
    sojourn = -math.log1p(-max(u_time, _TINY_UNIFORM)) / rate
    if u_dir * rate < p.lam:
        return state + 1, sojourn
    return state - 1, sojourn


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _walk_paths(lam, alpha, i, targets, t_grid, seed, start, stop, max_events):
    """Entry counts for paths [start, stop): array (stop-start, n_targets, n_times)."""
    p = QueueParams(lam, alpha)
    t_grid = np.asarray(t_grid, dtype=float)
    horizon = t_grid[-1]
    target_pos = {state: q for q, state in enumerate(targets)}
    counts = np.zeros((stop - start, len(targets), t_grid.size))
    for path in range(start, stop):
        rng = _path_rng(seed, path)
        state = i
        elapsed = 0.0
        events = 0
        row = counts[path - start]
        while True:
            nxt, sojourn = step_embedded(state, p, rng.random(), rng.random())
            if not math.isfinite(sojourn):
                break
            elapsed += sojourn
            if elapsed > horizon:
                break
            events += 1
            if events > max_events:
                raise EventCapError(
                    f"path {path} exceeded max_events={max_events} before t={horizon}"
                )
            state = nxt
            pos = target_pos.get(state)
            if pos is not None:
                first = int(np.searchsorted(t_grid, elapsed, side="left"))
                row[pos, first:] += 1.0
    return start, counts


def simulate_renewal_counts(
    i: int,
    j_set,
    t_grid,
    p: QueueParams,
    cfg: SimConfig,
    workers: int = 1,
) -> list:
    """Estimate R_ij(t) for every j in j_set and t in t_grid.

    Returns a list of RenewalEstimate in (j, t) row-major order following
    the order of j_set and the (ascending) t_grid.  Deterministic for a
    fixed cfg.seed regardless of `workers`.
    """
    targets = list(j_set)
    times = np.asarray(t_grid, dtype=float)
    if times.size == 0 or not np.isfinite(times).all():
        raise ValueError("t_grid must be nonempty and finite")
    if np.any(np.diff(times) < 0):
        raise ValueError("t_grid must be sorted ascending")
    if times[0] <= 0 or times[-1] > cfg.t_max:
        raise ValueError(f"t_grid must lie in (0, t_max={cfg.t_max}]")
    if i < 0 or any(j < 0 for j in targets):
        raise ValueError(f"states must be >= 0, got i={i}, j_set={targets}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    n_paths = cfg.n_paths
    counts = np.empty((n_paths, len(targets), times.size))
    bounds = np.linspace(0, n_paths, min(workers, n_paths) + 1).astype(int)
    chunks = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if workers == 1 or len(chunks) == 1:
        for a, b in chunks:
            _, part = _walk_paths(p.lam, p.alpha, i, targets, times, cfg.seed, a, b, cfg.max_events)
            counts[a:b] = part
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _walk_paths, p.lam, p.alpha, i, targets, times, cfg.seed, a, b, cfg.max_events
                )
                for a, b in chunks
            ]
            for fut in futures:
                a, part = fut.result()
                counts[a : a + part.shape[0]] = part

    means = counts.mean(axis=0)
    if n_paths > 1:
        errs = counts.std(axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        errs = np.zeros_like(means)

    estimates = []
    for q, j in enumerate(targets):
        offset = 1.0 if j == i else 0.0
        for r, t in enumerate(times):
            estimates.append(
                RenewalEstimate(
                    i=i,
                    j=j,
                    t=float(t),
                    mean=offset + float(means[q, r]),
                    std_error=float(errs[q, r]),
                    n_paths=n_paths,
                )
            )
    return estimates
