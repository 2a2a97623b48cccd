"""Seeded request generators for the three benchmark workloads.

Each workload is a list of strata, and a run is a fixed number of rounds.  A
round holds one request from every stratum, in an order shuffled by the
seed.  A stratum fixes the inputs that set a request's cost (method, rho
band, grid length, classes of start and target state, path count), so every
run has the same cost mix.  Its other inputs follow a Kronecker sequence
(one irrational step per input dimension) from a fixed start, which spreads
the requests evenly over the stratum's ranges, and the seed moves each point
by up to 1/32 of its range.  Different seeds thus give different inputs with
nearly the same mix, which keeps the figures steady from run to run without
narrowing any range.

The program receives only the generated argv.  To see the requests of a run:

    python3 perfbench/workloads.py --workload inversion --seed 0
"""

from __future__ import annotations

import argparse
import math
import random
import shlex

# One step per input dimension: fractional parts of square roots of primes.
_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17)]
# Fixed start of stratum k's sequence in each dimension, so that the strata
# of one round do not all share the same start state, grid end and alpha.
_STARTS = [math.sqrt(p) % 1.0 for p in (19, 23, 29, 31, 37, 41, 43)]
# Largest move of a point by the seed, as a share of the range.  Moving
# points over the whole range would change from seed to seed which requests
# land in the costly corners of a stratum; at 1/8 the kernel evaluations of
# an inversion run still varied by +-5% from seed to seed, at 1/32 by +-1%.
_SEED_SHIFT = 1.0 / 32.0


def _log_between(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _int_between(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _num(x: float) -> str:
    return format(x, ".6g")


def _band(k: int, count: int, lo: float, hi: float):
    """Rho sampler for band k of `count` equal log-width bands of [lo, hi]."""
    return lambda u: _log_between((k + u) / count, lo, hi)


def _rates(rho: float, u_alpha: float):
    """Split rho into (lambda, alpha) with alpha log-uniform in [0.5, 2]."""
    alpha = _log_between(u_alpha, 0.5, 2.0)
    return _num(rho / alpha), _num(alpha), alpha


def _grid(flag: str, end: float, points: int) -> list:
    return [flag, f"{_num(end / points)}:{_num(end)}:{points}"]


# --- inversion: `mrenew renewal`, half Gaver-Stehfest and half Euler ------

def _renewal(method: str, band, points: int):
    def build(u, rng):
        lam, alpha_text, alpha = _rates(band(u[0]), u[6])
        argv = ["renewal", "--i", str(_int_between(u[1], 0, 15)),
                "--j", str(_int_between(u[2], 0, 15))]
        # Grid ends lie between 2 and 500 mean service times.
        argv += _grid("--t-grid", alpha * _log_between(u[4], 2.0, 500.0), points)
        argv += ["--lambda", lam, "--alpha", alpha_text, "--method", method]
        if method == "gs":
            argv += ["--order", str(2 * _int_between(u[5], 7, 9))]
        return argv
    return build


# --- transform: `mrenew transform --solver both` --------------------------

def _transform(band, points: int, i_range, j_range):
    def build(u, rng):
        lam, alpha_text, alpha = _rates(band(u[0]), u[6])
        argv = ["transform", "--i", str(_int_between(u[1], *i_range)),
                "--j", str(_int_between(u[2], *j_range))]
        argv += _grid("--s-grid", _log_between(u[4], 0.01, 100.0) / alpha, points)
        return argv + ["--lambda", lam, "--alpha", alpha_text, "--solver", "both"]
    return build


# --- simulation: `mrenew simulate --workers 1` ----------------------------

def _simulate(band, paths: int, horizon_range, long_run: bool):
    def build(u, rng):
        rho = band(u[0])
        lam, alpha_text, alpha = _rates(rho, u[6])
        if long_run:
            # Several mean service times near equilibrium: cost per event.
            i = _int_between(u[1], 0, int(1.5 * rho))
            j = _int_between(u[2], max(0, int(0.5 * rho)), int(1.5 * rho))
        else:
            # Short horizons, few events per path: cost per path.
            i, j = _int_between(u[1], 0, 3), _int_between(u[2], 0, 4)
        argv = ["simulate", "--i", str(i), "--j", str(j)]
        argv += _grid("--t-grid", alpha * _log_between(u[4], *horizon_range),
                      _int_between(u[3], 2, 5))
        return argv + ["--lambda", lam, "--alpha", alpha_text, "--paths", str(paths),
                       "--seed", str(rng.randrange(2**31)), "--workers", "1"]
    return build


_T_RHO = (0.1, 2000.0)
_T_STATES = ((0, 10), (11, 20), (21, 30))
WORKLOADS = {
    "inversion": [_renewal(method, _band(k, 8, 0.1, 1000.0), points)
                  for method in ("gs", "euler") for k in range(8) for points in (1, 2)],
    "transform": [_transform(_band(k, 8, *_T_RHO), 6, i_range, j_range)
                  for k in range(8) for i_range in _T_STATES for j_range in _T_STATES]
    # The far targets: one stratum in ten.
    + [_transform(_band(k, 8, *_T_RHO), 6, (0, 5), (100, 300)) for k in range(8)],
    "simulation": [_simulate(_band(k, 4, 0.5, 2.0), paths, horizons, long_run=False)
                   for k in range(4) for paths in (750, 1500)
                   for horizons in ((0.5, 1.0), (1.0, 2.0))]
    + [_simulate(_band(k, 4, 10.0, 50.0), paths, horizons, long_run=True)
       for k in range(4) for paths in (150, 375) for horizons in ((2.0, 2.8), (2.8, 4.0))],
}

# Rounds per run: enough for at least 100 requests, so that at least 10 lie
# beyond p90, while one pass over them takes about 10 s on a 2-core machine.
ROUNDS = {"inversion": 4, "transform": 2, "simulation": 4}

def requests(workload: str, seed: int) -> list:
    """The argv of every request of a run; the same seed gives the same list."""
    strata = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for rnd in range(ROUNDS[workload]):
        order = list(range(len(strata)))
        rng.shuffle(order)
        for k in order:
            u = [(k * start + rnd * step + _SEED_SHIFT * rng.random()) % 1.0
                 for start, step in zip(_STARTS, _STEPS)]
            out.append(strata[k](u, rng))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description="Print the requests of a run, one per line.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for argv in requests(args.workload, args.seed):
        print("mrenew " + shlex.join(argv))


if __name__ == "__main__":
    main()
