"""Cross-checks between the independent routes to the renewal matrix.

`mrenew validate` and the acceptance suite run these same functions.  Each
takes its grid as arguments and returns (worst, where): the worst value it
measured and the case it occurred at, as a dict of the grid coordinates.
A NaN is the worst value of all, so that it fails any bound.  The allowed
worst is left to the caller.
"""

from __future__ import annotations

import math

import numpy as np

from .closedform import rbar_closed_form
from .invert import renewal_function
from .mcsim import SimConfig, simulate_renewal_counts
from .model import MMInfinityKernel, QueueParams
from .oracle import neumann_series_sum, solve_row_adaptive, solve_row_truncated


def two_oracle_agreement(states, s_values, param_pairs):
    """Worst entrywise |truncated solve - Neumann series| over states 0..256."""
    worst, where = 0.0, None
    for lam, alpha in param_pairs:
        kernel = MMInfinityKernel(QueueParams(lam, alpha))
        for i in states:
            for s in s_values:
                direct = solve_row_truncated(i, s, kernel, 256).values
                series = neumann_series_sum(i, s, kernel, 256)
                diff = float(np.max(np.abs(direct - series)))
                if diff > worst or math.isnan(diff):
                    worst, where = diff, {"i": i, "s": s, "lam": lam, "alpha": alpha}
    return worst, where


def closed_form_vs_oracle(states, s_values, rhos):
    """Worst |closed form - adaptive solve| / max(|adaptive solve|, 1e-3).

    Every pair of start and target state in `states` is compared, with
    alpha = 1 and lam = rho.  The floor 1e-3 = 1e-9 / 1e-6 makes a 1e-6
    relative bound an absolute 1e-9 one for entries below 1e-3.
    """
    worst, where = 0.0, None
    for rho in rhos:
        p = QueueParams(rho, 1.0)
        kernel = MMInfinityKernel(p)
        for i in states:
            for s in s_values:
                row = solve_row_adaptive(i, s, kernel).values
                for n in states:
                    reference = float(row[n])
                    closed = rbar_closed_form(i, n, s, p)
                    err = abs(closed - reference) / max(abs(reference), 1e-9 / 1e-6)
                    if err > worst or math.isnan(err):
                        worst, where = err, {"i": i, "n": n, "s": s, "rho": rho}
    return worst, where


def inversion_vs_simulation(i, targets, times, lam, alpha, n_paths, seed):
    """Worst |Gaver-Stehfest R_ij(t) - Monte Carlo mean| in standard errors."""
    p = QueueParams(lam, alpha)
    cfg = SimConfig(n_paths=n_paths, seed=seed)
    worst, where = 0.0, None
    for est in simulate_renewal_counts(i, targets, times, p, cfg):
        inverted = renewal_function(i, est.j, times, p)
        for value, t, mean, std_error in zip(inverted, est.t, est.mean, est.std_error):
            z = abs(value - mean) / max(std_error, 1e-300)
            if z > worst or math.isnan(z):
                worst, where = z, {"j": est.j, "t": float(t)}
    return worst, where
