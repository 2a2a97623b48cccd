"""Renewal-matrix computation for tridiagonal immigration-death kernels.

The package computes rows of the transform Rbar(s) = (I - Qbar(s))^-1 for
any tridiagonal semi-Markov kernel (truncated-system and Neumann-series
solvers), evaluates the M|M|infinity closed form built on Kummer's
confluent hypergeometric function, and recovers the time-domain renewal
function by numerical Laplace inversion or Monte Carlo simulation.
`mrenew.crosscheck` measures how closely these routes agree.
"""

from .closedform import generating_function, rbar_closed_form
from .errors import EventCapError, NonConvergenceError, PivotError
from .hyperg import kummer_m
from .invert import InversionConfig, euler_inversion, gaver_stehfest, renewal_function
from .mcsim import RenewalEstimate, SimConfig, simulate_renewal_counts
from .model import KernelTransform, MMInfinityKernel, QueueParams, validate_kernel
from .oracle import (
    TransformEntries,
    TransformRowResult,
    TruncationConfig,
    neumann_series_sum,
    solve_row_adaptive,
    solve_row_truncated,
    solve_rows,
)

__version__ = "0.1.0"

__all__ = [
    "EventCapError",
    "InversionConfig",
    "KernelTransform",
    "MMInfinityKernel",
    "NonConvergenceError",
    "PivotError",
    "QueueParams",
    "RenewalEstimate",
    "SimConfig",
    "TransformEntries",
    "TransformRowResult",
    "TruncationConfig",
    "euler_inversion",
    "gaver_stehfest",
    "generating_function",
    "kummer_m",
    "neumann_series_sum",
    "rbar_closed_form",
    "renewal_function",
    "simulate_renewal_counts",
    "solve_row_adaptive",
    "solve_row_truncated",
    "solve_rows",
    "validate_kernel",
]
