"""Renewal-matrix computation for tridiagonal immigration-death kernels.

The package computes rows of the transform Rbar(s) = (I - Qbar(s))^-1 for
any tridiagonal semi-Markov kernel (truncated-system and Neumann-series
solvers), evaluates the M|M|infinity closed form built on Kummer's
confluent hypergeometric function, and recovers the time-domain renewal
function by numerical Laplace inversion or Monte Carlo simulation.
"""

from .closedform import (
    generating_function,
    ode_residual,
    rbar_closed_form,
    rbar_from_tbar,
    tbar_from_rbar,
)
from .errors import EventCapError, NonConvergenceError, PivotError
from .hyperg import kummer_m, kummer_series_direct, pochhammer_ratio_step
from .invert import (
    InversionConfig,
    euler_inversion,
    gaver_stehfest,
    renewal_function,
    stehfest_weights,
)
from .mcsim import RenewalEstimate, SimConfig, simulate_renewal_counts, step_embedded
from .model import (
    KernelTransform,
    MMInfinityKernel,
    QueueParams,
    validate_kernel,
)
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
    "kummer_series_direct",
    "neumann_series_sum",
    "ode_residual",
    "pochhammer_ratio_step",
    "rbar_closed_form",
    "rbar_from_tbar",
    "renewal_function",
    "simulate_renewal_counts",
    "solve_row_adaptive",
    "solve_row_truncated",
    "solve_rows",
    "step_embedded",
    "stehfest_weights",
    "tbar_from_rbar",
    "validate_kernel",
]
