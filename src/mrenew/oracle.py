"""Ground-truth solvers for rows of the renewal-matrix transform.

For a tridiagonal kernel, row i of Rbar(s) = (I - Qbar(s))^-1 satisfies

    -tau_bar(j-1) x[j-1] + x[j] - sigma_bar(j+1) x[j+1] = delta_ij,  j >= 0,

with tau_bar(-1) = 0.  `solve_row_truncated` cuts the system at j = n with
the Dirichlet condition x[n+1] = 0 and eliminates without pivoting: for
s > 0 each column k of the truncated operator has off-diagonal mass
tau_bar(k) + sigma_bar(k) < 1 against a unit diagonal, so pivots cannot
degenerate.  `solve_row_adaptive` doubles n until the normalization sum

    sum_k [1 - sigma_bar(k) - tau_bar(k)] * x[k]  ->  1

is met and the leading entries have stopped moving.  `solve_rows` does the
same for many abscissas at once: one sweep per truncation level carries
every abscissa still open, each accepted at its own level, so it gives
`solve_row_adaptive`'s values for each.  `neumann_series_sum`
accumulates row i of sum_m Qbar(s)^m over the same truncated operator and
is the independent second route used by the cross-check suites.

Real s must be finite and > 0.  Complex s with positive real part is accepted
throughout (the elimination extends verbatim); results are then complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, PivotError
from .model import KernelTransform

_MIN_PIVOT = 1e-14
_SWEEP_ELEMENTS = 6144     # states x columns that one sweep may hold
_MIN_BATCH = 16            # fewest columns worth sweeping together


@dataclass
class TransformRowResult:
    """One solved row of Rbar(s).

    values[j] holds rbar_ij(s) for j = 0..truncation_n.
    normalization_residual is |sum_k (1 - sigma_bar - tau_bar) values[k] - 1|.
    converged is set only by `solve_row_adaptive`; a bare truncated solve
    makes no convergence claim.
    """

    i: int
    s: float | complex
    truncation_n: int
    values: np.ndarray
    normalization_residual: float
    converged: bool


@dataclass
class TransformEntries:
    """rbar_ij(s) at many abscissas, from `solve_rows`.

    values[k], truncation_n[k] and normalization_residual[k] belong to
    s[k]; each abscissa was accepted at its own truncation level.
    """

    i: int
    j: int
    s: np.ndarray
    values: np.ndarray
    truncation_n: np.ndarray
    normalization_residual: np.ndarray


@dataclass(frozen=True)
class TruncationConfig:
    """Controls for the adaptive doubling of the truncation level.

    n0 is a floor: solves for start state i always begin at
    max(n0, i + 2).
    """

    n0: int = 64
    n_max: int = 2**16
    tol: float = 1e-10

    def __post_init__(self):
        if self.n0 < 2:
            raise ValueError(f"n0 must be >= 2, got {self.n0}")
        if self.n_max < self.n0:
            raise ValueError(f"n_max must be >= n0, got {self.n_max} < {self.n0}")
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


def _check_s(s):
    bad = ~np.isfinite(s) | (np.real(s) <= 0)
    if np.any(bad):
        value = np.asarray(s)[bad].flat[0]
        raise ValueError(f"transform variable must be finite with Re(s) > 0, got {value}")


def _as_abscissas(s_values) -> np.ndarray:
    return np.asarray(s_values, dtype=complex if np.iscomplexobj(s_values) else float)


def _thomas(sigma, tau, i):
    """Solve the truncated system for row i by elimination, no pivoting.

    Equation k reads x[k] - tau[k-1] x[k-1] - sigma[k+1] x[k+1] = delta_ik.
    The sweep runs along the leading axis.  A 2-D input holds one system
    per column, all stepped together in the same operations; a 1-D input
    is stepped through as Python scalars, the fastest for one system.
    """
    n = len(sigma) - 1
    if sigma.ndim == 1:
        sigma, tau = sigma.tolist(), tau.tolist()
        w, x = [1.0] * (n + 1), [0.0] * (n + 1)
    else:
        w, x = np.ones_like(sigma), np.zeros_like(sigma)
    x[i] = 1.0          # right-hand side, then solution
    wk = xk = 1.0       # pivot and right-hand side of the row last eliminated
    try:
        with np.errstate(all="ignore"):     # a bad pivot is reported below
            for k in range(1, n + 1):
                m = tau[k - 1] / wk
                wk = w[k] = 1.0 - m * sigma[k]
                if k > i:
                    xk = x[k] = m * xk
    except ZeroDivisionError:
        pass    # a zero pivot among Python scalars, reported below
    pivots = np.asarray(w)
    small = np.abs(pivots) < _MIN_PIVOT
    if small.any():
        first = np.flatnonzero(small)[0]
        row = first // (small.size // (n + 1))
        where = "last row" if row == n else f"row {row}"
        raise PivotError(f"pivot {pivots.flat[first]!r} below {_MIN_PIVOT} at {where}")
    xk = x[n] = x[n] / w[n]
    for k in range(n - 1, -1, -1):
        xk = x[k] = (x[k] + sigma[k + 1] * xk) / w[k]
    return np.asarray(x)


def _truncated(i, s, kernel: KernelTransform, n: int):
    """Row i at truncation level n and its normalization residual.

    A scalar s gives a 1-D row; a 1-D array of abscissas gives one column
    per abscissa and one residual each.
    """
    states = np.arange(n + 1)
    if np.ndim(s):
        states = states[:, None]
    sigma, tau = kernel.transforms(states, s)
    x = _thomas(sigma, tau, i)
    weighted = 1.0 - sigma      # in place from here, to hold fewer arrays
    weighted -= tau
    del sigma, tau
    weighted *= x
    # each column sums along a contiguous row, so its residual does not
    # depend on which other columns share the sweep
    return x, np.abs(np.sum(np.ascontiguousarray(weighted.T), axis=-1) - 1.0)


def solve_row_truncated(i: int, s, kernel: KernelTransform, n: int) -> TransformRowResult:
    """Solve the truncated system for row i with x[n+1] forced to zero."""
    _check_s(s)
    if not 0 <= i < n:
        raise ValueError(f"start state must satisfy 0 <= i < n, got i={i}, n={n}")
    values, residual = _truncated(i, s, kernel, n)
    return TransformRowResult(
        i=i,
        s=s,
        truncation_n=n,
        values=values,
        normalization_residual=float(residual),
        converged=False,
    )


def _sweeps(count: int, n: int) -> list:
    """Split `count` open columns into the sweeps of truncation level n.

    The sweeps are equal and each holds at most _SWEEP_ELEMENTS states x
    columns.  Where fewer than _MIN_BATCH columns would share a sweep, the
    array overhead of a step does not pay and every column sweeps alone.
    """
    sweeps = -(-count // max(1, _SWEEP_ELEMENTS // (n + 1)))
    width = -(-count // sweeps)
    if width < _MIN_BATCH:
        width = 1
    return [slice(lo, lo + width) for lo in range(0, count, width)]


def _adaptive(i: int, s: np.ndarray, kernel: KernelTransform, cfg: TruncationConfig,
              n: int, keep):
    """Accept each abscissa of s at the first level that passes both tests.

    Levels double from n, and only the columns still open are
    swept again.  Between levels only their leading entries are kept.
    Returns, per column, the accepted values[:keep] (the whole row when
    keep is None), the level and the residual.
    """
    rows = [None] * s.size
    levels = np.zeros(s.size, dtype=int)
    residuals = np.zeros(s.size)
    todo = np.arange(s.size)    # columns still open
    prev = None                 # their leading entries at the last level
    while todo.size:
        head = min(i + 11, n + 1)
        cur = np.empty((head, todo.size), dtype=s.dtype)
        last = np.empty(todo.size)
        accept = np.zeros(todo.size, dtype=bool)
        for part in _sweeps(todo.size, n):
            cols = todo[part]
            x, residual = _truncated(i, s[cols[0]] if cols.size == 1 else s[cols], kernel, n)
            x, residual = x.reshape(n + 1, cols.size), np.atleast_1d(residual)
            cur[:, part] = x[:head]
            last[part] = residual
            if prev is None:
                continue
            change = np.max(np.abs(x[: len(prev)] - prev[:, part]), axis=0)
            accept[part] = (residual <= cfg.tol) & (change <= cfg.tol)
            for k in np.flatnonzero(accept[part]):
                rows[cols[k]] = x[:keep, k].copy()
                levels[cols[k]] = n
                residuals[cols[k]] = residual[k]
        todo, prev, last = todo[~accept], cur[:, ~accept], last[~accept]
        if todo.size and n >= cfg.n_max:
            raise NonConvergenceError(
                f"row (i={i}, s={s[todo[0]]}) did not converge by n_max={cfg.n_max}; "
                f"last normalization residual {last[0]:.3e}",
                residual=float(last[0]),
            )
        n = min(2 * n, cfg.n_max)
    return rows, levels, residuals


def solve_rows(
    i: int,
    j: int,
    s_values,
    kernel: KernelTransform,
    cfg: TruncationConfig = TruncationConfig(),
) -> TransformEntries:
    """rbar_ij(s) at every abscissa of s_values, solved together.

    Each abscissa converges on its own, by exactly the tests of
    `solve_row_adaptive`, and gives the same value.  Levels start at
    max(cfg.n0, i + 2, j + 2).  Raises NonConvergenceError naming the
    first abscissa still open at cfg.n_max.
    """
    s = _as_abscissas(s_values)
    if s.ndim != 1:
        raise ValueError(f"s_values must be one-dimensional, got shape {s.shape}")
    _check_s(s)
    if i < 0 or j < 0:
        raise ValueError(f"states must be >= 0, got i={i}, j={j}")
    rows, levels, residuals = _adaptive(i, s, kernel, cfg, max(cfg.n0, i + 2, j + 2), j + 1)
    values = np.array([row[j] for row in rows], dtype=s.dtype)
    return TransformEntries(i, j, s, values, levels, residuals)


def solve_row_adaptive(
    i: int,
    s,
    kernel: KernelTransform,
    cfg: TruncationConfig = TruncationConfig(),
) -> TransformRowResult:
    """Grow the truncation until the row has converged.

    Convergence requires both the normalization residual and the maximum
    change of values[0 .. i+10] between consecutive truncations to fall
    below cfg.tol.  Raises NonConvergenceError (carrying the last residual)
    if cfg.n_max is reached first.
    """
    _check_s(s)
    if i < 0:
        raise ValueError(f"start state must be >= 0, got {i}")
    rows, levels, residuals = _adaptive(i, _as_abscissas([s]), kernel, cfg, max(cfg.n0, i + 2), None)
    return TransformRowResult(
        i=i,
        s=s,
        truncation_n=int(levels[0]),
        values=rows[0],
        normalization_residual=float(residuals[0]),
        converged=True,
    )


def neumann_series_sum(
    i: int,
    s,
    kernel: KernelTransform,
    n: int,
    m_terms: int,
    stop_below: float | None = None,
) -> np.ndarray:
    """Row i of sum_{m=0}^{m_terms} Qbar(s)^m over states 0..n.

    Powers are accumulated by repeated row-times-tridiagonal products on
    the same truncated operator `solve_row_truncated` uses, so the two
    agree in the limit of many terms.  With `stop_below` set, summation
    ends early once the newly added term has max-abs below the threshold
    and raises NonConvergenceError if the cap is hit first.
    """
    _check_s(s)
    if not 0 <= i <= n:
        raise ValueError(f"start state must satisfy 0 <= i <= n, got i={i}, n={n}")
    if m_terms < 0:
        raise ValueError(f"m_terms must be >= 0, got {m_terms}")
    sigma, tau = kernel.transforms(np.arange(n + 1), s)
    power = np.zeros(n + 1, dtype=sigma.dtype)
    power[i] = 1.0
    total = power.copy()
    for _ in range(m_terms):
        nxt = np.zeros_like(power)
        nxt[1:] = power[:-1] * tau[:-1]
        nxt[:-1] += power[1:] * sigma[1:]
        power = nxt
        total += power
        if stop_below is not None and np.max(np.abs(power)) < stop_below:
            return total
    if stop_below is not None:
        raise NonConvergenceError(
            f"Neumann term still {np.max(np.abs(power)):.3e} after {m_terms} terms "
            f"(requested stop_below={stop_below})",
            residual=float(np.max(np.abs(power))),
        )
    return total
