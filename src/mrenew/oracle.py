"""Ground-truth solvers for rows of the renewal-matrix transform.

For a tridiagonal kernel, row i of Rbar(s) = (I - Qbar(s))^-1 satisfies

    -tau_bar(j-1) x[j-1] + x[j] - sigma_bar(j+1) x[j+1] = delta_ij,  j >= 0,

with tau_bar(-1) = 0.  `solve_row_truncated` cuts the system at j = n with
the Dirichlet condition x[n+1] = 0 and eliminates without pivoting, from
the boundary up: above row i only the ratios x[k] / x[k-1] and a running
tail of the normalization sum are carried, the stable direction for the
minimal solution (Gautschi, SIAM Rev. 1967), and rows 0..i take forward
pivots.  For s > 0 each column k of the truncated operator has
off-diagonal mass tau_bar(k) + sigma_bar(k) < 1 against a unit diagonal,
so pivots cannot degenerate in either direction.  `solve_row_adaptive`
doubles n until the normalization sum

    sum_k [1 - sigma_bar(k) - tau_bar(k)] * x[k]  ->  1

is met and the leading entries have stopped moving.  `solve_rows` does the
same for many abscissas at once: one sweep per truncation level carries
every abscissa still open, each accepted at its own level, so it gives
`solve_row_adaptive`'s values for each.  A sweep keeps O(1) state per
abscissa besides the entries it returns, and evaluates the kernel in row
blocks of bounded size, so its memory does not grow with n.
`neumann_series_sum` accumulates row i of sum_m Qbar(s)^m over the same
truncated operator and is the independent second route used by the
cross-check suites.

Real s must be finite and > 0.  Complex s with positive real part is accepted
throughout (the elimination extends verbatim); results are then complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, PivotError
from .model import KernelTransform

_MIN_PIVOT = 1e-14
_SWEEP_ELEMENTS = 6144     # states x columns of one block of kernel values
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


def _level(i: int, s, kernel: KernelTransform, n: int, top: int):
    """Row i at truncation level n: entries 0..top and the normalization residual.

    Elimination runs up from the boundary x[n+1] = 0.  With g[n] = 1 and

        r[k+1] = tau[k] / g[k+1],   g[k] = 1 - sigma[k+1] r[k+1],

    row k > i reduces to x[k] = r[k] x[k-1], and the tail sum
    h[k+1] = r[k+1] (c[k+1] + h[k+2]), c = 1 - sigma - tau, carries
    sum_{l > k} c[l] x[l] / x[k] along.  Row i takes the forward pivot w[i]
    of rows 0..i in place of the 1, so x[i] = 1 / (w[i] - sigma[i+1] r[i+1]),
    and rows below i back-substitute through w.  Only the ratios up to
    `top` are kept: a column holds O(top) state whatever n is.

    A scalar s is stepped through as Python scalars, the fastest for one
    system; a 1-D array of abscissas holds one column each, all stepped
    together in the same operations.  The kernel is evaluated in row blocks
    of at most _SWEEP_ELEMENTS states x columns, or states 0..i+1 of every
    column when that is more, from the top down.
    """
    batched = np.ndim(s) == 1
    block = max(i + 2, _SWEEP_ELEMENTS // np.size(s))     # states per block
    ratios = [None] * (top + 1)
    g, s1, c1, h = np.inf, 0.0, 0.0, 0.0    # g[n+1] = inf gives r[n+1] = 0
    hi, lo = n + 1, n // block * block
    while True:
        states = np.arange(lo, hi)
        sigma, tau = kernel.transforms(states[:, None] if batched else states, s)
        c = 1.0 - sigma - tau
        if batched:
            pivots = np.ones_like(c)
        else:
            sigma, tau, c = sigma.tolist(), tau.tolist(), c.tolist()
            pivots = [1.0] * len(c)
        try:
            with np.errstate(all="ignore"):     # a bad pivot is reported below
                if lo == 0:
                    for k in range(1, i + 1):
                        pivots[k] = 1.0 - tau[k - 1] / pivots[k - 1] * sigma[k]
                for k in range(hi - 1, max(lo, i) - 1, -1):
                    r = tau[k - lo] / g
                    h = r * (c1 + h)
                    if k < top:
                        ratios[k + 1] = r
                    g = pivots[k - lo] = (1.0 if k > i else pivots[i]) - s1 * r
                    s1, c1 = sigma[k - lo], c[k - lo]
        except ZeroDivisionError:
            pass    # a zero pivot among Python scalars, reported below
        pivots = np.asarray(pivots)
        small = np.abs(pivots) < _MIN_PIVOT
        if small.any():
            last = np.flatnonzero(small)[-1]    # the sweep meets the highest row first
            row = lo + last // (small.size // len(small))
            raise PivotError(f"pivot {pivots.flat[last]!r} below {_MIN_PIVOT} at row {row}")
        if lo == 0:
            break
        hi, lo = lo, lo - block
    x = [None] * (top + 1)
    xk = x[i] = 1.0 / g         # g is row i's pivot now
    total = xk * (c1 + h)       # sum_{l >= i} c[l] x[l]
    for k in range(i - 1, -1, -1):
        xk = x[k] = sigma[k + 1] * xk / pivots[k]
        total = total + c[k] * xk
    xk = x[i]
    for k in range(i + 1, top + 1):
        xk = x[k] = ratios[k] * xk
    return np.array(x), np.abs(total - 1.0)


def solve_row_truncated(i: int, s, kernel: KernelTransform, n: int) -> TransformRowResult:
    """Solve the truncated system for row i with x[n+1] forced to zero."""
    _check_s(s)
    if not 0 <= i < n:
        raise ValueError(f"start state must satisfy 0 <= i < n, got i={i}, n={n}")
    values, residual = _level(i, s, kernel, n, n)
    return TransformRowResult(
        i=i,
        s=s,
        truncation_n=n,
        values=values,
        normalization_residual=float(residual),
        converged=False,
    )


def _adaptive(i: int, s: np.ndarray, kernel: KernelTransform, cfg: TruncationConfig,
              n: int, keep):
    """Accept each abscissa of s at the first level that passes both tests.

    Levels double from n, and only the columns still open are solved
    again, all in one sweep per level.  Fewer than _MIN_BATCH columns do
    not pay for the array overhead of a step and are solved one at a
    time.  Returns, per column, the accepted values[:keep] (the whole row
    when keep is None), the level and the residual.
    """
    rows = [None] * s.size
    levels = np.zeros(s.size, dtype=int)
    residuals = np.zeros(s.size)
    todo = np.arange(s.size)    # columns still open
    prev = None                 # their leading entries at the last level
    while todo.size:
        head = min(i + 11, n + 1)
        top = n if keep is None else max(head, keep) - 1
        sweeps = [s[col] for col in todo] if todo.size < _MIN_BATCH else [s[todo]]
        parts = [_level(i, sweep, kernel, n, top) for sweep in sweeps]
        x = np.column_stack([values for values, _ in parts])
        residual = np.hstack([part for _, part in parts])
        accept = np.zeros(todo.size, dtype=bool)
        if prev is not None:
            change = np.max(np.abs(x[: len(prev)] - prev), axis=0)
            accept = (residual <= cfg.tol) & (change <= cfg.tol)
        for k in np.flatnonzero(accept):
            rows[todo[k]] = x[:keep, k].copy()
            levels[todo[k]] = n
            residuals[todo[k]] = residual[k]
        todo, prev, residual = todo[~accept], x[:head, ~accept], residual[~accept]
        if todo.size and n >= cfg.n_max:
            raise NonConvergenceError(
                f"row (i={i}, s={s[todo[0]]}) did not converge by n_max={cfg.n_max}; "
                f"last normalization residual {residual[0]:.3e}",
                residual=float(residual[0]),
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
