"""Ground-truth solvers for rows of the renewal-matrix transform.

For a tridiagonal kernel, row i of Rbar(s) = (I - Qbar(s))^-1 satisfies

    -tau_bar(j-1) x[j-1] + x[j] - sigma_bar(j+1) x[j+1] = delta_ij,  j >= 0,

with tau_bar(-1) = 0.  It is eliminated forward from state 0, without
pivoting (Olver, J. Res. NBS 71B, 1967; Gautschi, SIAM Rev. 1967):

    w[k] = 1 - tau[k-1] sigma[k] / w[k-1],   g[k] = z[k] / w[k],
    z[k] = delta_ik + tau[k-1] z[k-1] / w[k-1],   q[k] = sigma[k+1] / w[k],

and the system cut at N (x[N+1] = 0) is x[k] = g[k] + q[k] x[k+1].  For
s > 0 each column k has off-diagonal mass tau_bar(k) + sigma_bar(k) < 1
against a unit diagonal, so the pivots w cannot degenerate.  The rows sum to

    sum_{k <= N} [1 - sigma_bar(k) - tau_bar(k)] x[k] = 1 - tau[N] g[N],

so the cut at N loses the mass |tau[N] g[N]|, and moving it from N - 1 to N
moves x[m] by g[N] q[m] .. q[N-1].  `solve_row_truncated` cuts at a given
n; `solve_rows` (and through it `solve_row_adaptive`) at the first N from a
floor up to _N_MAX = 2**16 where the lost mass is at most _TOL = 1e-10 and
the moves of x[top] still to come, |move| r / (1 - r) with r the ratio of
the last two moves, are at most 2**-52 of x[top].  For real s all terms are
positive, so no entry 0..top moves more, relative to its value; top is
max(i + 10, j).  A column keeps O(top) state whatever N is, and
`solve_rows` sweeps every abscissa of a request at once, each cut at its
own N.  The normalization residual, summed over the entries, is reported;
on its rounding floor it can sit above _TOL (up to ~3e-10 at rho in the
hundreds and more, s ~ 1e-4).  `neumann_series_sum` accumulates row i of
sum_m Qbar(s)^m over the same truncated operator and is the independent
second route used by the cross-check suites.

Real s must be finite and > 0.  Complex s with positive real part is accepted
throughout (the elimination extends verbatim); results are then complex.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergenceError, PivotError
from .model import KernelTransform

_MIN_PIVOT = 1e-14
_SWEEP_ELEMENTS = 6144     # states x columns of one block of kernel values
_MIN_BATCH = 13            # fewest columns worth sweeping together (measured crossover)
_EPS = 2.0**-52            # moves still to come allowed, relative to x[top]
_MARGIN = 10               # entries past i that the stop test covers: top = max(i + _MARGIN, j)
_N_MAX = 2**16             # largest cut N of an adaptive solve
_TOL = 1e-10               # lost mass |tau_bar(N) x[N]| allowed at the cut
_NEUMANN_STOP = 1e-12      # largest Neumann term left out of the sum
_NEUMANN_TERMS = 200_000   # most terms of a Neumann sum


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
    s[k]; each abscissa was cut at its own truncation level.
    """

    i: int
    j: int
    s: np.ndarray
    values: np.ndarray
    truncation_n: np.ndarray
    normalization_residual: np.ndarray


@dataclass(frozen=True)
class TruncationConfig:
    """The floor of the cut of `solve_row_adaptive` and `solve_rows`.

    The cut N for start state i (and target j) is at least
    max(n0, i + 2, j + 2); n0 may not exceed the cap n_max = _N_MAX.
    """

    n0: int = 64

    def __post_init__(self):
        if not 2 <= self.n0 <= _N_MAX:
            raise ValueError(f"n0 must be in [2, n_max={_N_MAX}], got {self.n0}")


def _check_s(s):
    bad = ~np.isfinite(s) | (np.real(s) <= 0)
    if np.any(bad):
        value = np.asarray(s)[bad].flat[0]
        raise ValueError(f"transform variable must be finite with Re(s) > 0, got {value}")


def _check_row(i, s, n=0) -> tuple:
    """The start state i and the level n as integers, once s is one valid abscissa."""
    if np.ndim(s) != 0:
        raise ValueError(f"a row takes one transform variable, got shape {np.shape(s)}")
    _check_s(s)
    return operator.index(i), operator.index(n)


def _back_substitute(g, q, c, top: int, x, tail):
    """Entries 0..top from x[top] = g[top] + x, and the normalization residual.

    x[k] = g[k] + q[k+1] x[k+1] (q[k+1] holds q_k); g, q and c hold a
    scalar or a row of columns per state, and tail is sum_{k > top} c[k] x[k].
    """
    xk = g[top] + x
    total = tail + c[top] * xk
    entries = [xk]
    for k in range(top - 1, -1, -1):
        xk = g[k] + q[k + 1] * xk
        total = total + c[k] * xk
        entries.append(xk)
    return np.array(entries[::-1]), abs(total - 1.0)


def _eliminate(i, s, kernel: KernelTransform, top: int, n_lo: int, n_hi: int):
    """Row i cut at the first N in [n_lo, n_hi] that passes the stop test, else at n_hi.

    (g, q, c) are kept for states 0..top; the test can pass only past top,
    so top = n_hi cuts at n_hi and keeps every state.  Past top,
    S = q[top] x[top+1] = sum_M g[M] P[M] (P[M] = q[top] .. q[M-1], so the
    cut at M moves x[top] by g[M] P[M]) and the tail sum_M g[M] U[M]
    (U[M] = q[M-1] U[M-1] + c[M]) are carried.  A scalar s is stepped as Python scalars; an array of
    abscissas as one column each, in the same operations, so a real column
    gives the bits of its scalar solve.  Kernel blocks hold at most
    _SWEEP_ELEMENTS states x columns.  Returns per abscissa: entries 0..top,
    N, the residual and whether the test passed.
    """
    batched = np.ndim(s) == 1
    cols = np.size(s)
    top = min(top, n_hi)
    first = max(n_lo, top + 1)                      # first N the test may pass at
    budget = max(1, _SWEEP_ELEMENTS // cols)        # states per block
    levels, passed, todo = np.zeros(cols, dtype=int), np.zeros(cols, dtype=bool), np.ones(cols, dtype=bool)
    sums = np.zeros((2, cols))                      # S and the tail where each column was cut
    kept = kept_g, kept_q, kept_c = [], [], []
    zero = np.zeros(cols) if batched else 0.0
    some = np.ndarray.any if batched else bool
    w, g, tp, p, u, x, tail, move, last = 1.0, 0.0, 0.0, zero + 1.0, zero, zero, zero, zero, zero
    bound = zero + _TOL                             # lost mass allowed; -1 once cut
    lo = 0
    while todo.any():
        hi = min(lo + min(budget, max(n_lo + 1, lo)), n_hi + 1)
        states = np.arange(lo, hi)
        sigma, tau = kernel.transforms(states[:, None] if batched else states, s)
        c = 1.0 - sigma - tau
        pivots = np.ones_like(c) if batched else [1.0] * (hi - lo)
        try:
            with np.errstate(all="ignore"):     # a bad pivot is reported below
                steps = zip(range(lo, hi), *(a if batched else a.tolist() for a in (sigma, tau, c)))
                for k, sigma_k, tau_k, c_k in steps:
                    q = sigma_k / w
                    w = pivots[k - lo] = 1.0 - tp * q
                    g = 1.0 / w if k == i else tp * g / w
                    tp = tau_k
                    if k <= top:
                        kept_g.append(g)
                        kept_q.append(q)
                        kept_c.append(c_k)
                    else:
                        last, p, u = move, p * q, u * q + c_k
                        move = g * p
                        x, tail = x + move, tail + g * u
                    if k < n_hi and (k < first or not some(abs(tau_k * g) <= bound)):
                        continue
                    # the moves still to come, shrinking by r per state, sum to |move| r / (1 - r)
                    r = np.abs(np.divide(move, last))
                    hit = (k >= first) & (abs(tau_k * g) <= bound) & (
                        (move == 0) | (np.abs(move) * r <= _EPS * (1.0 - r) * np.abs(kept_g[top] + x)))
                    if k < n_hi and not some(hit):
                        continue
                    cut = todo & (hit | (k == n_hi))
                    levels[cut], todo[cut] = k, False
                    passed, bound = np.where(cut, hit, passed), np.where(cut, -1.0, bound)
                    sums = np.where(cut, np.reshape((x, tail), (2, -1)), sums)
                    if not todo.any():
                        break
        except ZeroDivisionError:
            pass    # a zero pivot among Python scalars, reported below
        pivots = np.asarray(pivots)
        small = np.abs(pivots) < _MIN_PIVOT
        if small.any():
            at = np.flatnonzero(small)[0]     # the sweep meets the lowest row first
            raise PivotError(f"pivot {pivots.flat[at].item()!r} below {_MIN_PIVOT} at row {lo + at // cols}")
        lo = hi
    x, tail = sums if batched else sums[:, 0].tolist()
    values, residuals = _back_substitute(*kept, top, x, tail)
    return list(np.reshape(values, (-1, cols)).T), levels, np.reshape(residuals, cols), passed


def solve_row_truncated(i: int, s, kernel: KernelTransform, n: int) -> TransformRowResult:
    """Solve the truncated system for row i with x[n+1] forced to zero."""
    i, n = _check_row(i, s, n)
    if not 0 <= i < n:
        raise ValueError(f"start state must satisfy 0 <= i < n, got i={i}, n={n}")
    rows, _, residuals, _ = _eliminate(i, s, kernel, n, n, n)
    return TransformRowResult(i, s, n, rows[0], float(residuals[0]), converged=False)


def solve_rows(
    i: int,
    j: int,
    s_values,
    kernel: KernelTransform,
    cfg: TruncationConfig = TruncationConfig(),
) -> TransformEntries:
    """rbar_ij(s) at every abscissa of s_values, solved together.

    Each abscissa is cut at its own N >= max(cfg.n0, i + 2, j + 2), by the
    stop test of the module docstring with top = max(i + 10, j).  Raises
    NonConvergenceError naming the first abscissa that has not passed the
    test by n_max = _N_MAX, with its normalization residual there.
    """
    s = np.asarray(s_values, dtype=complex if np.iscomplexobj(s_values) else float)
    if s.ndim != 1:
        raise ValueError(f"s_values must be one-dimensional, got shape {s.shape}")
    _check_s(s)
    i, j = operator.index(i), operator.index(j)
    if i < 0 or j < 0:
        raise ValueError(f"states must be >= 0, got i={i}, j={j}")
    n_lo = max(cfg.n0, i + 2, j + 2)
    values, levels, residuals = [], [], []
    # fewer than _MIN_BATCH abscissas do not pay for the array overhead of a step
    for sweep in (s.tolist() if s.size < _MIN_BATCH else [s]):
        rows, level, residual, passed = _eliminate(
            i, sweep, kernel, max(i + _MARGIN, j), n_lo, max(_N_MAX, n_lo))
        if not passed.all():
            k = np.flatnonzero(~passed)[0]
            raise NonConvergenceError(
                f"row (i={i}, s={np.atleast_1d(sweep)[k]}) did not converge by n_max={_N_MAX}; "
                f"last normalization residual {residual[k]:.3e}",
                residual=float(residual[k]),
            )
        values += [row[j] for row in rows]
        levels += level.tolist()
        residuals += residual.tolist()
    values = np.array(values, dtype=s.dtype)
    return TransformEntries(i, j, s, values, np.array(levels, dtype=int), np.array(residuals))


def solve_row_adaptive(
    i: int,
    s,
    kernel: KernelTransform,
    cfg: TruncationConfig = TruncationConfig(),
) -> TransformRowResult:
    """Row i solved at the N where `solve_rows(i, i, [s], kernel, cfg)` cuts it.

    The stop test (module docstring) bounds the mass lost at N by _TOL
    and what is still to come of the moves of values[0 .. i+10] by 2**-52
    of their values; entries past i + 10 carry the error of the cut.
    Raises NonConvergenceError (carrying the residual at the cap) if no N
    up to n_max = _N_MAX passes.
    """
    _check_row(i, s)
    n = int(solve_rows(i, i, [s], kernel, cfg).truncation_n[0])
    return replace(solve_row_truncated(i, s, kernel, n), converged=True)


def neumann_series_sum(i: int, s, kernel: KernelTransform, n: int) -> np.ndarray:
    """Row i of sum_m Qbar(s)^m over states 0..n.

    Powers are accumulated by repeated row-times-tridiagonal products on
    the same truncated operator `solve_row_truncated` uses, so the two
    agree in the limit of many terms.  Summation ends once the newly added
    term has max-abs below _NEUMANN_STOP = 1e-12, and raises
    NonConvergenceError if _NEUMANN_TERMS = 200,000 terms come first.
    """
    i, n = _check_row(i, s, n)
    if not 0 <= i <= n:
        raise ValueError(f"start state must satisfy 0 <= i <= n, got i={i}, n={n}")
    sigma, tau = kernel.transforms(np.arange(n + 1), s)
    power = np.zeros(n + 1, dtype=sigma.dtype)
    power[i] = 1.0
    total = power.copy()
    for _ in range(_NEUMANN_TERMS):
        nxt = np.zeros_like(power)
        nxt[1:] = power[:-1] * tau[:-1]
        nxt[:-1] += power[1:] * sigma[1:]
        power = nxt
        total += power
        if np.max(np.abs(power)) < _NEUMANN_STOP:
            return total
    raise NonConvergenceError(
        f"Neumann term still {np.max(np.abs(power)):.3e} after {_NEUMANN_TERMS} terms "
        f"(stop below {_NEUMANN_STOP})",
        residual=float(np.max(np.abs(power))),
    )
