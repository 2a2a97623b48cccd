"""Ground-truth solvers for rows of the renewal-matrix transform.

For a tridiagonal kernel, row i of Rbar(s) = (I - Qbar(s))^-1 satisfies

    -tau_bar(j-1) x[j-1] + x[j] - sigma_bar(j+1) x[j+1] = delta_ij,  j >= 0,

with tau_bar(-1) = 0.  It is eliminated forward from state 0, without
pivoting (Olver, J. Res. NBS 71B, 1967; Gautschi, SIAM Rev. 1967):

    w[k] = 1 - tau[k-1] sigma[k] / w[k-1],   g[k] = z[k] / w[k],
    z[k] = delta_ik + tau[k-1] z[k-1] / w[k-1],   q[k] = sigma[k+1] / w[k],

and the system cut at N (x[N+1] = 0) is x[k] = g[k] + q[k] x[k+1].  For
s > 0 each column k has off-diagonal mass tau_bar(k) + sigma_bar(k) < 1
against a unit diagonal, so the pivots w cannot degenerate; a kernel that
breaks this contract and meets a pivot below _MIN_PIVOT = 1e-14 is refused
with PivotError, naming the lowest such row and, of its abscissas, the
first in grid order.  The rows sum to

    sum_{k <= N} [1 - sigma_bar(k) - tau_bar(k)] x[k] = 1 - tau[N] g[N],

so the cut at N loses the mass |tau[N] g[N]|, and moving it from N - 1 to N
moves x[m] by g[N] q[m] .. q[N-1].  `solve_row_truncated` cuts at a given
n.  `solve_row_adaptive` cuts at the first judged N (below) up to
_N_MAX = 2**16 that passes the lost-mass test: the lost mass is at most
_TOL = 1e-10 and the moves of x[top] still to come, |move| r / (1 - r)
with r the ratio of the last two moves, are at most 2**-52 of x[top].
For real s all terms are positive, so no entry 0..top moves more,
relative to its value; top is max(i + 10, j).

`solve_rows` cuts at the first judged N that passes the lost-mass test or
the bound test: |q[top] .. q[N]| < 2**-52 c[N+1](Re s) |x[top]|, with
c = 1 - sigma_bar - tau_bar.  The exact row restricted to 0..N solves the
system cut at N with boundary value x[N+1], so the cut moves x[top] by
exactly q[top] .. q[N] x[N+1].  At real s, x >= 0 and
sum_k c[k] x[k] <= 1, so x[N+1] <= 1 / c[N+1]; at complex s,
|x(s)| <= x(Re s) (`KernelTransform`), so |x[N+1]| <= 1 / c[N+1](Re s).
Either way the cut moves x[top] by less than 2**-52 of its value, and for
real s every entry 0..top by less, relative to its value, as above.  The
bound test cuts rows whose states past top drift strongly upwards (top
well below rho for M|M|inf) long before their mass runs out; the two
tests may give different N, so `solve_row_adaptive`, whose contract is the
whole row's normalization, does not share `solve_rows`' N.

Both sweeps take one step per state k, in one order, with the kernel read
one state ahead (sigma_bar and c(Re s) of state k + 1 step state k): the
pivot w[k] and g[k]; past top, the move g[k] P[k] of x[top], with
P[k] = q[top] .. q[k-1], added to S = q[top] x[top+1]; then tau[k] g[k]
and q[k]; the record (g[k], q[k]) up to top; and from top on P[k+1].  So
the tests read products the step makes anyway, and state N judges level N
once, by both tests against one |x[top]|.  The judged levels are
first = max(n_lo, top + 1), every _STRIDE = 8th level past it,
first + 8, first + 16, ..., and the last level n_hi, which reads the
kernel at n_hi + 1: each test is a proof at whatever level it passes,
and a judged level costs the array sweep 12 numpy calls on top of the
step's 9.  The cut: a column is cut at the first judged level that passes
a test (the bound test only for `solve_rows`), else at n_hi, and once cut
it is silent: no later test, pivot or move counts for it.  top = n_hi
judges no level, cuts at n_hi and keeps every state.
Its entries are back-substituted from x[top] = g[top] + S, down to j only
for `solve_rows`, the one entry it reads, and down to state 0 for
`solve_row_truncated`.  Kernel values must be finite: a block holding a
NaN or an infinity is refused with ValueError, naming its first such
state and abscissa, before any of it is swept.

A column keeps O(top) state whatever N is, and `solve_rows` sweeps every
abscissa of a request in one pass, each cut at its own N: a grid of at
least _MIN_BATCH = 17 abscissas as columns of numpy arrays, a shorter one
column by column in Python numbers, where the array bookkeeping would cost
more than the steps.  Both walk one block schedule (`_blocks`), which
reads each kernel block once for every abscissa of the grid, and both
step every open column through a block before a small pivot is reported,
so a real column gets the same bits, or the same error, from a short grid
and from its padding to _MIN_BATCH columns, a bad kernel value past every
column's cut included.
The residual `solve_rows` reports is the mass its cut loses,
|tau[N] g[N]|, which by the sum above is the normalization residual of
the row cut at N without the rounding of a second sum: at most _TOL
where the lost-mass test cut, and not small where the bound test cut.
`solve_row_truncated` sums the residual over the row it returns instead,
a check apart from the cut.  `neumann_series_sum` accumulates
row i of sum_m Qbar(s)^m over the same truncated operator and is the
independent second route used by the cross-check suites.

Real s must be finite and at least _S_MIN = 1e-14.  Complex s with real
part at least _S_MIN is accepted throughout (the elimination extends
verbatim); results are then complex.  The floor comes from the rounding
bound of the solve, 1e-12 max(1, 0.01 / s) of the largest entry 0..top:
below s = 1e-14 it passes the entries' own size, and no digit is backed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import count

import numpy as np

from .errors import NonConvergenceError, PivotError
from .model import KernelTransform

_MIN_PIVOT = 1e-14
_SWEEP_ELEMENTS = 6144     # states x columns of one block of kernel values
_MIN_BATCH = 17            # fewest columns worth sweeping together (measured real crossover)
_EPS = 2.0**-52            # moves still to come allowed, relative to x[top]
_MARGIN = 10               # entries past i that the stop test covers: top = max(i + _MARGIN, j)
_STRIDE = 8                # levels from one judged level to the next (module docstring)
_N_MAX = 2**16             # largest cut N of an adaptive solve
_TOL = 1e-10               # lost mass |tau_bar(N) x[N]| allowed at the cut
_NEUMANN_STOP = 1e-12      # largest Neumann term left out of the sum
_NEUMANN_TERMS = 200_000   # most terms of a Neumann sum
_S_MIN = 1e-14             # smallest Re(s): below it the rounding bound 1e-12 * 0.01 / s passes 1


@dataclass
class TransformRowResult:
    """One solved row of Rbar(s).

    values[j] holds rbar_ij(s) for j = 0..truncation_n.
    normalization_residual is |sum_k (1 - sigma_bar - tau_bar) values[k] - 1|,
    summed over the row once it is solved, so it checks the row apart from
    the lost mass the cut was judged by.
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
    s[k]; each abscissa was cut at its own truncation level N, one of the
    judged levels of the module docstring.  s is a copy of the caller's
    abscissas.  The residual is the mass the cut loses, |tau_bar(N) x[N]|,
    which is `TransformRowResult`'s summed residual of the row cut at N up
    to that sum's rounding; it is not small where the bound test cut (see
    the module docstring).
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
        if not 2 <= operator.index(self.n0) <= _N_MAX:
            raise ValueError(f"n0 must be in [2, n_max={_N_MAX}], got {self.n0}")


def _check_s(s):
    bad = ~np.isfinite(s) | (np.real(s) < _S_MIN)
    if np.any(bad):
        value = np.asarray(s)[bad].flat[0]
        raise ValueError(f"transform variable must be finite with Re(s) >= {_S_MIN:g}, got {value}")


def _check_row(i, s, n) -> tuple:
    """The start state i and the level n as integers, once s is one valid abscissa and 0 <= i <= n."""
    if np.ndim(s) != 0:
        raise ValueError(f"a row takes one transform variable, got shape {np.shape(s)}")
    _check_s(s)
    i, n = operator.index(i), operator.index(n)
    if not 0 <= i <= n:
        raise ValueError(f"start state must satisfy 0 <= i <= n, got i={i}, n={n}")
    return i, n


def _back_substitute(kept, x, low: int):
    """Entries low..top from x[top] = g[top] + x.

    kept holds (g[k], q[k]) for states 0..top, each a scalar or a row of
    columns; x[k] = g[k] + q[k] x[k+1] below top, read down to low only.
    """
    x = kept[-1][0] + x
    entries = [x]
    for g, q in reversed(kept[low:-1]):
        x = g + q * x
        entries.append(x)
    return np.array(entries[::-1])


def _read_block(kernel: KernelTransform, states, s) -> tuple:
    """sigma_bar, tau_bar, c = 1 - sigma_bar - tau_bar and c(Re s) at a column of
    states (rows) and a row of abscissas s (columns).

    Raises ValueError naming the first state and abscissa where c or c(Re s)
    is not finite: a NaN or an infinity in sigma_bar or tau_bar reaches c.
    """
    sigma, tau = kernel.transforms(states, s)
    c = 1.0 - sigma - tau
    if not np.isfinite(c).all():
        at = np.flatnonzero(~np.isfinite(c))[0]
        state, s_at, sigma_at, tau_at = (np.broadcast_to(a, c.shape).flat[at].item()
                                         for a in (states, s, sigma, tau))
        raise ValueError(f"kernel values at state {state}, s={s_at} are not finite: "
                         f"sigma_bar = {sigma_at}, tau_bar = {tau_at}")
    # c at Re s, where sum_k c_k x_k <= 1 and x >= |x(s)|
    c_re = _read_block(kernel, states, np.real(s))[2] if np.iscomplexobj(c) else c
    return sigma, tau, c, c_re


def _blocks(kernel: KernelTransform, s, n_lo: int, n_hi: int):
    """The kernel blocks both sweeps step, as (lo, sigma_bar, tau_bar, c(Re s)):
    states lo..hi, the row read ahead included, at every abscissa of s.

    The first block reaches past the floor n_lo, each later one is as long
    as all before it, and none holds more than _SWEEP_ELEMENTS states x
    columns, a grid of fewer than _MIN_BATCH columns counted as _MIN_BATCH,
    so a short grid and its padding to _MIN_BATCH columns read the same
    blocks; the last reads state n_hi + 1.  A block is read only when the
    next one is asked for, and an empty grid reads none.
    """
    budget = max(1, _SWEEP_ELEMENTS // max(s.size, _MIN_BATCH) - 1)    # states stepped per block, which reads one more
    lo = 0
    while s.size and lo <= n_hi:
        hi = min(lo + min(budget, max(n_lo + 1, lo)), n_hi + 1)
        sigma, tau, _, c_re = _read_block(kernel, np.arange(lo, hi + 1)[:, None], s)
        yield lo, sigma, tau, c_re
        lo = hi


def _small_pivot(w, row: int, s) -> PivotError:
    return PivotError(f"pivot {w!r} below {_MIN_PIVOT} at row {row}, s={s}")


def _eliminate(i, s, kernel: KernelTransform, top: int, low: int, n_lo: int, n_hi: int, proven: bool = True):
    """`solve_rows`' sweep of the array s: each abscissa a column of numpy
    arrays, all stepped state by state, block by block of `_blocks`.

    The columns share every step, so a cut column steps on with the open
    ones; the mask `todo` of open columns keeps it out of every later test
    and cut, and a pivot past its level does not count.  Returns per abscissa:
    entries low..top (low <= top), N, the lost mass |tau[N] g[N]| there and
    whether a test passed.
    """
    cols = s.size
    top = min(top, n_hi)
    first = max(n_lo, top + 1)                      # first N the tests may pass at
    # an open column's level is n_hi, past every row it may still step
    levels, passed, todo = np.full(cols, n_hi), np.zeros(cols, dtype=bool), np.ones(cols, dtype=bool)
    kept = []
    zero = np.zeros(cols)
    xs = losses = zero                              # S and the lost mass |tg| where each column was cut
    g, tp, tg, q, p, x, move, last = 0.0, 0.0, 0.0, 0.0, zero + 1.0, zero, zero, zero
    hit, eps = False, _EPS if proven else 0.0       # no level below first passes
    test_at = first                                 # the next level judged
    for lo, sigma, tau, c_re in _blocks(kernel, s, n_lo, n_hi):
        pivots = np.ones_like(sigma)
        with np.errstate(all="ignore"):         # a bad pivot is reported below
            # sigma and c_re of state k + 1 step state k
            for k, sigma_k, tau_k, c_re_k in zip(count(lo), sigma[1:], tau, c_re[1:]):
                w = pivots[k - lo] = 1.0 - tp * q
                g = 1.0 / w if k == i else tg / w
                if k > top:
                    last, move = move, g * p
                    x = x + move
                tp, tg, q = tau_k, tau_k * g, sigma_k / w
                if k <= top:
                    kept.append((g, q))
                if k >= top:
                    p = p * q
                if k == test_at:
                    # level k of the open columns: the bound test (the cut at k moves x[top]
                    # by p x[k+1], and |x[k+1]| <= 1 / c_re_k), then the lost-mass test
                    test_at = min(k + _STRIDE, n_hi)
                    x_top = abs(kept[top][0] + x)
                    hit = todo & (abs(p) < eps * c_re_k * x_top)
                    if (lost := todo & (abs(tg) <= _TOL)).any():
                        # the moves still to come, shrinking by r per state, sum to |move| r / (1 - r)
                        r = abs(move) / abs(last)
                        hit = hit | lost & ((move == 0) | (abs(move) * r <= _EPS * (1.0 - r) * x_top))
                    if k < n_hi and not hit.any():
                        continue
                elif k < n_hi:                      # hit still holds the last judged level's columns
                    continue
                cut = hit | todo & (k == n_hi)
                levels[cut], todo[cut] = k, False
                passed = np.where(cut, hit, passed)
                xs, losses = np.where(cut, x, xs), np.where(cut, abs(tg), losses)
                if not todo.any():
                    break
        small = np.abs(pivots) < _MIN_PIVOT
        # a cut column steps on with the open ones, but its pivots count only up to its level
        if small.any() and (small := small & (np.arange(lo, lo + len(pivots))[:, None] <= levels)).any():
            at = np.flatnonzero(small)[0]     # the sweep meets the lowest row first
            raise _small_pivot(pivots.flat[at].item(), lo + at // cols, s[at % cols])
        if not todo.any():
            break
    return list(_back_substitute(kept, xs, low).T), levels, losses, passed


def _eliminate_short(i, s, kernel: KernelTransform, top: int, low: int, n_lo: int, n_hi: int, proven: bool = True):
    """`_eliminate` for a short grid s, one `_short_column` per abscissa.

    Each block of `_blocks` is split into one list per column and sent to
    every column whose end is still None.  Returns `_eliminate`'s results
    as lists.
    """
    top = min(top, n_hi)
    columns = [_short_column(i, top, low, n_lo, n_hi, proven) for _ in s]
    for column in columns:
        next(column)                                # to its first yield, ready for a block
    ends = [None] * s.size
    for lo, *block in _blocks(kernel, s, n_lo, n_hi):
        ends = [column.send((lo, *lists)) if end is None else end
                for column, end, lists in zip(columns, ends, zip(*(a.T.tolist() for a in block)))]
        # (row, column, pivot) of each pivot below _MIN_PIVOT
        if small := [(end[0], col, end[1]) for col, end in enumerate(ends) if end and len(end) == 2]:
            row, col, w = min(small)                # the lowest row, then the first column
            raise _small_pivot(w, row, s[col])
        if all(ends):
            break
    return tuple([end[field] for end in ends] for field in range(4))


def _short_column(i: int, top: int, low: int, n_lo: int, n_hi: int, proven: bool):
    """One column of `_eliminate_short`: `_eliminate`'s step on Python numbers.

    Is sent (lo, sigma, tau, c_re), the lists of one block from state lo;
    yields None while open, then once its end: (entries low..top, N, the
    lost mass, whether a test passed) at its cut, or (row, pivot) at its
    first pivot below _MIN_PIVOT.
    """
    first = max(n_lo, top + 1)                      # first N the tests may pass at
    tol, eps = _TOL, _EPS if proven else 0.0
    kept = []
    g = tp = tg = q = x = move = last = 0.0
    p, hit = 1.0, False                             # no level below first passes
    test_at = first                                 # the next level judged
    end = None
    while not end:
        lo, sigma, tau, c_re = yield
        # sigma and c_re of state k + 1 step state k
        for k, sigma_k, tau_k, c_re_k in zip(count(lo), sigma[1:], tau, c_re[1:]):
            w = 1.0 - tp * q
            if abs(w) < _MIN_PIVOT:
                end = k, w
                break
            g = 1.0 / w if k == i else tg / w
            if k > top:
                last, move = move, g * p
                x = x + move
            tp, tg, q = tau_k, tau_k * g, sigma_k / w
            if k <= top:
                kept.append((g, q))
            if k >= top:
                p = p * q
            if k == test_at:
                # level k: the bound test, then the lost-mass test, as in `_eliminate`
                test_at = min(k + _STRIDE, n_hi)
                x_top = abs(kept[top][0] + x)
                hit = abs(p) < eps * c_re_k * x_top
                if not hit and abs(tg) <= tol:
                    # a zero last move gives no ratio: the test fails unless move is 0 too
                    hit = move == 0 or last != 0 and (
                        abs(move) * (r := abs(move / last)) <= _EPS * (1.0 - r) * x_top)
            if not hit and k < n_hi:
                continue
            end = _back_substitute(kept, x, low), k, abs(tg), hit
            break
    yield end


def solve_row_truncated(i: int, s, kernel: KernelTransform, n: int) -> TransformRowResult:
    """Solve the truncated system for row i, 0 <= i <= n, with x[n+1] forced to zero."""
    i, n = _check_row(i, s, n)
    (row,), *_ = _eliminate_short(i, np.reshape(s, 1), kernel, top=n, low=0, n_lo=n, n_hi=n, proven=True)
    # the residual summed over the row, a check on it apart from the cut's own lost mass
    c = _read_block(kernel, np.arange(n + 1)[:, None], np.reshape(s, 1))[2]
    residual = float(abs(np.sum(c[:, 0] * row) - 1.0))
    return TransformRowResult(i, s, n, row, residual, converged=False)


def solve_rows(
    i: int,
    j: int,
    s_values,
    kernel: KernelTransform,
    cfg: TruncationConfig = TruncationConfig(),
) -> TransformEntries:
    """rbar_ij(s) at every abscissa of s_values, solved together.

    Each abscissa is cut at its own N, the first judged level that passes
    the lost-mass test or the bound test of the module docstring, with
    top = max(i + 10, j).  The levels judged are
    first = max(cfg.n0, i + 11, j + 2), first + 8, first + 16, ... and
    n_max = _N_MAX.  Raises NonConvergenceError naming the first abscissa
    that has passed neither by n_max, with the mass its cut there loses as
    the residual.
    """
    return _solve_rows(i, j, s_values, kernel, cfg, proven=True)


def _solve_rows(i, j, s_values, kernel, cfg, proven) -> TransformEntries:
    s = np.array(s_values, dtype=complex if np.iscomplexobj(s_values) else float)
    if s.ndim != 1:
        raise ValueError(f"s_values must be one-dimensional, got shape {s.shape}")
    _check_s(s)
    i, j = operator.index(i), operator.index(j)
    if i < 0 or j < 0:
        raise ValueError(f"states must be >= 0, got i={i}, j={j}")
    n_lo = max(cfg.n0, i + 2, j + 2)
    # fewer than _MIN_BATCH abscissas do not pay for the array overhead of a step
    sweep = _eliminate_short if s.size < _MIN_BATCH else _eliminate
    rows, levels, residuals, passed = sweep(i, s, kernel, max(i + _MARGIN, j), j, n_lo, max(_N_MAX, n_lo), proven)
    if not all(passed):
        k = list(passed).index(False)
        raise NonConvergenceError(
            f"row (i={i}, s={s[k]}) did not converge by n_max={_N_MAX}; "
            f"lost mass {residuals[k]:.3e} at the cut",
            residual=float(residuals[k]),
        )
    values = np.array([row[0] for row in rows], dtype=s.dtype)    # each row holds x[j] .. x[top]
    return TransformEntries(i, j, s, values, np.array(levels, dtype=int), np.array(residuals, dtype=float))


def solve_row_adaptive(
    i: int,
    s,
    kernel: KernelTransform,
    cfg: TruncationConfig = TruncationConfig(),
) -> TransformRowResult:
    """Row i solved at the first judged N that passes the lost-mass test.

    The levels judged are first = max(cfg.n0, i + 11), first + 8,
    first + 16, ... and n_max.  The test (module docstring, top = i + 10)
    bounds the mass lost at N by _TOL, so the whole row's normalization
    residual is small, and what is still to come of the moves of
    values[0 .. i+10] by 2**-52 of their values; entries past i + 10 carry
    the error of the cut.  The bound test of `solve_rows` is not used, so
    this N can lie deeper than `solve_rows(i, i, [s])`'s.  Raises
    NonConvergenceError (carrying the lost mass at the cap) if no N up to
    n_max = _N_MAX passes.
    """
    _check_row(i, s, i)                 # the level is not known yet: the cut lies past i
    n = int(_solve_rows(i, i, [s], kernel, cfg, proven=False).truncation_n[0])
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
    sigma, tau = (a[:, 0] for a in _read_block(kernel, np.arange(n + 1)[:, None], np.reshape(s, 1))[:2])
    power = np.zeros(n + 1, dtype=sigma.dtype)
    power[i] = 1.0
    total = power.copy()
    for _ in range(_NEUMANN_TERMS):
        power = np.concatenate([[0.0], power[:-1] * tau[:-1]]) + np.concatenate([power[1:] * sigma[1:], [0.0]])
        total += power
        if np.max(np.abs(power)) < _NEUMANN_STOP:
            return total
    raise NonConvergenceError(
        f"Neumann term still {np.max(np.abs(power)):.3e} after {_NEUMANN_TERMS} terms "
        f"(stop below {_NEUMANN_STOP})",
        residual=float(np.max(np.abs(power))),
    )
