"""Correctness checks, run outside the timed region.

Every request is checked against a route independent of the one it measures,
by parsing the CSV values themselves (the CLI exits 0 while printing `nan`):

* inversion: a Gaver-Stehfest request of order k must print the same bytes
  as the same request run again in the checking process, and must agree
  with Euler; an Euler request must agree with GS order 14.  Agreement is
  within 1e-4 relative plus 1e-8 absolute plus 5 times the spread of GS
  over orders k-4, k-2 and k (`_spread`), all recomputed here, so the
  measured output never enters its own tolerance.  Gaver-Stehfest is off
  by up to 1e-2 relative, and by more on values below 1e-3, early on a grid
  when the target state lies below the start state; at order 18 rounding
  alone put it 1.6e-4 relative from Euler at t = 518.  The spread term
  covers both and is negligible where GS has converged.
* transform: the oracle value finite, and |closed - oracle| <=
  max(1e-6 |oracle|, 1e-9), acceptance criterion 4's tolerance, unless the
  row shows the symptom of one of the known closed-form defects (below).
* simulation: each mean within 5 standard errors plus 50 / paths of a
  Gaver-Stehfest reference, plus the reference's own tolerance as above.
  The floor covers cells that few or no paths entered: a path that reaches
  a far target enters it several times, so the entries come in clusters
  and 500 paths can all miss a cell whose mean is 0.02.  Over the whole run,
  the z-scores of cells with at least 50 entries must not lean one way
  (`bias`).

A failure is "known" only when it shows the symptom of one of the
closed-form defects the transform workload deliberately reaches, and the
oracle value it is compared with is confirmed by a second truncation; any
other failure is unexpected.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys

from program import call, load_cli

INVERSION_REL, INVERSION_ABS = 1e-4, 1e-8
TRANSFORM_REL, TRANSFORM_ABS = 1e-6, 1e-9
GS_SPREAD_FACTOR = 5.0
SIM_SE, SIM_FLOOR_PATHS = 5.0, 50.0
SIM_FILLED_ENTRIES, SIM_BIAS_Z = 50, 5.0
# Error allowed to the closed form per unit of the summed magnitude of its
# terms (`_term_magnitude`).  Over 12,800 transform requests spread over the
# workload's ranges, no mismatch exceeded 0.26 of it.
CANCELLATION_ERROR = 1e-14
LOG_FLOAT_MAX = math.log(sys.float_info.max)

KNOWN_KUMMER = "known: kummer_m returns NaN or 0 above rho ~ 710 (exp(-rho) underflows)"
KNOWN_OVERFLOW = "known: rho**m raises OverflowError for a target j in the hundreds"
KNOWN_CANCELLATION = "known: closed-form alternating sum loses precision for i >= 12"


class Failed(Exception):
    def __init__(self, cause: str, known: bool = False):
        super().__init__(cause)
        self.cause, self.known = cause, known


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _points(argv, flag):
    return int(_opt(argv, flag).split(":")[2])


def _rows(outcome, header, points):
    """Parse the CSV of a finished request into rows of floats."""
    if outcome.error is not None:
        raise Failed(f"exception escaped cli.run: {outcome.error}")
    if outcome.code != 0:
        raise Failed(f"exit code {outcome.code}")
    lines = outcome.stdout.splitlines()
    if not lines or lines[0] != header or len(lines) != points + 1:
        raise Failed(f"malformed CSV: expected header {header!r} and {points} rows")
    try:
        return [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise Failed(f"malformed CSV value: {exc}") from None


def _renewal(cli, argv):
    """Run a `renewal` request here; return its values and its CSV."""
    outcome = call(cli, argv)
    values = [r for _, r in _rows(outcome, "t,R", _points(argv, "--t-grid"))]
    if not all(map(math.isfinite, values)):
        raise Failed(f"reference route gave a non-finite value: {' '.join(argv)}")
    return values, outcome.stdout


def _gs_argv(argv, order):
    """The Gaver-Stehfest `renewal` request on the same inputs and grid."""
    same = [x for f in ("--i", "--j", "--t-grid", "--lambda", "--alpha") for x in (f, _opt(argv, f))]
    return ["renewal"] + same + ["--method", "gs", "--order", str(order)]


def _gs(cli, argv, orders):
    """The Gaver-Stehfest request on the same inputs, run here at each order:
    a list of (values, CSV)."""
    return [_renewal(cli, _gs_argv(argv, k)) for k in orders]


def _spread(runs):
    """The range of values over the runs, point by point: an estimate of the
    Gaver-Stehfest error.  Orders next to each other can agree far better
    than either agrees with the truth, so it takes three."""
    return [max(vals) - min(vals) for vals in zip(*(values for values, _ in runs))]


def check_inversion(cli, outcome):
    argv = outcome.argv
    rows = _rows(outcome, "t,R", _points(argv, "--t-grid"))
    if not all(math.isfinite(r) for _, r in rows):
        raise Failed("non-finite value in CSV")
    if _opt(argv, "--method") == "gs":
        order = int(_opt(argv, "--order"))
        runs = _gs(cli, argv, (order - 4, order - 2, order))
        if runs[-1][1] != outcome.stdout:
            raise Failed("output differs from the same request run again in a fresh process")
        ref, _ = _renewal(cli, argv[:argv.index("--method")] + ["--method", "euler"])
        est = _spread(runs)
    else:
        runs = _gs(cli, argv, (10, 12, 14))
        ref, est = runs[-1][0], _spread(runs)
    for (t, value), y, e in zip(rows, ref, est):
        if abs(value - y) > INVERSION_REL * abs(y) + INVERSION_ABS + GS_SPREAD_FACTOR * e:
            raise Failed(f"R({t:g}) = {value!r} vs reference {y!r} (GS spread {e:.2g})")


def _log_binomial(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _term_magnitude(i, n, a_s, rho):
    """Bound on the sum of |terms| of the closed form's double sum for rbar_in.

    Term (k, j) is C(i, k) C(k, j) rho^m / (c + 1)_m M(m + 1, c + m + 1, -rho)
    / c with c = a_s + k and m = n - j, times n + rho + a_s.  For 0 < a < b,
    0 < M(a, b, -x) <= min(1, (b - a)_a / x^a), which gives the bound
    min(rho^m / (c + 1)_m, c / rho) on the middle factors.  Rounding in an
    alternating sum leaves an error of order this bound times the precision
    of one term; a larger error is not cancellation.
    """
    log_rho, total = math.log(rho), 0.0
    for k in range(i + 1):
        c = a_s + k
        for j in range(min(n, k) + 1):
            m = n - j
            middle = min(m * log_rho - (math.lgamma(c + 1 + m) - math.lgamma(c + 1)),
                         math.log(c) - log_rho)
            total += math.exp(_log_binomial(i, k) + _log_binomial(k, j) + middle - math.log(c))
    return (n + rho + a_s) * total


def _second_truncation(cli, i, j, s, lam, alpha):
    """rbar_ij(s) from the oracle run here on other truncation levels: it
    starts from three times the CLI's start level, so every level it solves
    and the level it accepts differ from the CLI's."""
    try:
        kernel = cli.MMInfinityKernel(cli.QueueParams(lam, alpha))
        cfg = cli.TruncationConfig(n0=3 * max(64, j + 2))
        return float(cli.solve_row_adaptive(i, s, kernel, cfg).values[j].real)
    except Exception as exc:
        raise Failed(f"could not recheck the oracle at s = {s:g}: "
                     f"{type(exc).__name__}: {exc}") from None


def _known_defect(i, j, a_s, rho, oracle, closed):
    """The known closed-form defect whose symptom a mismatched row shows, or None."""
    if rho > 700 and (math.isnan(closed) or closed == 0.0):
        return KNOWN_KUMMER
    if (i >= 12 and math.isfinite(closed)
            and abs(closed - oracle) <= CANCELLATION_ERROR * _term_magnitude(i, j, a_s, rho)):
        return KNOWN_CANCELLATION
    return None


def check_transform(cli, outcome):
    argv = outcome.argv
    i, j = int(_opt(argv, "--i")), int(_opt(argv, "--j"))
    lam, alpha = float(_opt(argv, "--lambda")), float(_opt(argv, "--alpha"))
    rho = lam * alpha
    if (outcome.error is not None and outcome.error.startswith("OverflowError")
            and j * math.log(rho) > LOG_FLOAT_MAX):
        raise Failed(KNOWN_OVERFLOW, known=True)
    known = None
    for s, oracle, closed, _ in _rows(outcome, "s,rbar_oracle,rbar_closedform,rel_diff",
                                      _points(argv, "--s-grid")):
        if not (math.isfinite(s) and math.isfinite(oracle)):
            raise Failed(f"oracle value {oracle!r} at s = {s:g}")
        if math.isfinite(closed) and abs(closed - oracle) <= max(TRANSFORM_REL * abs(oracle),
                                                                 TRANSFORM_ABS):
            continue
        cause = _known_defect(i, j, alpha * s, rho, oracle, closed)
        if cause is None:
            raise Failed(f"closed form {closed!r} vs oracle {oracle!r} at s = {s:g}")
        again = _second_truncation(cli, i, j, s, lam, alpha)
        if abs(oracle - again) > max(TRANSFORM_REL * abs(again), TRANSFORM_ABS):
            raise Failed(f"oracle {oracle!r} vs {again!r} on a second truncation at s = {s:g}")
        known = known or cause
    if known:
        raise Failed(known, known=True)


def check_simulation(cli, outcome):
    """Returns the mean z-score of the request's well-filled cells, if any."""
    argv = outcome.argv
    rows = _rows(outcome, "t,mean,std_error", _points(argv, "--t-grid"))
    runs = _gs(cli, argv, (10, 12, 14))
    ref, est = runs[-1][0], _spread(runs)
    paths = int(_opt(argv, "--paths"))
    offset = 1.0 if _opt(argv, "--i") == _opt(argv, "--j") else 0.0
    scores = []
    for (t, mean, se), y, e in zip(rows, ref, est):
        ref_tol = INVERSION_REL * abs(y) + INVERSION_ABS + GS_SPREAD_FACTOR * e
        tol = SIM_SE * se + SIM_FLOOR_PATHS / paths + ref_tol
        if not math.isfinite(mean) or abs(mean - y) > tol:
            raise Failed(f"mean {mean!r} at t = {t:g} vs reference {y!r} (tolerance {tol:.2g})")
        if (mean - offset) * paths >= SIM_FILLED_ENTRIES and ref_tol < 0.2 * se:
            scores.append((mean - y) / se)
    return statistics.fmean(scores) if scores else None


def bias(scores):
    """The cause when simulated means lean one way over the whole run, else None.

    Each score is one request's mean z over its well-filled cells.  Without
    bias a score has mean 0 and variance at most 1 (its cells share paths),
    so mean * sqrt(n) is at most standard normal.  A bias too small for any
    one request's tolerance, such as 5% on every mean, shows here.
    """
    if len(scores) < 10:
        return None
    z = statistics.fmean(scores) * math.sqrt(len(scores))
    if abs(z) <= SIM_BIAS_Z:
        return None
    return f"simulated means lean one way: combined z = {z:.2f} over {len(scores)} requests"


CHECKS = {
    "inversion": check_inversion,
    "transform": check_transform,
    "simulation": check_simulation,
}


def verdict(workload, outcome):
    """(cause, known, score): cause is None when the request passed."""
    try:
        score = CHECKS[workload](_cli(), outcome)
    except Failed as failure:
        return failure.cause, failure.known, None
    return None, False, score


@functools.cache
def _cli():
    return load_cli()
