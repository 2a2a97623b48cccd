"""The command-line contract, fuzzed in process through `cli.run`.

Every input ends in one of the documented outcomes: exit 0 with a CSV of
finite numbers, or exit 1 (numerical failure) or 2 (invalid arguments) with
one `mrenew:` line on stderr.  No exception escapes and no warning is
raised, as every case runs under ``warnings.simplefilter("error")``.

The rates and the one-point grid are drawn over the whole double range,
subnormals included, as 10**u for u in [-320, 308], and from its edges.
A failing case is a fault of the package, not of the strategy.
"""

import contextlib
import io
import math
import time
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrenew import cli

_EDGES = (0.0, 5e-324, 1e-310, 1e-300, 1e300, 1e308)
_WALL_S = 10.0  # a case's wall time, generous for a shared host

values = st.one_of(st.sampled_from(_EDGES), st.floats(-320.0, 308.0).map(lambda u: 10.0**u))
states_i = st.sampled_from((0, 1, 3, 15, 40))
states_j = st.sampled_from((0, 1, 2, 9, 30))


def _outcome(argv):
    """(exit code, stdout, stderr) of cli.run(argv), with every warning an error."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.run(argv)
    assert time.perf_counter() - start < _WALL_S, argv
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv):
    code, out, err = _outcome(argv)
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mrenew: "), (argv, err)
        return
    header, *rows = out.splitlines()
    assert rows and err == "", (argv, err)
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(",")), (argv, row)
        assert all(math.isfinite(float(cell)) for cell in cells), (argv, row)


def _entry_argv(command, grid_flag, i, j, x, lam, alpha):
    return [command, "--i", str(i), "--j", str(j), grid_flag, f"{x!r}:{x!r}:1",
            "--lambda", repr(lam), "--alpha", repr(alpha)]


@given(st.sampled_from(("oracle", "closedform", "both")), states_i, states_j, values, values, values)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_transform(solver, i, j, s, lam, alpha):
    _check_contract(_entry_argv("transform", "--s-grid", i, j, s, lam, alpha) + ["--solver", solver])


@given(st.sampled_from(("gs", "euler")), states_i, states_j, values, values, values)
# numpy's complex division by a subnormal j + rho + alpha s overflows: a bare IndexError
@example("euler", 15, 1, 54.3841035790151, 0.01072308656014151, 1e-310)
@example("euler", 0, 0, 1e11, 1e-10, 1e-300)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_renewal(method, i, j, t, lam, alpha):
    _check_contract(_entry_argv("renewal", "--t-grid", i, j, t, lam, alpha) + ["--method", method])
