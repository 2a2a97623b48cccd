"""Load mrenew from the checkout's own source tree and call its CLI in-process."""

from __future__ import annotations

import contextlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no working mrenew to benchmark."""


def load_cli():
    """Import mrenew.cli from ROOT/src, never from an installed copy."""
    if not (SRC / "mrenew" / "__init__.py").is_file():
        raise ProgramMissing(f"no mrenew package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mrenew.cli

    if SRC.resolve() not in Path(mrenew.__file__).resolve().parents:
        raise ProgramMissing(f"imported mrenew from {mrenew.__file__}, not from {SRC}")
    return mrenew.cli


@dataclass
class Outcome:
    """One request: its argv, wall time, exit code, stdout and escaped exception."""

    argv: list
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None    # "ExceptionClass: message" when one escaped cli.run


def call(cli, argv) -> Outcome:
    """Run `mrenew <argv>` in this process with stdout and stderr captured."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code, error = cli.run(argv), None
    except Exception as exc:  # the benchmark counts the failure and keeps going
        code, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(list(argv), perf_counter() - start, code, out.getvalue(), error)


# One small request of each kind: fills the Gaver-Stehfest weight cache and
# numpy's lazy set-up.
WARM_UP = [
    "renewal --i 0 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --method gs --order 14",
    "renewal --i 0 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --method gs --order 16",
    "renewal --i 0 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --method gs --order 18",
    "renewal --i 0 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --method euler",
    "transform --i 1 --j 1 --s-grid 1:1:1 --lambda 1 --alpha 1 --solver both",
    "simulate --i 0 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --paths 50 --seed 1",
]


def warm_up(cli) -> None:
    """Run the WARM_UP requests; raise ProgramMissing if one fails."""
    for line in WARM_UP:
        if call(cli, line.split()).code != 0:
            raise ProgramMissing(f"warm-up request failed: mrenew {line}")


def calibration() -> float:
    """Seconds taken by a fixed piece of scalar float arithmetic and numpy
    element access, the kind of work mrenew's inner loops do.  It tracks the
    speed the machine gives this process at the moment."""
    x = numpy.ones(200)
    start = perf_counter()
    acc = 0.0
    for k in range(3000):
        acc += math.exp(-k * 1e-3) * (k + 0.5) / (k + 1.5)
    for k in range(1, 200):
        x[k] = x[k - 1] * 0.5 + acc * 1e-9
    return perf_counter() - start
