"""One SHA-256 per benchmark workload, and one for `validate`, over what each request prints.

    python3 tools/outputs_digest.py [seed]

runs every request of `perfbench/workloads.py` for the given seed (default
0) through `mrenew.cli.run`, in this process, with mrenew imported from the
`src/` of the checkout this script sits in.  Each request's exit code,
stdout and stderr are hashed in order, and one line per workload is
printed: its name, its request count and the digest.  Two more lines
digest the same way requests that take no seed: `validate --quick` and the
full `validate`, then `mrenew hyperg` over one-series Kummer sums
(`HYPERG`), which no workload sends: criterion 6's, the calls of
`.github/smoke.sh`, read from it, and a few windows from k > 0.  Two
checkouts whose lines are equal print the same bytes and exit codes on
every request of that seed and on these, so a refactor that should change
no output can be checked by running the script in both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402  (perfbench/workloads.py)
from mrenew import cli  # noqa: E402

VALIDATE = (["validate", "--quick"], ["validate"])

# (a, b, z) of acceptance criterion 6: phi(1, 2; z), and both sides of its transformation identity
_CRITERION_6 = [(1.0, 2.0, z) for z in (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0)] + [
    abz for a in (0.5, 2.0, 5.5, 11.0, 20.0) for b in (0.5, 2.0, 5.5, 11.0, 20.0)
    for z in (-10.0, -4.0, -1.0, 1.0, 4.0, 10.0) for abz in ((a, b, z), (b - a, b, -z))]
# one-series windows, most from k > 0, on either side of z = 0
_WINDOWS = [(0.5, 3.5, 2000.0), (0.5, 3.5, 500.0), (3.0, 1.5, -5000.0), (0.3, 1.1, -5000.0)]


def smoke_hyperg_calls() -> list:
    """The argv of every `mrenew hyperg` call of .github/smoke.sh, refusals included, in file order."""
    calls = []
    for line in (ROOT / ".github" / "smoke.sh").read_text().splitlines():
        words = shlex.split(line, comments=True)
        if "mrenew" in words and (argv := words[words.index("mrenew") + 1:])[:1] == ["hyperg"]:
            calls.append(argv)
    return calls


def _hyperg(abz) -> list:
    return [["hyperg", f"--a={a!r}", f"--b={b!r}", f"--z={z!r}"] for a, b, z in abz]


HYPERG = tuple(_hyperg(_CRITERION_6) + smoke_hyperg_calls() + _hyperg(_WINDOWS))


def digest_requests(argvs) -> str:
    """Hex SHA-256 of every request's exit code, stdout and stderr, in order."""
    h = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        for part in (str(code), out.getvalue(), err.getvalue()):
            data = part.encode()
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def digest(workload: str, seed: int) -> tuple:
    """(request count, `digest_requests` of the workload's requests for seed)."""
    argvs = workloads.requests(workload, seed)
    return len(argvs), digest_requests(argvs)


def main(argv) -> None:
    seed = int(argv[0]) if argv else 0
    for workload in sorted(workloads.WORKLOADS):
        count, hexdigest = digest(workload, seed)
        print(f"{workload} seed={seed} requests={count} sha256={hexdigest}")
    print(f"validate requests={len(VALIDATE)} sha256={digest_requests(VALIDATE)}")
    print(f"hyperg requests={len(HYPERG)} sha256={digest_requests(HYPERG)}")


if __name__ == "__main__":
    main(sys.argv[1:])
