"""One SHA-256 per benchmark workload, and one for `validate`, over what each request prints.

    python3 tools/outputs_digest.py [seed]

runs every request of `perfbench/workloads.py` for the given seed (default
0) through `mrenew.cli.run`, in this process, with mrenew imported from the
`src/` of the checkout this script sits in.  Each request's exit code,
stdout and stderr are hashed in order, and one line per workload is
printed: its name, its request count and the digest.  A last line digests
`validate --quick` and the full `validate` the same way; they take no
seed.  Two checkouts whose lines are equal print the same bytes and exit
codes on every request of that seed and on both validate runs, so a
refactor that should change no output can be checked by running the
script in both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402  (perfbench/workloads.py)
from mrenew import cli  # noqa: E402

VALIDATE = (["validate", "--quick"], ["validate"])


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


if __name__ == "__main__":
    main(sys.argv[1:])
