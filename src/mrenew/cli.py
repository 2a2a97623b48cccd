"""Command-line interface: CSV output on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 numerical non-convergence (or failed validation),
2 argument errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import crosscheck
from .closedform import rbar_closed_form
from .errors import EventCapError, NonConvergenceError, PivotError
from .hyperg import kummer_m
from .invert import InversionConfig, renewal_function
from .mcsim import SimConfig, simulate_renewal_counts
# perfbench/checks.py reads MMInfinityKernel, QueueParams, TruncationConfig, solve_row_adaptive here
from .model import MMInfinityKernel, QueueParams, _index
from .oracle import TruncationConfig, solve_row_adaptive, solve_rows  # noqa: F401


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _print_csv(*columns) -> None:
    """Print the CSV table of (name, values) columns: a header of names, then one row per index."""
    print(",".join(name for name, _ in columns))
    for row in zip(*(values for _, values in columns)):
        print(",".join(map(_fmt, row)))


def _grid(text: str) -> np.ndarray:
    """Parse 'A:B:N' into N points linearly spaced over [A, B] inclusive, 1 <= N <= 10,000."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like A:B:N, got {text!r}")
    try:
        # at most 10,000 points: N = 10**14 asked numpy for 728 TiB
        a, b, n = float(parts[0]), float(parts[1]), _index(int(parts[2]), "N", 1, 10_000)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    return np.linspace(a, b, n)


def _build_parser():
    """The top-level parser, and the map of each command's name to its own parser.

    Each command's parser names it and its handler as defaults, so that it
    gives the Namespace the top-level parser gives.
    """
    parser = argparse.ArgumentParser(
        prog="mrenew",
        description="Renewal-matrix transforms for the M|M|infinity queue: "
        "closed form, truncated-system solver, Laplace inversion, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, handler):
        cmd = sub.add_parser(name, help=about)
        cmd.set_defaults(command=name, handler=handler)
        return cmd

    def entry_command(name, about, handler, grid):   # one entry (i, j) of one queue, over a grid
        cmd = command(name, about, handler)
        cmd.add_argument("--i", type=int, required=True)
        cmd.add_argument("--j", type=int, required=True)
        cmd.add_argument(grid, type=_grid, required=True, metavar="A:B:N")
        cmd.add_argument("--lambda", dest="lam", type=float, required=True)
        cmd.add_argument("--alpha", type=float, required=True)
        return cmd

    tr = entry_command("transform", "rbar_ij(s) over an s grid (CSV)", _cmd_transform, "--s-grid")
    tr.add_argument("--solver", choices=("oracle", "closedform", "both"), default="both")

    rn = entry_command("renewal", "R_ij(t) by Laplace inversion (CSV)", _cmd_renewal, "--t-grid")
    rn.add_argument("--method", choices=("gs", "euler"), required=True)
    rn.add_argument("--order", type=int, default=InversionConfig.order,
                    help="Gaver-Stehfest order (even, 4..18)")

    sm = entry_command("simulate", "Monte Carlo estimate of R_ij(t) (CSV)", _cmd_simulate, "--t-grid")
    sm.add_argument("--paths", type=int, required=True)
    sm.add_argument("--seed", type=int, required=True)
    sm.add_argument("--workers", type=int, default=1)

    hg = command("hyperg", "confluent hypergeometric value", _cmd_hyperg)
    hg.add_argument("--a", type=float, required=True)
    hg.add_argument("--b", type=float, required=True)
    hg.add_argument("--z", type=float, required=True)

    va = command("validate", "run the cross-check suites", _cmd_validate)
    va.add_argument("--quick", action="store_true", help="reduced grids and path counts")
    return parser, sub.choices


def _cmd_transform(args) -> int:
    p = QueueParams(args.lam, args.alpha)
    columns = [("s", args.s_grid)]
    if args.solver in ("oracle", "both"):
        oracle = solve_rows(args.i, args.j, args.s_grid, MMInfinityKernel(p)).values.real
        columns.append(("rbar_oracle", oracle))
    if args.solver in ("closedform", "both"):
        closed = rbar_closed_form(args.i, args.j, args.s_grid, p)
        columns.append(("rbar_closedform", closed))
    if args.solver == "both":
        columns.append(("rel_diff", np.abs(oracle - closed) / np.maximum(np.abs(oracle), 1e-300)))
    _print_csv(*columns)
    return 0


def _cmd_renewal(args) -> int:
    kernel = MMInfinityKernel(QueueParams(args.lam, args.alpha))
    method = "gaver-stehfest" if args.method == "gs" else "euler"
    cfg = InversionConfig(method=method, order=args.order)
    values = renewal_function(args.i, args.j, args.t_grid, kernel, cfg=cfg)
    _print_csv(("t", args.t_grid), ("R", values))
    return 0


def _cmd_simulate(args) -> int:
    kernel = MMInfinityKernel(QueueParams(args.lam, args.alpha))
    cfg = SimConfig(n_paths=args.paths, seed=args.seed)
    (est,) = simulate_renewal_counts(args.i, [args.j], args.t_grid, kernel, cfg, workers=args.workers)
    _print_csv(("t", est.t), ("mean", est.mean), ("std_error", est.std_error))
    return 0


def _cmd_hyperg(args) -> int:
    print(_fmt(kummer_m(args.a, args.b, args.z)))
    return 0


_SIMULATION = dict(i=0, targets=(0, 1), times=(0.5, 1.0, 2.0), lam=1.0, alpha=1.0, seed=20240817)

# name, cross-check, quick grid, full grid, allowed worst
_CHECKS = (
    ("two_oracle_agreement", crosscheck.two_oracle_agreement,
     dict(states=(0, 2), s_values=(1.0, 10.0), param_pairs=((0.5, 1.0), (1.0, 1.0))),
     dict(states=(0, 1, 2, 5), s_values=(0.1, 1.0, 10.0),
          param_pairs=((0.5, 1.0), (1.0, 1.0), (2.0, 0.5))),
     1e-8),
    ("closed_form_vs_oracle", crosscheck.closed_form_vs_oracle,
     dict(states=range(3), s_values=(1.0, 5.0), rhos=(0.5, 2.0)),
     dict(states=range(5), s_values=(0.5, 1.0, 5.0), rhos=(0.5, 1.0, 2.0)),
     1e-6),
    ("inversion_vs_simulation", crosscheck.inversion_vs_simulation,
     dict(_SIMULATION, n_paths=20_000), dict(_SIMULATION, n_paths=100_000),
     3.0),
)


def _cmd_validate(args) -> int:
    all_ok = True
    print(f"{'check':<28}{'result':<8}detail")
    for name, check, quick, full, allowed in _CHECKS:
        worst, where = check(**(quick if args.quick else full))
        ok = worst <= allowed
        all_ok &= ok
        at = ", ".join(f"{k}={v}" for k, v in (where or {}).items())
        detail = f"worst {worst:.3e} at ({at}) (allowed {allowed:g})"
        print(f"{name:<28}{'PASS' if ok else 'FAIL':<8}{detail}")
    return 0 if all_ok else 1


# built once per process: building costs about ten times a parse
_PARSER, _COMMANDS = _build_parser()


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code.

    argv whose first word names a command goes straight to that command's
    parser, whose Namespace is the top-level parser's: picking the command
    cost the top-level parse as much again as the command's own.  Help, an
    unknown command or none goes to the top-level parser.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (NonConvergenceError, PivotError, EventCapError) as exc:
        print(f"mrenew: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"mrenew: invalid arguments: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
