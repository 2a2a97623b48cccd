import importlib.util
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mrenew.cli as cli
from mrenew import NonConvergenceError
from mrenew.cli import run


def _rows(output):
    lines = output.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _fresh_interpreter(script):
    """Run `script` in a new interpreter with this checkout's src/ on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)


def _benchmark_requests(workload):
    """The seed-0 argv of a workload of perfbench/workloads.py, which the benchmark sends to cli.run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.requests(workload, 0)


class TestTransformCommand:
    def test_identity_case_with_both_solvers(self, capsys):
        code = run(
            "transform --i 0 --j 0 --s-grid 1:1:1 --lambda 0 --alpha 1 --solver both".split()
        )
        assert code == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header == ["s", "rbar_oracle", "rbar_closedform", "rel_diff"]
        assert len(rows) == 1
        s, oracle, closed, rel = map(float, rows[0])
        assert s == 1.0
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert closed == pytest.approx(1.0, abs=1e-12)
        assert rel == pytest.approx(0.0, abs=1e-12)

    def test_far_target_at_high_rho(self, capsys):
        # rho**200 overflowed a float and rho = 800 underflowed e^-rho
        for argv in ("transform --i 0 --j 200 --s-grid 1:1:1 --lambda 50 --alpha 1 --solver both",
                     "transform --i 3 --j 3 --s-grid 1:1:1 --lambda 800 --alpha 1 --solver both"):
            assert run(argv.split()) == 0
            _, rows = _rows(capsys.readouterr().out)
            assert float(rows[0][3]) <= 1e-12

    def test_oracle_converges_on_the_residual_floor(self, capsys):
        # the summed residual sits near 3e-10 here, above tol; the cut does not wait for it
        argv = "transform --i 0 --j 0 --s-grid 1e-4:1e-4:1 --lambda 1715.2 --alpha 1 --solver oracle"
        assert run(argv.split()) == 0
        _, rows = _rows(capsys.readouterr().out)
        assert math.isfinite(float(rows[0][1]))

    def test_solver_specific_columns(self, capsys):
        assert run("transform --i 0 --j 1 --s-grid 1:2:3 --lambda 1 --alpha 1 --solver oracle".split()) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header == ["s", "rbar_oracle"]
        assert len(rows) == 3

        assert run("transform --i 0 --j 1 --s-grid 1:2:3 --lambda 1 --alpha 1 --solver closedform".split()) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header == ["s", "rbar_closedform"]
        assert len(rows) == 3

    def test_one_closed_form_call_per_request(self, capsys, monkeypatch):
        calls = []
        real = cli.rbar_closed_form
        monkeypatch.setattr(cli, "rbar_closed_form", lambda i, n, s, p: calls.append(len(s)) or real(i, n, s, p))
        assert run("transform --i 2 --j 3 --s-grid 0.5:4:6 --lambda 1 --alpha 1".split()) == 0
        assert calls == [6]
        _, rows = _rows(capsys.readouterr().out)
        assert len(rows) == 6 and all(float(row[3]) <= 1e-12 for row in rows)

    def test_grid_endpoints_inclusive(self, capsys):
        assert run("transform --i 0 --j 0 --s-grid 1:3:5 --lambda 0.5 --alpha 1".split()) == 0
        _, rows = _rows(capsys.readouterr().out)
        s_values = [float(r[0]) for r in rows]
        assert s_values == [1.0, 1.5, 2.0, 2.5, 3.0]


class TestRenewalCommand:
    def test_no_arrivals_renewal_is_constant_one(self, capsys):
        assert run("renewal --i 0 --j 0 --t-grid 0.5:2:4 --lambda 0 --alpha 1 --method gs".split()) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header == ["t", "R"]
        assert len(rows) == 4
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-6)

    def test_euler_method(self, capsys):
        assert run("renewal --i 1 --j 0 --t-grid 1:1:1 --lambda 0 --alpha 1 --method euler".split()) == 0
        _, rows = _rows(capsys.readouterr().out)
        assert float(rows[0][1]) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-5)

    def test_euler_ignores_order(self, capsys):
        argv = "renewal --i 0 --j 1 --t-grid 0.5:2:3 --lambda 1 --alpha 1 --method euler --order".split()
        assert run(argv + ["4"]) == 0
        four = capsys.readouterr()
        assert run(argv + ["5"]) == 0
        assert capsys.readouterr() == four


class TestLastStateRow:
    # the row of the last state, i = j = 65534: with the cap at 2**16 it was judged at the
    # cap alone and each command exited 1, "did not converge by n_max=65536"
    def test_transform_oracle_is_the_closed_form(self, capsys):
        assert run("transform --i 65534 --j 65534 --s-grid 1:1:1 --lambda 1 --alpha 1 --solver both".split()) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header == ["s", "rbar_oracle", "rbar_closedform", "rel_diff"]
        assert float(rows[0][3]) <= 1e-12

    def test_euler_and_gaver_stehfest_agree(self, capsys):
        values = {}
        for method in ("euler", "gs"):
            argv = f"renewal --i 65534 --j 65534 --t-grid 1:1:1 --lambda 1 --alpha 1 --method {method}"
            assert run(argv.split()) == 0
            values[method] = float(_rows(capsys.readouterr().out)[1][0][1])
        # Gaver-Stehfest order 14 is within 1.2e-2 R + 8.5e-3 of R (README), here R from Euler
        assert abs(values["gs"] - values["euler"]) <= 1.2e-2 * values["euler"] + 8.5e-3


class TestSimulateCommand:
    ARGS = "simulate --i 0 --j 0 --t-grid 0.5:1:2 --lambda 1 --alpha 1 --paths 400 --seed 9".split()

    def test_csv_shape(self, capsys):
        assert run(self.ARGS) == 0
        header, rows = _rows(capsys.readouterr().out)
        assert header == ["t", "mean", "std_error"]
        assert len(rows) == 2
        assert float(rows[0][1]) >= 1.0

    def test_bit_stable_across_runs_and_workers(self, capsys):
        assert run(self.ARGS) == 0
        first = capsys.readouterr().out
        assert run(self.ARGS) == 0
        second = capsys.readouterr().out
        assert run(self.ARGS + ["--workers", "3"]) == 0
        third = capsys.readouterr().out
        assert first == second == third


class TestCsvContract:
    @pytest.mark.parametrize("argv,header,n", [
        ("transform --i 1 --j 2 --s-grid 0.3:7:5 --lambda 1.7 --alpha 0.6",
         ["s", "rbar_oracle", "rbar_closedform", "rel_diff"], 5),
        ("renewal --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --method gs", ["t", "R"], 4),
        ("simulate --i 0 --j 1 --t-grid 0.5:2:3 --lambda 1 --alpha 1 --paths 300 --seed 7",
         ["t", "mean", "std_error"], 3),
    ], ids=["transform", "renewal", "simulate"])
    def test_header_then_rows_of_round_trip_floats(self, argv, header, n, capsys):
        assert run(argv.split()) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",") == header
        assert len(lines) == 1 + n
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(header)
            # each field is a float printed with 17 significant digits, so it reads back bit for bit
            assert all(format(float(f), ".17g") == f for f in fields)


class TestHypergCommand:
    def test_single_value(self, capsys):
        assert run("hyperg --a 1 --b 2 --z 1".split()) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_overflow_maps_to_one(self, capsys):
        # the series overflows to inf; a value that is not finite is a
        # numerical failure, not a result
        assert run("hyperg --a 1 --b 2 --z 1e6".split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "z=1000000.0" in captured.err

    def test_large_negative_argument(self, capsys):
        # e^-800 underflows; the window sum still gives (1 - e^-800) / 800
        assert run("hyperg --a 1 --b 2 --z -800".split()) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0 / 800.0, rel=1e-12)

    def test_negative_argument_past_term_cap(self, capsys):
        # the series would need about 1e19 terms: a numerical failure, not a traceback
        assert run(["hyperg", "--a", "1", "--b", "2", "--z=-1e19"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err

    @pytest.mark.parametrize("a, z", [("1e20", "1"), ("1e300", "1"), ("1e12", "-1"), ("-1e12", "1")])
    def test_window_past_its_reach_maps_to_one(self, a, z, capsys):
        # these ended in a MemoryError traceback, or never returned
        assert run(["hyperg", f"--a={a}", "--b", "1", f"--z={z}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "past" in captured.err

    @pytest.mark.parametrize("a, z", [("1e200", "1e-190"), ("1e308", "1e-300")])
    def test_value_past_the_largest_double_maps_to_one(self, a, z, capsys):
        # phi(a, 1; z) ~ e^{2 sqrt(a z)}: the first printed inf and exited 0, the
        # second ended in an OverflowError traceback from lgamma(1e308)
        assert run(["hyperg", f"--a={a}", "--b", "1", f"--z={z}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "largest double" in captured.err


_SIM = "--t-grid 1:1:1 --lambda 1 --alpha 1 --paths 10 --seed 1"
_CLOSED = "--s-grid 1:1:1 --lambda 1 --alpha 1 --solver closedform"
# (argv, argument, state) of the one error line of states past every route's range [0, 65534]: a
# bare OverflowError at 2^63, numpy's "Maximum allowed dimension exceeded", a 7.28 TiB array at
# 10^12 and a walk of 132 s that ended in EventCapError; 65535 had no route to back it
_STATES_PAST_THE_RANGE = [
    (f"simulate --i 9223372036854775808 --j 0 {_SIM}", "i", 2**63),
    (f"simulate --i 0 --j 9223372036854775808 {_SIM}", "j", 2**63),
    (f"transform --i 9223372036854775808 --j 0 {_CLOSED}", "i", 2**63),
    (f"transform --i 1000000000000 --j 0 {_CLOSED}", "i", 10**12),
    ("simulate --i 1000000000000 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --paths 3 --seed 1", "i", 10**12),
    (f"transform --i 65535 --j 0 {_CLOSED}", "i", 65535),
    (f"simulate --i 65535 --j 0 {_SIM}", "i", 65535),
]


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["unknown"],
            ["transform", "--i", "0"],
            ["transform", "--i", "0", "--j", "0", "--s-grid", "1:2", "--lambda", "1", "--alpha", "1"],
            ["transform", "--i", "0", "--j", "0", "--s-grid", "1:2:0", "--lambda", "1", "--alpha", "1"],
            ["renewal", "--i", "0", "--j", "0", "--t-grid", "1:1:1", "--lambda", "1", "--alpha", "1", "--method", "talbot"],
            ["renewal", "--i", "0", "--j", "0", "--t-grid", "1:1:1", "--lambda", "1", "--alpha", "1"],
            ["simulate", "--i", "-1", "--j", "0", "--t-grid", "1:1:1", "--lambda", "1", "--alpha", "1",
             "--paths", "5", "--seed", "1"],
            ["simulate", "--i", "0", "--j", "0", "--t-grid", "1:1:1", "--lambda", "1", "--alpha", "1",
             "--paths", "5", "--seed", "-1"],
            ["simulate", "--i", "0", "--j", "0", "--t-grid", "1:1:1", "--lambda", "1", "--alpha", "1",
             "--paths", "5", "--seed", str(2**64)],
        ] + [argv.split() for argv, _, _ in _STATES_PAST_THE_RANGE],
    )
    def test_exit_code_two(self, argv, capsys):
        start = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - start < 1.0
        capsys.readouterr()

    @pytest.mark.parametrize("argv, name, state", _STATES_PAST_THE_RANGE)
    def test_state_past_the_range_is_one_line(self, argv, name, state, capsys):
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mrenew: invalid arguments: {name} must be in [0, 65534], got {state}\n"

    def test_the_last_state_still_answers(self, capsys):
        assert run(f"transform --i 65534 --j 0 {_CLOSED}".split()) == 0
        assert capsys.readouterr().out == "s,rbar_closedform\n1,1.1227132208801034e-05\n"
        assert run("simulate --i 65534 --j 0 --t-grid 1:1:1 --lambda 1 --alpha 1 --paths 5 --seed 1".split()) == 0
        assert capsys.readouterr().out == "t,mean,std_error\n1,0,0\n"

    def test_grid_past_its_largest_size_maps_to_two(self, capsys):
        # N = 10^14 asked numpy for 728 TiB and escaped run as a bare MemoryError
        argv = "transform --i 0 --j 0 --s-grid 1:2:100000000000000 --lambda 1 --alpha 1".split()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(": N must be in [1, 10000], got 100000000000000\n")
        assert run("transform --i 0 --j 0 --s-grid 1:2:10000 --lambda 1 --alpha 1 --solver closedform".split()) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10001

    def test_unparsable_grid_is_a_bad_grid(self, capsys):
        argv = "transform --i 0 --j 0 --s-grid 1:x:3 --lambda 1 --alpha 1".split()
        assert run(argv) == 2
        assert "bad grid" in capsys.readouterr().err

    def test_parser_is_not_rebuilt_per_run(self, capsys, monkeypatch):
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
        assert run("hyperg --a 1 --b 2 --z 1".split()) == 0
        assert run("hyperg --a 1".split()) == 2
        assert "required" in capsys.readouterr().err
        assert built == []

    def test_invalid_parameter_value_maps_to_two(self, capsys):
        # alpha <= 0 fails QueueParams validation
        code = run("transform --i 0 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 0".split())
        assert code == 2
        assert "invalid arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "renewal --i 0 --j 0 --t-grid 1:1:1 --lambda nan --alpha 1 --method gs",
            "transform --i 0 --j 0 --s-grid 1:1:1 --lambda 1 --alpha inf",
            "transform --i 0 --j 0 --s-grid nan:1:2 --lambda 1 --alpha 1 --solver oracle",
            "transform --i 0 --j 0 --s-grid nan:1:2 --lambda 1 --alpha 1 --solver closedform",
            "simulate --i 0 --j 0 --t-grid nan:nan:1 --lambda 1 --alpha 1 --paths 1 --seed 1",
            "simulate --i 0 --j 0 --t-grid 0.5:nan:3 --lambda 1 --alpha 1 --paths 1 --seed 1",
            "hyperg --a nan --b 2 --z 1",
            "hyperg --a 1 --b 2 --z inf",
            "transform --i 0 --j 0 --s-grid 1:1:1 --lambda 1e308 --alpha 10",
        ],
        ids=["renewal-lambda-nan", "transform-alpha-inf", "transform-s-nan",
             "transform-closedform-s-nan", "simulate-t-nan", "simulate-t-partly-nan",
             "hyperg-a-nan", "hyperg-z-inf", "transform-rho-inf"],
    )
    def test_nonfinite_value_maps_to_two(self, argv, capsys):
        # rejected up front: a NaN must never run the truncation to n_max
        assert run(argv.split()) == 2
        assert "invalid arguments" in capsys.readouterr().err

    def test_subnormal_s_maps_to_two_with_the_closed_form(self, capsys):
        # 1 / (alpha s) overflows: the closed form would print inf
        argv = "transform --i 0 --j 0 --s-grid 1e-320:1:2 --lambda 1 --alpha 1 --solver closedform"
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "transform variable" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            "transform --i 3 --j 2 --s-grid 1e10:1e10:1 --lambda 1e-300 --alpha 1e300 --solver oracle",
            "transform --i 3 --j 2 --s-grid 1e10:1e10:1 --lambda 1e-300 --alpha 1e300 --solver closedform",
            "renewal --i 0 --j 0 --t-grid 1e-9:1e-9:1 --lambda 1e-300 --alpha 1e300 --method gs",
            "renewal --i 0 --j 0 --t-grid 1e-9:1e-9:1 --lambda 1e-300 --alpha 1e300 --method euler",
            "renewal --i 0 --j 0 --t-grid 4.6e-7:4.6e-7:1 --lambda 1e-300 --alpha 1e300 --method euler",
        ],
        ids=["oracle", "closedform", "gs", "euler", "euler-complex-division"],
    )
    def test_alpha_s_past_the_largest_double_maps_to_two(self, argv, capsys):
        # the oracle printed 0 and the closed form inf, each after numpy's overflow warning;
        # at t = 4.6e-7 alpha s stays below the largest double, but numpy's complex division
        # by it overflowed, and Euler printed 1.0000000060766321
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "transform variable" in captured.err and "alpha=1e+300" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, named",
        [
            ("renewal --i 15 --j 1 --t-grid 54.3841035790151:54.3841035790151:1 --lambda 0.01072308656014151 "
             "--alpha 1e-310 --method euler", "s=(0.16916707998382738+0j) with alpha=1e-310"),
            ("renewal --i 0 --j 0 --t-grid 1e11:1e11:1 --lambda 1e-10 --alpha 1e-300 --method euler",
             "s=(9.199999999999999e-11+0j) with alpha=1e-300"),
        ],
        ids=["subnormal-alpha", "subnormal-rho"],
    )
    def test_subnormal_complex_denominator_maps_to_two(self, argv, named, capsys):
        # numpy's complex division by a subnormal j + rho + alpha s overflows; the refusal
        # looked for an infinite denominator and died with a bare IndexError
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"mrenew: invalid arguments: transform variable {named}: "
                                f"j + rho + alpha s, or numpy's division by it, overflows\n")

    @pytest.mark.parametrize("i", [65535, 70000])
    def test_row_past_the_last_judged_state_maps_to_two(self, i, capsys):
        # judged once, past the cap, these rows exited 1, "did not converge by n_max=65536"
        argv = f"transform --i {i} --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1 --solver oracle"
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mrenew: invalid arguments: i must be in [0, 65534], got {i}\n"

    def test_oracle_s_below_the_floor_maps_to_two(self, capsys):
        # the oracle printed 7891239400913106 and exited 0; the entry is past the double range
        argv = "transform --i 0 --j 0 --s-grid 1e-320:1e-320:1 --lambda 1 --alpha 1 --solver oracle"
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Re(s) >= 1e-14" in captured.err

    @pytest.mark.parametrize("method", ["gs", "euler"])
    def test_time_past_the_solvers_floor_maps_to_two_naming_the_time(self, method, capsys):
        # the refusal named the abscissa 6.93e-16 (gs), not the time asked for
        argv = f"renewal --i 0 --j 0 --t-grid 1e15:1e15:1 --lambda 1 --alpha 1 --method {method}"
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "time 1000000000000000.0 is too large" in captured.err


class TestDispatch:
    """run sends argv naming a command to that command's own parser, and help,
    an unknown command or none to the top-level parser."""

    @staticmethod
    def same(a, b):
        assert vars(a).keys() == vars(b).keys()
        for key, value in vars(a).items():
            assert np.array_equal(value, vars(b)[key]), key

    @pytest.mark.parametrize("workload", ["inversion", "transform", "simulation"])
    def test_benchmark_requests_parse_as_the_top_level_parser_does(self, workload, monkeypatch):
        # every command's handler records its Namespace: parsers built with them stand in for cli's
        seen = []
        for name in cli._COMMANDS:
            monkeypatch.setattr(cli, f"_cmd_{name}", lambda args: seen.append(args) or 0)
        parser, commands = cli._build_parser()
        monkeypatch.setattr(cli, "_PARSER", parser)
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        for argv in _benchmark_requests(workload):
            assert run(argv) == 0
            self.same(seen.pop(), parser.parse_args(argv))

    @pytest.mark.parametrize("argv", [["--help"], ["transform", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['mrenew', *argv[:-1]])} ")

    @pytest.mark.parametrize(
        "argv, message",
        [(["nope"], "mrenew: error: argument command: invalid choice: 'nope'"),
         (["transform", "--i", "0", "--j", "0", "--s-grid", "1:1:1", "--lambda", "1", "--alpha", "1", "--bogus", "3"],
          "mrenew transform: error: unrecognized arguments: --bogus 3"),
         (["hyperg", "--a", "1", "--z", "1"], "mrenew hyperg: error: the following arguments are required: --b")],
        ids=["unknown-command", "unknown-option", "missing-b"],
    )
    def test_argument_errors_exit_two(self, argv, message, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(message)
        # the usage line of the parser that refused it
        assert err.startswith(f"usage: mrenew {argv[0]} " if argv[0] in cli._COMMANDS else "usage: mrenew [-h]")


class TestNumericalFailureExit:
    def test_nonconvergence_maps_to_one(self, capsys, monkeypatch):
        def _explode(*args, **kwargs):
            raise NonConvergenceError("forced failure", residual=1.0)

        monkeypatch.setattr(cli, "solve_rows", _explode)
        code = run("transform --i 0 --j 0 --s-grid 1:1:1 --lambda 1 --alpha 1 --solver oracle".split())
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err


class TestBenchmarkContract:
    @pytest.mark.parametrize(
        "name", ["MMInfinityKernel", "QueueParams", "TruncationConfig", "solve_row_adaptive"]
    )
    def test_oracle_recheck_names_stay_on_cli(self, name):
        # perfbench/checks.py rechecks transform rows through these attributes
        assert callable(getattr(cli, name))

    @pytest.mark.parametrize("workload", ["inversion", "transform", "simulation"])
    def test_benchmark_requests_parse(self, workload):
        # perfbench/workloads.py generates the argv the benchmark sends to
        # cli.run; a CLI change must not make any of them an argument error
        parser, _ = cli._build_parser()
        for argv in _benchmark_requests(workload):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"mrenew {' '.join(argv)} no longer parses")


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        assert run(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "two_oracle_agreement" in out
        assert "closed_form_vs_oracle" in out
        assert "inversion_vs_simulation" in out
        assert "FAIL" not in out


class TestRuntimeDependencies:
    def test_commands_run_with_only_numpy(self):
        # scipy, mpmath and hypothesis are test extras: with each import
        # blocked, every command must still run, as after `pip install .`
        script = """
import sys
for name in ("scipy", "mpmath", "hypothesis"):
    sys.modules[name] = None
from mrenew.cli import run
for argv in (
    "transform --i 0 --j 1 --s-grid 0.5:2:4 --lambda 1 --alpha 1 --solver both",
    "renewal --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --method euler",
    "simulate --i 0 --j 1 --t-grid 0.5:2:4 --lambda 1 --alpha 1 --paths 2000 --seed 7",
    "hyperg --a 1 --b 2 --z 1",
    "validate --quick",
):
    if run(argv.split()) != 0:
        sys.exit(f"mrenew {argv} failed")
"""
        done = _fresh_interpreter(script)
        assert done.returncode == 0, done.stderr

    def test_import_loads_no_process_pool(self):
        # the pool is imported by a simulation with workers > 1 only; at
        # import it cost every command concurrent.futures, multiprocessing,
        # subprocess, socket and logging
        script = """
import sys
import mrenew.cli
names = ("concurrent.futures", "multiprocessing", "subprocess", "socket", "logging")
print(",".join(name for name in names if name in sys.modules))
"""
        done = _fresh_interpreter(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""
