"""The scripts under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_digest_is_the_same_on_a_second_run_in_one_process():
    # cli.run keeps nothing between requests, so a digest depends only on the requests
    digest = _load("outputs_digest").digest
    count, first = digest("inversion", 0)
    assert count == 128 and len(first) == 64
    assert digest("inversion", 0) == (count, first)


def test_outputs_digest_prints_each_workload_then_both_validate_runs(capsys):
    module = _load("outputs_digest")
    module.main(["0"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == sorted(module.workloads.WORKLOADS) + ["validate", "hyperg"]
    assert module.VALIDATE == (["validate", "--quick"], ["validate"])
    # a second run in this process prints the same digest
    assert lines[-2] == f"validate requests=2 sha256={module.digest_requests(module.VALIDATE)}"


def test_outputs_digest_hyperg_calls_hold_criterion_6_and_all_parse(capsys):
    module = _load("outputs_digest")
    # criterion 6: six phi(1, 2; z), then both sides of 150 identity checks
    assert len(module._CRITERION_6) == 6 + 2 * 150
    assert module.HYPERG[-1] == ["hyperg", "--a=0.3", "--b=1.1", "--z=-5000.0"]
    for argv in module.HYPERG:
        assert module.cli.run(argv) in (0, 1)   # a value, or a numerical failure: no argument error
    capsys.readouterr()


def test_outputs_digest_reads_the_13_hyperg_calls_of_the_smoke_script():
    module = _load("outputs_digest")
    calls = module.smoke_hyperg_calls()
    assert len(calls) == 13 and len(module.HYPERG) == 323
    assert calls[0] == ["hyperg", "--a", "1", "--b", "2", "--z", "1"]
    assert calls[-1] == ["hyperg", "--a=-2", "--b=-10000000.5", "--z", "1"]   # file order
    assert all(call in module.HYPERG for call in calls)
    hyperg = module.cli._COMMANDS["hyperg"]
    for argv in calls:
        hyperg.parse_args(argv[1:])             # an argument error would exit 2


_COUNTED = '''"""A module docstring,
over two lines."""

import math  # a trailing comment leaves its line a code line


def root(x):
    """A function docstring."""
    # a comment line
    total = (x +
             1)
    return math.sqrt(total)


class Text:
    """A class docstring."""

    body = """a string that opens no body,
over two lines"""
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # import, def, the two lines of the assignment, return, class and both lines of body
    assert _load("code_lines").code_lines(_COUNTED) == 8


def test_code_lines_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_COUNTED)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    _load("code_lines").main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == ["     1 a.py", "     8 b.py", "     9 total"]
