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
    assert [line.split()[0] for line in lines] == sorted(module.workloads.WORKLOADS) + ["validate"]
    assert module.VALIDATE == (["validate", "--quick"], ["validate"])
    # a second run in this process prints the same digest
    assert lines[-1] == f"validate requests=2 sha256={module.digest_requests(module.VALIDATE)}"
