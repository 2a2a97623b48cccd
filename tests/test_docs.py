"""The README names the public API as it is."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import mrenew
from mrenew import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("name", mrenew.__all__)
def test_public_name_is_documented(name):
    assert re.search(rf"\b{re.escape(name)}\b", README), f"README does not mention {name}"


@pytest.mark.parametrize("name", sorted(set(re.findall(r"\bmrenew\.(\w+)", README))))
def test_cited_name_is_importable(name):
    if not hasattr(mrenew, name):
        importlib.import_module(f"mrenew.{name}")


def _examples():
    """(argv, expected stdout) of each `$ mrenew ...` line in the README's Examples block."""
    block = README.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [(shlex.split(command), expected)
            for command, expected in re.findall(r"^\$ mrenew (.*)\n((?:[^$].*\n)*)", block, re.M)]


EXAMPLES = _examples()


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(argv, expected, capsys):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == expected
