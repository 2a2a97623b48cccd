"""The README names the public API as it is."""

import importlib
import re
from pathlib import Path

import pytest

import mrenew

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("name", mrenew.__all__)
def test_public_name_is_documented(name):
    assert re.search(rf"\b{re.escape(name)}\b", README), f"README does not mention {name}"


@pytest.mark.parametrize("name", sorted(set(re.findall(r"\bmrenew\.(\w+)", README))))
def test_cited_name_is_importable(name):
    if not hasattr(mrenew, name):
        importlib.import_module(f"mrenew.{name}")
