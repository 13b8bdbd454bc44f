"""Every module of the package parses at the Python version that
pyproject.toml declares as its floor.

`ast.parse` with `feature_version` refuses syntax that is newer than the
given version, such as `except*` below 3.11, even when the interpreter
running the tests knows it. The tests may run on a newer Python than the
floor, so without this check nothing would catch such syntax.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lqc"
MODULES = sorted(SRC.rglob("*.py"))
DECLARED = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
FLOOR = (int(DECLARED[1]), int(DECLARED[2]))


def floor_errors(source: str) -> list[str]:
    """The syntax error of a source that does not parse at FLOOR, if any."""
    try:
        ast.parse(source, feature_version=FLOOR)
    except SyntaxError as e:
        return [f"line {e.lineno}: {e.msg}"]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_parses_at_the_floor(path):
    assert floor_errors(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Vector = list[float]\n",
])
def test_checker_flags_newer_syntax(source):
    assert floor_errors(source) != []


def test_checker_passes_floor_syntax():
    assert floor_errors("match x:\n    case 1:\n        pass\n") == []
