"""Every tolerance of the package is a named constant in `lqc.core`.

Each module of `src/lqc` other than `core.py` is parsed with `ast`, and no
float literal c with 0 < |c| < 1e-2 may appear in it: a threshold that
small is a numerical decision, and those are made once, in the table of
`core.py`, where each has a name and a reason. Larger floats (rotation
parameters, bounds such as 100.0) are not tolerances and are allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lqc"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "core.py")
LIMIT = 1e-2


def tolerance_literals(source: str) -> list[str]:
    return sorted(
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < LIMIT
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_tolerance_literals_outside_core(path):
    assert tolerance_literals(path.read_text()) == []


def test_checker_flags_a_tolerance_literal():
    source = "x = abs(a) < 1e-12\ny = b > -1e-3\nz = 0.5 * c + 0.0 + 100.0\nw = round(d, 12)\n"
    assert tolerance_literals(source) == ["line 1: 1e-12", "line 2: 0.001"]
