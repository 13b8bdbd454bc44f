"""Every module-level import in the package is used by its module.

No linter runs on this code base, so this test stands in for an unused
import check: each module of `src/lqc` is parsed with `ast`, and every name
bound by a module-level `import` or `from ... import` must be read
somewhere in that module. Package `__init__.py` files re-export their
imports and are skipped, as are `from __future__` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lqc"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # `np.linalg` reads `np` through an ast.Name, so attributes need no case
    return sorted(f"line {line}: {name}" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_name():
    source = "import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(b)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


def stride_tricks_uses(source: str) -> list[str]:
    """Lines that import `numpy.lib.stride_tricks` or reach it as an
    attribute (`np.lib.stride_tricks`), anywhere in the module. Its
    `as_strided` writes through whatever strides it is given, unchecked."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any("stride_tricks" in name.split(".") for name in names):
            found.add(node.lineno)
    return [f"line {n}" for n in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_stride_tricks(path):
    assert stride_tricks_uses(path.read_text()) == []


def test_checker_flags_stride_tricks():
    source = (
        "import numpy as np\n"
        "from numpy.lib.stride_tricks import as_strided\n"
        "from numpy.lib import stride_tricks\n"
        "import numpy.lib.stride_tricks\n"
        "def f(x):\n"
        "    return np.lib.stride_tricks.as_strided(x)\n"
        "np.lib.index_tricks\n"
    )
    assert stride_tricks_uses(source) == ["line 2", "line 3", "line 4", "line 6"]
