"""Checks on what the package imports.

Every module-level import in the package is used by its module, no module
imports another lqc module's private (underscore-prefixed) name, no module
reaches numpy's stride tricks, one function of the package calls the
kernel `apply_to_tensor`, no module imports a scipy submodule at module
level, and no CLI command loads `scipy.linalg`.

No linter runs on this code base, so this test stands in for an unused
import check: each module of `src/lqc` is parsed with `ast`, and every name
bound by a module-level `import` or `from ... import` must be read
somewhere in that module. Package `__init__.py` files re-export their
imports and are skipped, as are `from __future__` imports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _private(dotted: str) -> bool:
    return any(p.startswith("_") and not p.startswith("__") for p in dotted.split("."))


def private_lqc_imports(source: str) -> list[str]:
    """Lines, anywhere in the module, that import an underscore-prefixed
    name or module of lqc: relative imports, and absolute ones from `lqc`.
    A name another module needs is not private."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "lqc":
                dotted = [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
                found += [f"line {node.lineno}: {name}" for name in dotted if _private(name)]
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] == "lqc" and _private(alias.name)
            ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_lqc_imports(path):
    assert private_lqc_imports(path.read_text()) == []


def test_checker_flags_private_lqc_names():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from ._private import x\n"
        "from .gadgets import Emitter, _Emitter\n"
        "from ..core import EPS_ZERO, _cached\n"
        "from lqc.circuit import _metric_failures\n"
        "import lqc._version, lqc.core\n"
        "from numpy import _core\n"
        "from . import words, _helpers\n"
        "def f():\n"
        "    from .twolevel import _lower_factor\n"
    )
    assert private_lqc_imports(source) == [
        "line 3: _private.x",
        "line 4: gadgets._Emitter",
        "line 5: core._cached",
        "line 6: lqc.circuit._metric_failures",
        "line 7: lqc._version",
        "line 9: _helpers",
        "line 11: twolevel._lower_factor",
    ]


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


def kernel_callers(source: str) -> list[str]:
    """Names of the functions whose body calls `apply_to_tensor`, by name or
    as an attribute, with `<module>` for a call outside any function. A
    call in a nested function names the innermost one."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "apply_to_tensor":
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_one_function_calls_the_kernel():
    # a second apply loop would need its own errstate and its own narrowing
    callers = [
        f"{path.relative_to(SRC)}:{name}"
        for path in MODULES for name in kernel_callers(path.read_text())
    ]
    assert callers == ["simulator.py:apply_all"]


def test_checker_flags_kernel_callers():
    source = (
        "from .simulator import apply_to_tensor\n"
        "from . import simulator\n"
        "def apply_to_tensor_twice(t):\n"
        "    return t\n"
        "def loop(layout, t, instrs):\n"
        "    for i in instrs:\n"
        "        apply_to_tensor(layout, t, i)\n"
        "def outer(layout, t, i):\n"
        "    def inner():\n"
        "        simulator.apply_to_tensor(layout, t, i)\n"
        "    return inner\n"
        "kernel = apply_to_tensor\n"
        "f = lambda *a: kernel(*a) or apply_to_tensor(*a)\n"
        "apply_to_tensor(None, None, None)\n"
    )
    assert kernel_callers(source) == ["<lambda>", "<module>", "inner", "loop"]


def scipy_submodule_imports(source: str) -> list[str]:
    """Module-level lines that import more of scipy than the bare package:
    `import scipy.x` or `from scipy... import ...`. A submodule imported at
    module level loads at every `import lqc.cli`, whether or not the
    command uses it. Reached as `scipy.x` after `import scipy`, a
    submodule loads on first use instead."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            bad = any(alias.name.startswith("scipy.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = node.level == 0 and node.module.split(".")[0] == "scipy"
        else:
            continue
        if bad:
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_level_scipy_submodule(path):
    assert scipy_submodule_imports(path.read_text()) == []


def test_checker_flags_scipy_submodules():
    source = (
        "import scipy\n"
        "import scipy.linalg\n"
        "from scipy import linalg\n"
        "from scipy.sparse import kron\n"
        "import numpy, scipy.special\n"
        "from .scipy import x\n"
        "import scipyx\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    return scipy.linalg.expm\n"
    )
    assert scipy_submodule_imports(source) == ["line 2", "line 3", "line 4", "line 5"]


# Each CLI command once on a tiny input, in a fresh interpreter: the test
# process itself has loaded scipy.linalg through other test modules.
CLI_COMMANDS = """
import contextlib, io, sys
import lqc.cli

def main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lqc.cli.main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()

circuit, lorentz, hadamard, t_gate, emitted = sys.argv[1:]
main("run", circuit)
main("sample", circuit, "--shots", "10", "--seed", "1")
main("search", "--n", "3", "--x", "101")
with open(emitted, "w") as f:
    f.write(main("synth", lorentz, "--qubits", "1", "--hybits", "1", "--exact"))
main("verify", emitted)
main("synth", hadamard, "--qubits", "2", "--hybits", "0", "--approx", "0.05")
main("approx", t_gate, "--kind", "qubit", "--tol", "1e-6", "--depth", "4")
print(sorted(name for name in sys.modules if name.startswith("scipy.linalg")))
"""


def test_cli_commands_leave_scipy_linalg_unloaded(tmp_path):
    from lqc.core import RegisterLayout, metric_vector
    from lqc.circuit import format_matrix_text
    from lqc.gates import builtin, random_isometry_for_signs

    lorentz = random_isometry_for_signs(metric_vector(RegisterLayout("qh")), seed=11)
    files = {
        "c.lqc": "qubits 2\nhybits 1\nH q0\nCTRL q0 : X q1\nCTRL q1 : BOOST 0.5 h0\n",
        "qh.mat": format_matrix_text(lorentz, 2, 2),
        "h.mat": format_matrix_text(np.kron(builtin("H"), np.eye(2)), 4, 0),
        "t.mat": format_matrix_text(builtin("T"), 2, 0),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / name) for name in files] + [str(tmp_path / "emitted.lqc")]
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CLI_COMMANDS, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
