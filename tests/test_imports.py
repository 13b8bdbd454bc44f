"""Checks on what the package imports.

Every module-level import in the package is used by its module, no module
imports another lqc module's private (underscore-prefixed) name, no
function imports an lqc module, `lqc.simulator` loads without
`lqc.circuit`, no module reaches numpy's stride tricks, one function of the
package calls the kernel `apply_to_tensor`, that function reads none of the
kernel's constants, no module imports a scipy
submodule at module level, no CLI command loads `scipy.linalg`, and no
module reads or writes the process environment.

The API ledger: every top-level function and class of the package is read
somewhere else in the package, through a name or module the reader binds
by import or definition, is named in an `__all__` list, or waits in
`PENDING` with a reason. Every module-level UPPER_CASE constant is read
somewhere in the package. Every name in an `__all__` resolves on its module,
and the README's "API" section lists exactly those names, with a reason for
each one that has no caller in the package.

No linter runs on this code base, so this test stands in for an unused
import check: each module of `src/lqc` is parsed with `ast`, and every name
bound by a module-level `import` or `from ... import` must be read
somewhere in that module. Package `__init__.py` files re-export their
imports and are skipped, as are `from __future__` imports.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import format_matrix_text

README = Path(__file__).resolve().parents[1] / "README.md"
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


def function_lqc_imports(source: str) -> list[str]:
    """Lines that import an lqc module inside a function: relative imports,
    and absolute ones of `lqc`. A deferred import is how an import cycle
    between two modules hides; at module level the cycle fails at once."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                bad = node.level > 0 or (node.module or "").split(".")[0] == "lqc"
            elif isinstance(node, ast.Import):
                bad = any(alias.name.split(".")[0] == "lqc" for alias in node.names)
            else:
                continue
            if bad:
                found.add(node.lineno)
    return [f"line {n}" for n in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_lqc_import_in_a_function(path):
    assert function_lqc_imports(path.read_text()) == []


def test_checker_flags_lqc_imports_in_functions():
    source = (
        "from .simulator import apply_all\n"
        "import lqc.core\n"
        "def f():\n"
        "    from .simulator import apply_all\n"
        "    import numpy, lqc.core\n"
        "    from lqc import gates\n"
        "    import scipy.linalg\n"
        "    from numpy import linalg\n"
        "class C:\n"
        "    async def g(self):\n"
        "        def h():\n"
        "            from .. import core\n"
        "        import lqcx\n"
        "if f:\n"
        "    from . import circuit\n"
    )
    assert function_lqc_imports(source) == ["line 4", "line 5", "line 6", "line 12"]


def test_simulator_loads_without_circuit():
    # circuit imports simulator at module level, so the reverse would be a cycle
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, lqc.simulator; print('lqc.circuit' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


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


KERNEL_CONSTANTS = ("BLAS_DENSE_MAX", "TILE")


def kernel_constants_read(source: str) -> list[str]:
    """The kernel constants that `apply_all` reads, by name or as an
    attribute, with their lines, nested functions included."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name != "apply_all":
            continue
        for node in ast.walk(func):
            # only an ast.Name has `id`, and only an ast.Attribute `attr`
            name = getattr(node, "id", getattr(node, "attr", None))
            if name in KERNEL_CONSTANTS:
                found.append(f"line {node.lineno}: {name}")
    return sorted(found)


def test_pass_loop_reads_no_kernel_constant():
    # the kernel alone picks its branch and its tiles; the loop narrows
    # every pass by one rule, whichever it takes
    assert kernel_constants_read((SRC / "simulator.py").read_text()) == []


def test_checker_flags_kernel_constants():
    source = (
        "from . import simulator\n"
        "BLAS_DENSE_MAX = TILE = 1\n"
        "def apply_all(layout, tensor, instrs, start=None):\n"
        "    if 1 << 3 >= BLAS_DENSE_MAX:\n"
        "        pass\n"
        "    def chunk():\n"
        "        return simulator.TILE\n"
        "    return TILE_COUNT, chunk\n"
        "def apply_to_tensor(layout, tensor, instr):\n"
        "    return BLAS_DENSE_MAX, TILE\n"
    )
    assert kernel_constants_read(source) == ["line 4: BLAS_DENSE_MAX", "line 7: TILE"]


# the kernel's helpers, which only `apply_to_tensor` may call for a pass:
# the perfbench tracer swaps `apply_to_tensor` to count passes and bytes
KERNEL_HELPERS = ("_apply_pair", "_tiled", "_chunked", "_multiply_tiles", "_swap", "_mix")


def kernel_helpers_reached(source: str) -> list[str]:
    """`caller: helper` for each call of a kernel helper, by name or as an
    attribute, in the body of `apply_all` or of a module-level function or
    class it reaches through calls other than `apply_to_tensor`, nested
    functions included."""
    defs = {node.name: node for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found, seen, todo = set(), set(), ["apply_all"]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in KERNEL_HELPERS:
                    found.add(f"{name}: {callee}")
                elif callee != "apply_to_tensor":
                    todo.append(callee)
    return sorted(found)


def test_pass_loop_calls_the_kernel_only_through_apply_to_tensor():
    assert kernel_helpers_reached((SRC / "simulator.py").read_text()) == []


def test_checker_flags_kernel_helpers_outside_apply_to_tensor():
    source = (
        "from . import simulator\n"
        "def apply_to_tensor(layout, tensor, instr):\n"
        "    _apply_pair(tensor[0], tensor[1], instr.gate_matrix(), False)\n"
        "def _view(tensor, plan):\n"
        "    _tiled(None, (), tensor[0], tensor[1], 1)\n"
        "    return _Plan(plan)\n"
        "class _Plan:\n"
        "    def __init__(self, instr):\n"
        "        simulator._multiply_tiles(None, None, 2)\n"
        "def unreached(tensor):\n"
        "    _mix(1, 1, 1, 1, tensor, tensor, None, None)\n"
        "def apply_all(layout, tensor, instrs, start=None):\n"
        "    def inner(x0, x1):\n"
        "        _swap(1, 1, x0, x1, None)\n"
        "    for instr in instrs:\n"
        "        apply_to_tensor(layout, _view(tensor, instr), instr)\n"
        "    return inner\n"
    )
    assert kernel_helpers_reached(source) == [
        "_Plan: _multiply_tiles", "_view: _tiled", "apply_all: _swap"]


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


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses(source: str) -> list[str]:
    """Lines, anywhere in the module, that reach the process environment:
    `os.environ` and the other names above as attributes, or imported from
    `os`. A variable read by lqc cannot steer numpy's thread pools, which
    load with `lqc.core` before any other module's body runs; thread counts
    are set through the variables BLAS itself reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            bad = node.attr in ENVIRONMENT_NAMES
        elif isinstance(node, ast.ImportFrom):
            bad = node.module == "os" and any(
                alias.name in ENVIRONMENT_NAMES for alias in node.names
            )
        else:
            continue
        if bad:
            found.add(node.lineno)
    return [f"line {n}" for n in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_environment_access(path):
    assert environment_uses(path.read_text()) == []


def test_checker_flags_environment_access():
    source = (
        "import os\n"
        "cap = os.environ.get('N')\n"
        "os.environ['N'] = '1'\n"
        "from os import environ, getenv as g\n"
        "def f():\n"
        "    return os.getenv('N') or os.environb\n"
        "os.putenv('N', '1')\n"
        "os.path.join('a', 'b')\n"
        "from os import path\n"
        "environment = {}\n"
    )
    assert environment_uses(source) == ["line 2", "line 3", "line 4", "line 6", "line 7"]


# Functions and classes that have no caller in the package and are not
# exported, each with the reason it stays for now. An entry that gains a
# caller or goes away fails the ledger, so this can only shrink.
PENDING = {
    "lqc.gates.random_isometry_for_signs": (
        "test input generator, the only reason src imports scipy; ROADMAP item 2 "
        "moves it to tests once perfbench/run.py stops reading sys.modules['scipy']"
    ),
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def package_sources() -> dict[str, str]:
    return {module_name(p): p.read_text() for p in sorted(SRC.rglob("*.py"))}


def _all_list(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _bindings(module: str, tree: ast.Module, sources: dict[str, str]) -> dict[str, tuple]:
    """What each name the module imports stands for: `(module, name)` for a
    name of another module, `(module, None)` for a module itself. A name
    the module does not import is its own."""
    packages = {m.rpartition(".")[0] for m in sources}
    bound: dict[str, tuple] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.name if alias.asname else alias.name.split(".")[0]
                bound[alias.asname or name] = (name, None)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")[: None if module in packages else -1]
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            for alias in node.names:
                full = f"{base}.{alias.name}"
                is_module = full in sources
                bound[alias.asname or alias.name] = (full, None) if is_module else (base, alias.name)
    return bound


def _reads(sources: dict[str, str]) -> tuple[dict[str, ast.Module], dict[tuple, set]]:
    """Each module's tree, and for each `(module, name)` the places
    `(module, index of the top-level statement)` that read that name of
    that module. A read is an `ast.Name` in load context, standing for the
    name the reading module defines or imports (`as` another name too), or
    an `ast.Attribute` in load context on a module the reader has bound. A
    name a package re-exports counts for the module that defines it, so
    `re.compile` reads no package function named `compile`."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    bindings = {module: _bindings(module, tree, sources) for module, tree in trees.items()}

    def origin(module: str, name: str | None) -> tuple:
        # follow re-exports to the module that defines the name
        seen = set()
        while name is not None and (module, name) not in seen:
            seen.add((module, name))
            nxt = bindings.get(module, {}).get(name)
            if nxt is None:
                break
            module, name = nxt
        return module, name

    def target(node: ast.AST, reader: str) -> tuple | None:
        if isinstance(node, ast.Name):
            return origin(*bindings[reader].get(node.id, (reader, node.id)))
        if isinstance(node, ast.Attribute):
            outer = target(node.value, reader)
            if outer is not None and outer[1] is None:
                full = f"{outer[0]}.{node.attr}"
                return (full, None) if full in sources else origin(outer[0], node.attr)
        return None

    reads: dict[tuple, set[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    read = target(node, module)
                    if read is not None:
                        reads.setdefault(read, set()).add((module, i))
    return trees, reads


def api_ledger(sources: dict[str, str]) -> tuple[set[str], dict[str, bool]]:
    """The names in any `__all__` list, and for each top-level function
    and class, as `module.name`, whether the package reads its name
    somewhere outside its own definition (see `_reads`); a recursive call
    is no caller."""
    trees, reads = _reads(sources)
    exported: set[str] = set()
    defined: dict[str, tuple[str, int]] = {}
    for module, tree in trees.items():
        exported.update(_all_list(tree) or ())
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{module}.{stmt.name}"] = (module, i)
    called = {
        name: bool(reads.get(tuple(name.rsplit(".", 1)), set()) - {where})
        for name, where in defined.items()
    }
    return exported, called


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE names, as `module.name`, that no statement of
    the package reads outside their own assignment (see `_reads`). An
    export does not count: a bound or tolerance nothing reads decides
    nothing."""
    trees, reads = _reads(sources)
    found = []
    for module, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id.lstrip("_").isupper()
                    and not reads.get((module, target.id), set()) - {(module, i)}
                ):
                    found.append(f"{module}.{target.id}")
    return sorted(found)


def test_every_constant_is_read():
    assert unread_constants(package_sources()) == []


def test_checker_flags_unread_constants():
    sources = {
        "lqc.a": (
            "EPS_READ = 1e-9\n"
            "EPS_UNREAD = 1e-3\n"
            "MAX_READ = MAX_UNREAD = 10\n"
            "_PRIVATE = 2\n"
            "LIMIT: int = 5\n"
            "lower_case = 1\n"
            "__all__ = ['EPS_UNREAD']\n"
            "def f(x):\n"
            "    MAX_LOCAL = 3\n"
            "    return x < EPS_READ\n"
        ),
        "lqc.b": (
            "from .a import _PRIVATE as P\n"
            "from . import a\n"
            "n = P + a.LIMIT + a.MAX_READ\n"
        ),
    }
    assert unread_constants(sources) == ["lqc.a.EPS_UNREAD", "lqc.a.MAX_UNREAD"]


def ledger_faults(sources: dict[str, str], pending: dict[str, str]) -> list[str]:
    exported, called = api_ledger(sources)
    unaccounted = {
        name for name, c in called.items() if not c and name.rsplit(".", 1)[1] not in exported
    }
    faults = [f"{name}: no caller and not exported" for name in unaccounted - pending.keys()]
    faults += [f"{name}: pending, but not defined" for name in pending.keys() - called.keys()]
    faults += [
        f"{name}: pending, but has a caller or is exported"
        for name in pending.keys() & called.keys() - unaccounted
    ]
    return sorted(faults)


def test_every_definition_has_a_caller_or_a_reason():
    assert ledger_faults(package_sources(), PENDING) == []


def test_ledger_flags_uncalled_names_and_stale_pending_entries():
    sources = {
        "lqc": "__all__ = ['exported']\n",
        "lqc.a": (
            "def exported(): pass\n"
            "def called(): pass\n"
            "def uncalled(): called()\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Klass:\n"
            "    def copy(self): return Klass()\n"
            "def waits(): pass\n"
            "def now_called(): pass\n"
            "def now_exported(): pass\n"
            "def aliased(): pass\n"
        ),
        "lqc.b": (
            "from . import a\n"
            "from .a import uncalled as renamed, aliased as other\n"
            "__all__ = ['now_exported']\n"
            "a.now_called()\n"
            "other()\n"
        ),
        # a read counts only where the reader binds the function read
        "lqc.c": "import re\ndef compile(): pass\nPATTERN = re.compile('x')\n",
        "lqc.d": (
            "from .pkg import reexported as r, m\n"
            "import lqc.pkg.m as n\n"
            "r(m.by_attr, n.by_alias)\n"
        ),
        "lqc.pkg": "from .m import reexported\n",
        "lqc.pkg.m": "def reexported(): pass\ndef by_attr(): pass\ndef by_alias(): pass\n",
    }
    pending = {
        "lqc.a.waits": "",
        "lqc.a.now_called": "",
        "lqc.a.now_exported": "",
        "lqc.a.gone": "",
    }
    assert ledger_faults(sources, pending) == [
        "lqc.a.Klass: no caller and not exported",
        "lqc.a.gone: pending, but not defined",
        "lqc.a.now_called: pending, but has a caller or is exported",
        "lqc.a.now_exported: pending, but has a caller or is exported",
        "lqc.a.recursive: no caller and not exported",
        "lqc.a.uncalled: no caller and not exported",
        "lqc.c.compile: no caller and not exported",
    ]


EXPORTING = {
    name: names
    for name, names in ((m, _all_list(ast.parse(s))) for m, s in package_sources().items())
    if names is not None
}


@pytest.mark.parametrize("module", sorted(EXPORTING))
def test_every_exported_name_resolves(module):
    missing = [n for n in EXPORTING[module] if not hasattr(importlib.import_module(module), n)]
    assert missing == []


NUMBER_WORDS = "zero one two three four five six seven eight nine ten eleven twelve".split()


def readme_api() -> tuple[dict[str, set[str]], set[str], int]:
    """The README's "API" section: the names it lists under each module,
    the names it gives a reason for having no caller in the package, and
    the count its "<Number> of these have no caller" sentence states.
    Each list is a bullet `* head: text`, wrapped lines indented by two
    spaces; a head naming a module lists that module's exports."""
    section = README.read_text().split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    modules: dict[str, set[str]] = {}
    reasons: set[str] = set()
    for bullet in re.findall(r"^\* (.*(?:\n  .*)*)", section, re.MULTILINE):
        head, _, text = bullet.partition(": ")
        names = re.findall(r"`([\w.]+)`", head)
        if names[0] in EXPORTING:
            modules[names[0]] = set(re.findall(r"`(\w+)`", text))
        else:
            reasons.update(names)
    stated = re.search(r"^(\w+) of these have no\s+caller", section, re.MULTILINE)
    return modules, reasons, NUMBER_WORDS.index(stated.group(1).lower())


def test_readme_lists_the_exports_and_why_uncalled_ones_stay():
    modules, reasons, stated = readme_api()
    assert modules == {module: set(names) for module, names in EXPORTING.items()}
    exported, called = api_ledger(package_sources())
    uncalled = {name.rsplit(".", 1)[1] for name, c in called.items() if not c}
    assert reasons == uncalled & exported
    assert stated == len(reasons)


# Each CLI command once on a tiny input, in a fresh interpreter: the test
# process itself has loaded scipy.linalg through other test modules. No
# command loads numpy.ma either (about 12 ms of import, which np.unique
# pulls in); numpy.matrixlib, which numpy always loads, is not numpy.ma.
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
print(sorted(name for name in sys.modules
             if name == "numpy.ma" or name.startswith(("numpy.ma.", "scipy.linalg"))))
"""


def test_cli_commands_leave_scipy_linalg_unloaded(tmp_path):
    from lqc.core import RegisterLayout, metric_vector
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
