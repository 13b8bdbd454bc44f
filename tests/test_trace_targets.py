"""The per-layer tracer of the benchmark still fits the package.

`perfbench/spans.py` (run by `perfbench/run.py --trace 1`) swaps lqc
functions, named by module and function, for timing wrappers, and sorts
every simulated instruction into a kernel class. It is imported here as it
is, so that renaming a traced function or changing how an instruction
carries its gate fails this test instead of a traced benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_circuit
from lqc import circuit as circuit_module
from lqc.circuit import Circuit, Instruction, serialize
from lqc.core import RegisterLayout
from lqc.gates import BUILTIN_ARITY, PARAMETRIC, builtin

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    # spans.py imports its sibling `arith` as a top-level module
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_resolves(spans):
    targets = spans.wrappers(spans.Tracer())
    assert targets
    for module_name, function_name in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function_name, None)), f"{module_name}.{function_name}"


def structure_class(matrix: np.ndarray) -> str:
    """Kernel class of a matrix by its zero pattern."""
    nonzero = np.abs(matrix) > 0
    if not (nonzero.sum() - nonzero.diagonal().sum()):
        return "diag"
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return "perm"
    return "dense"


@pytest.mark.parametrize("name", sorted(BUILTIN_ARITY))
def test_every_builtin_is_classified(spans, name):
    param = 0.5 if name in PARAMETRIC else None
    targets = tuple(range(BUILTIN_ARITY[name]))
    instr = Instruction(name, targets, param=param)
    assert instr.matrix is None  # gate_class reads a builtin by its name
    assert spans.gate_class(instr) == structure_class(builtin(name, param))
    controlled = Instruction(name, targets, (9,), param)
    assert spans.gate_class(controlled) == "ctrl"


@pytest.mark.parametrize(
    "matrix, cls",
    [(np.diag([1.0, 1j]), "diag"), (np.array([[0, 1j], [1, 0]]), "perm"), (builtin("TAU"), "dense")],
)
def test_defgate_is_classified_by_its_matrix(spans, matrix, cls):
    instr = Instruction("G", (0,), matrix=matrix)
    assert spans.gate_class(instr) == cls


def test_validation_is_traced(spans):
    # the benchmark's circuit.validate.instructions (and with it
    # circuit.validate.per_emitted) counts validate_instruction calls, and
    # the stacked metric check shows as the gates.isometry_residual span
    layout = RegisterLayout.of(2, 2)
    instrs = random_circuit(np.random.default_rng(8), layout, 25).instructions
    tracer = spans.Tracer()
    with spans.installed(tracer):
        text = serialize(Circuit(layout, instrs))
        built = tracer.calls("gates.isometry_residual")
        circuit_module.parse(text)
    assert tracer.counts["circuit.validate.instructions"] == 50
    assert built >= 1
    assert tracer.calls("gates.isometry_residual") > built
    assert tracer.calls("circuit.parse") == 1
