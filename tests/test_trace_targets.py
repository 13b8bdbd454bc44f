"""The per-layer tracer of the benchmark still fits the package.

`perfbench/spans.py` (run by `perfbench/run.py --trace 1`) swaps lqc
functions, named by module and function, for timing wrappers, and sorts
every simulated instruction into a kernel class. It is imported here as it
is, so that renaming a traced function or changing how an instruction
carries its gate fails this test instead of a traced benchmark run.
"""

from __future__ import annotations

import importlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_circuit
from lqc import circuit as circuit_module
from lqc import synthesis
from lqc.circuit import Circuit, Instruction, serialize
from lqc.core import RegisterLayout, metric_vector
from lqc.gates import BUILTIN_ARITY, PARAMETRIC, builtin, random_isometry_for_signs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    # spans.py imports its sibling `arith` as a top-level module
    sys.path.insert(0, str(PERFBENCH))
    try:
        module = importlib.import_module("spans")
        # installed() wraps functions in loaded modules only
        for module_name, _ in module.wrappers(module.Tracer()):
            importlib.import_module(module_name)
        yield module
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

    # synthesis names its gates in one pass, yet `Circuit` still validates
    # each emitted gate once, and parse each read one once: the benchmark's
    # per_emitted of 2.0 on `synth`
    layout = RegisterLayout.of(3, 1)
    A = random_isometry_for_signs(metric_vector(layout), 4)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        emitted = synthesis.compile(A, layout).circuit
        circuit_module.parse(serialize(emitted))
    assert len(emitted.instructions) > 100
    assert tracer.counts["circuit.validate.instructions"] == 2 * len(emitted.instructions)
    assert tracer.calls("synthesis.compile") == 1


# 12 qubits + 2 hybits: an H layer, then gates of every kernel class. The
# opening layer, H on q0-q10, is one fill of `run` and makes no pass; H q11
# comes after the first lines, so it makes the one H pass. h1 is
# untouched until its BOOST, so the first CTRL on it never triggers; the
# second keeps its control, which the kernel fixes at h1's start value 0,
# and is traced as a controlled pass. The uncontrolled X and Y join the
# Pauli frame of `run`: the X makes no pass, and the Y makes one diagonal
# pass, diag(i, -i), so no perm pass is left. A run that swapped X or Y
# slices again would show perm passes here.
TRACED_LAYER = 11
TRACED_RUN = (
    "qubits 12\nhybits 2\n"
    + "".join(f"H q{i}\n" for i in range(TRACED_LAYER))
    + "CTRL h1 : TAU h0\nCTRL !h1 : TAU h0\nH q11\nT q3\nZ h0\nX q5\nY q7\nBOOST 0.4 h1\n"
    "CTRL q0 !q2 : X q4\nCTRL h0 : T q1\nCZ q1 h1\n"
)
TRACED_CLASSES = {"dense": 1 + 1, "diag": 3 + 1, "perm": 0, "ctrl": 3}


def test_run_traces_each_acting_gate_by_its_class(spans):
    # one simulator.apply.<class> span per instruction that acts, classed as
    # the gate that runs: a run that hid gates as controlled passes, or
    # bypassed apply_to_tensor or its (layout, tensor, instr) signature,
    # would miss these counts
    from lqc import simulator

    circuit = circuit_module.parse(TRACED_RUN)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        simulator.run(circuit)
    got = {cls: tracer.calls(f"simulator.apply.{cls}") for cls in spans.GATE_CLASSES}
    assert got == TRACED_CLASSES
    # every line makes one pass but the opening layer, the CTRL that never
    # triggers and the X
    assert sum(got.values()) == len(circuit.instructions) - TRACED_LAYER - 2


def test_run_writes_its_text_inside_the_format_span(spans, tmp_path, monkeypatch):
    # the benchmark's simulator.format span must cover every byte `lqc run`
    # prints, or the text time lands in cli.self_s and the span reads 0
    import lqc.cli

    path = tmp_path / "c.lqc"
    path.write_text("qubits 3\nhybits 1\nH q0\nH q1\nCTRL q0 : BOOST 0.5 h0\n")
    tracer = spans.Tracer()
    # the innermost open span at each write to stdout
    spans_at_write = []

    class Stdout:
        def write(self, text):
            spans_at_write.append(tracer._stack[-1][0] if tracer._stack else None)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    with spans.installed(tracer):
        assert lqc.cli.main(["run", str(path)]) == 0
    assert spans_at_write
    assert set(spans_at_write) == {"simulator.format"}
    assert tracer.calls("simulator.format") == 1
