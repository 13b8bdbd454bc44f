"""End-to-end synthesis: register isometry -> two-level factors -> circuit.

`two_level_factorize` chooses every pair a factor joins, and each pair
lowers without relabelling: a pair one bit apart is one gate, an
equal-sign pair two hybits apart is four gates and two phases, and a
diagonal factor is one phase per index. A generic isometry on d = 2^n
indices gives d(d-1)/2 factors, so on a register with fewer than two
hybits it compiles to d(d-1)/2 gates. Exact mode stops after lowering, so the only error is
float accumulation.

Approximate mode additionally rewrites every uncontrolled single-bit gate
as a generator word ({H,T} on qubits, {TAU,T} on hybits) found by
word_search; controlled gates are kept, since words are products of bare
generators. The final comparison is projective because words only match
their targets up to a global phase. Lowering a register of two or more
bits emits only gates controlled on every other bit, so on those
registers approximate mode substitutes no word and returns the exact
circuit; word search runs only for 1-bit registers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import EPS_RECON, LqcError, RegisterLayout, metric_vector
from ..circuit import Circuit, Instruction, to_matrix
from .gadgets import _Emitter
from .twolevel import two_level_factorize, _lower_factor
from .words import projective_distance, word_search


@dataclass(frozen=True)
class CompileStage:
    name: str
    gate_count: int
    max_error: float


@dataclass
class CompileResult:
    circuit: Circuit
    stages: tuple[CompileStage, ...]
    total_error: float
    budget_met: bool


def compile(
    A: np.ndarray,
    layout: RegisterLayout,
    tol: float | None = None,
    word_depth: int = 20,
) -> CompileResult:
    """Compile a register isometry into an `.lqc` circuit.

    tol=None gives the exact pipeline (factorize + lower). A numeric tol
    turns on word substitution with that per-gate budget; the overall
    budget is tol times the number of substituted gates.
    """
    A = np.asarray(A, dtype=complex)
    dim = layout.dimension
    if A.shape != (dim, dim):
        raise LqcError(f"matrix is {A.shape[0]}x{A.shape[1]}, register wants {dim}x{dim}")
    signs = metric_vector(layout).astype(float)

    factors = two_level_factorize(A, signs)
    stage_fact = CompileStage("factorize", len(factors), factors.error)

    em = _Emitter(layout)
    instrs: list[Instruction] = []
    # circuit time order is first-applied-first, so the rightmost factor of
    # the matrix product comes first
    for f in reversed(factors):
        instrs += _lower_factor(em, f.i, f.j, f.V)
    circuit = Circuit(layout, tuple(instrs))
    R = to_matrix(circuit)
    lower_err = float(np.max(np.abs(R - A)))
    stage_lower = CompileStage("lower", len(circuit.instructions), lower_err)

    if tol is None:
        total = lower_err
        return CompileResult(
            circuit=circuit,
            stages=(stage_fact, stage_lower),
            total_error=total,
            budget_met=total <= EPS_RECON,
        )

    if tol <= 0:
        raise LqcError("approximation tolerance must be positive")
    circuit, word_errs = _substitute_words(circuit, tol, word_depth)
    if word_errs:
        R = to_matrix(circuit)
    total = float(projective_distance(R, A))
    stage_words = CompileStage(
        "words", len(circuit.instructions), max(word_errs, default=0.0)
    )
    budget = tol * max(1, len(word_errs))
    return CompileResult(
        circuit=circuit,
        stages=(stage_fact, stage_lower, stage_words),
        total_error=total,
        budget_met=total <= budget,
    )


def _substitute_words(circuit: Circuit, tol: float, depth: int):
    layout = circuit.layout
    out: list[Instruction] = []
    errors: list[float] = []
    for instr in circuit.instructions:
        if instr.controls or len(instr.targets) != 1:
            out.append(instr)
            continue
        kind = layout.kinds[instr.targets[0]]
        word = word_search(instr.gate_matrix(), kind, tol, depth)
        errors.append(word.error)
        # letters multiply left to right onto the state, rightmost first
        for letter in reversed(word.letters):
            out.append(Instruction(letter, instr.targets))
    return Circuit(layout, tuple(out)), errors


def format_report(result: CompileResult) -> str:
    lines = [
        f"{st.name}\t{st.gate_count}\t{st.max_error:.17g}" for st in result.stages
    ]
    lines.append(f"total\t{len(result.circuit.instructions)}\t{result.total_error:.17g}")
    return "\n".join(lines) + "\n"
