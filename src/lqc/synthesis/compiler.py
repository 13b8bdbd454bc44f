"""End-to-end synthesis: register isometry -> two-level factors -> circuit.

`two_level_factorize` chooses every pair a factor joins, and each pair
lowers without relabelling: a pair one bit apart is one gate, an
equal-sign pair two hybits apart is four gates and two phases, and a
diagonal factor is one phase per index. A generic isometry on d = 2^n
indices gives d(d-1)/2 factors, so on a register with fewer than two
hybits it compiles to d(d-1)/2 gates. Exact mode stops after lowering, so the only error is
float accumulation; its `budget_met` also asks that the circuit's matrix
preserve the metric within EPS_ISO, as `lqc verify` checks it.

Approximate mode additionally rewrites each gate of a 1-bit register as a
generator word ({H,T} on qubits, {TAU,T} on hybits) found by word_search.
The final comparison is projective because words only match their targets
up to a global phase. Words are products of bare generators, and lowering
a register of two or more bits controls every gate on every other bit, so
there approximate mode keeps the lowered circuit and its matrix: the exact
circuit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import EPS_ISO, EPS_RECON, LqcError, RegisterLayout, metric_vector
from ..circuit import Circuit, Instruction, to_matrix
from ..gates import isometry_residual
from .twolevel import lower, two_level_factorize
from .words import projective_distance, word_search

# generator-word length bound of approximate mode's word search
WORD_DEPTH = 20


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
    # metric residual of the circuit's matrix, `lqc verify`'s own figure
    residual: float


def compile(
    A: np.ndarray,
    layout: RegisterLayout,
    tol: float | None = None,
) -> CompileResult:
    """Compile a register isometry into an `.lqc` circuit.

    tol=None gives the exact pipeline (factorize + lower). A numeric tol
    turns on word substitution with that per-gate budget; the overall
    budget is tol times the number of substituted gates.
    """
    if tol is not None and not tol > 0:  # a NaN tolerance fails too
        raise LqcError("approximation tolerance must be positive")
    A = np.asarray(A, dtype=complex)
    dim = layout.dimension
    if A.shape != (dim, dim):
        raise LqcError(f"matrix is {A.shape[0]}x{A.shape[1]}, register wants {dim}x{dim}")

    signs = metric_vector(layout)
    factors = two_level_factorize(A, signs)
    stage_fact = CompileStage("factorize", len(factors), factors.error)

    circuit = lower(factors, layout)
    R = to_matrix(circuit)
    lower_err = float(np.max(np.abs(R - A)))
    stage_lower = CompileStage("lower", len(circuit.instructions), lower_err)

    if tol is None:
        residual = isometry_residual(R, signs)
        return CompileResult(
            circuit=circuit,
            stages=(stage_fact, stage_lower),
            total_error=lower_err,
            budget_met=lower_err <= EPS_RECON and residual <= EPS_ISO,
            residual=residual,
        )

    # a wider register's gates are all controlled: no word replaces one
    word_errs: list[float] = []
    if layout.num_bits == 1:
        circuit, word_errs = _substitute_words(circuit, tol, WORD_DEPTH)
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
        residual=isometry_residual(R, signs),
    )


def _substitute_words(circuit: Circuit, tol: float, depth: int):
    """Each gate of a 1-bit circuit as its generator word, and each word's
    error."""
    kind = circuit.layout.kinds[0]
    out: list[Instruction] = []
    errors: list[float] = []
    for instr in circuit.instructions:
        word = word_search(instr.gate_matrix(), kind, tol, depth)
        errors.append(word.error)
        # letters multiply left to right onto the state, rightmost first
        for letter in reversed(word.letters):
            out.append(Instruction(letter, instr.targets))
    return Circuit(circuit.layout, tuple(out)), errors


def format_report(result: CompileResult) -> str:
    lines = [
        f"{st.name}\t{st.gate_count}\t{st.max_error:.17g}" for st in result.stages
    ]
    lines.append(f"total\t{len(result.circuit.instructions)}\t{result.total_error:.17g}")
    return "\n".join(lines) + "\n"
