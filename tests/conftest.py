"""Shared helpers: random layouts, random valid circuits, circuits shaped
like the benchmark's sim circuits, the whole-tensor run, the plain numpy
read of a distribution, a spy on the kernel's passes, the per-line text of
a distribution or a histogram, the dense matrix of a two-level factor, a
controlled lift, the matrix file writer, the product of a generator word,
the node-by-node word search that the stacked one is checked against, the
benchmark's own modules, and seeded mutants of source text."""

import importlib
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from lqc.circuit import Circuit, Instruction, _format_rows, parse
from lqc.core import (
    EPS_DEGENERATE, EPS_NO_PHASE_REF, EPS_TARGET_ISO, EPS_WORD_TIE, BitKind, IsometryError,
    LqcError, RegisterLayout, basis_state, metric_for_kinds,
)
from lqc.gates import isometry_residual
from lqc import simulator
from lqc.simulator import apply_to_tensor
from lqc.synthesis.words import GateWord, generator_matrices

QUBIT_GATES = ("H", "T", "X", "Y", "Z", "SZ", "SZD", "PHASE")
HYBIT_GATES = ("T", "TAU", "Z", "SZ", "SZD", "BOOST", "PHASE")

# property tests draw the same examples on every run; tests that set their
# own max_examples keep it
settings.register_profile("lqc", derandomize=True, max_examples=300, deadline=None)
settings.load_profile("lqc")


def random_layout(rng, max_bits=10, min_bits=1):
    nbits = int(rng.integers(min_bits, max_bits + 1))
    kinds = rng.choice(["q", "h"], size=nbits)
    return RegisterLayout(tuple(kinds))


def random_circuit(rng, layout, n_instr):
    """Random circuit of metric-preserving instructions, controls included."""
    nbits = layout.num_bits
    instrs = []
    for _ in range(n_instr):
        width = int(rng.integers(1, min(3, nbits) + 1))
        positions = rng.choice(nbits, size=width, replace=False)
        target = int(positions[-1])
        controls = [int(p) for p in positions[:-1]]
        pool = QUBIT_GATES if layout.kinds[target] is BitKind.QUBIT else HYBIT_GATES
        name = str(rng.choice(pool))
        param = None
        if name == "PHASE":
            param = float(rng.uniform(-np.pi, np.pi))
        elif name == "BOOST":
            param = float(rng.uniform(-1.5, 1.5))
        instrs.append(Instruction(name, (target,), tuple(controls), param))
    return Circuit(layout, tuple(instrs))


def reference_run(circuit, initial=None):
    """`run` as a plain loop: every instruction through apply_to_tensor on
    the whole state tensor, with no bit left out as untouched."""
    layout = circuit.layout
    state = basis_state(layout, [0] * layout.num_bits) if initial is None else initial.copy()
    tensor = state.amps.reshape([2] * layout.num_bits)
    with np.errstate(over="ignore", invalid="ignore"):
        for instr in circuit.instructions:
            apply_to_tensor(layout, tensor, instr)
    return state


def reference_observe(state):
    """`observe` in plain numpy, as (probs, mass): the hybit-0 slice of a C
    copy of the amplitudes squared (re*re + im*im) in register index order,
    summed, and divided by the sum unless it is 0. The state, and any
    support it carries, is left as it is."""
    layout = state.layout
    amps = state.copy().amps.reshape((2,) * layout.num_bits)
    visible = amps[tuple(0 if k is BitKind.HYBIT else slice(None) for k in layout.kinds)]
    squares = (visible.real * visible.real + visible.imag * visible.imag).reshape(-1)
    mass = float(squares.sum())
    return (squares / mass if mass else squares), mass


@pytest.fixture
def passes(monkeypatch):
    """The passes of `run` and `to_matrix`, as they make them: a list of
    (instruction, amplitudes it touches) pairs, the second the size of the
    control block of the view the kernel gets."""
    seen = []
    apply = simulator.apply_to_tensor

    def spy(layout, tensor, instr):
        seen.append((instr, tensor.size >> len(instr.controls)))
        apply(layout, tensor, instr)

    monkeypatch.setattr(simulator, "apply_to_tensor", spy)
    return seen


def sim_shaped_circuit(seed, nq, nh, lines=40):
    """A circuit shaped like the benchmark's sim circuits: an H layer on
    every qubit, then TAU and BOOST on the trailing hybits, diagonal gates
    anywhere, X and Y on qubits, and controlled lines with 1-3 controls
    (some `!`) on any bits."""
    rng = np.random.default_rng(seed)
    bits = [f"q{i}" for i in range(nq)] + [f"h{i}" for i in range(nh)]
    out = [f"qubits {nq}", f"hybits {nh}"] + [f"H q{i}" for i in range(nq)]
    for _ in range(lines):
        cls = rng.choice(["dense", "diag", "perm", "ctrl"])
        if cls == "dense":
            out.append(f"BOOST {rng.uniform(-0.5, 0.5):.17g} h{rng.integers(nh)}"
                       if rng.random() < 0.5 else f"TAU h{rng.integers(nh)}")
        elif cls == "diag":
            out.append(f"{rng.choice(['T', 'Z', 'SZ', 'SZD'])} {bits[rng.integers(len(bits))]}")
        elif cls == "perm":
            out.append(f"{rng.choice(['X', 'Y'])} q{rng.integers(nq)}")
        else:
            picks = rng.choice(len(bits), size=1 + rng.integers(1, 4), replace=False)
            target = bits[picks[0]]
            refs = [("!" if rng.random() < 1 / 3 else "") + bits[p] for p in picks[1:]]
            gate = rng.choice(["TAU", "T", "Z"] if target[0] == "h" else ["X", "Y", "T", "Z"])
            out.append(f"CTRL {' '.join(refs)} : {gate} {target}")
    return parse("\n".join(out) + "\n")


def reference_lines(values, spec):
    """The lines `lqc run` (spec "%.17g") or `lqc sample` (spec "%d") prints
    for `values` over 2^nq qubit indices, each its own `%`-format: the
    bitstring, a tab and the value, for every nonzero entry in index order."""
    nq = len(values).bit_length() - 1
    line = "%s\t" + spec + "\n"
    # no qubits: the one outcome has the empty bitstring
    return [line % (format(j, f"0{nq}b") if nq else "", v)
            for j, v in enumerate(np.asarray(values).tolist()) if v]


def cartan_target(kind, rng):
    """Seeded single-bit isometry in Cartan form K1 @ B @ K2: diagonal
    phases around a rotation for a qubit ("q") or a boost for a hybit ("h")."""
    a, b, c, d = rng.uniform(-np.pi, np.pi, size=4)
    x = rng.uniform(-1.5, 1.5)
    if kind == "q":
        B = np.array([[np.cos(x), -np.sin(x)], [np.sin(x), np.cos(x)]])
    else:
        B = np.array([[np.cosh(x), np.sinh(x)], [np.sinh(x), np.cosh(x)]])
    return np.diag(np.exp(1j * np.array([a, b]))) @ B @ np.diag(np.exp(1j * np.array([c, d])))


def random_state_amps(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(random_state_amps(rng, (dim, dim)))
    return q


def embed(factor, dim):
    """Dense ambient matrix of a two-level factor: the reference that tests
    rebuild factor products with."""
    out = np.eye(dim, dtype=complex)
    ij = (factor.i, factor.j)
    out[np.ix_(ij, ij)] = factor.V
    return out


def controlled(G, k):
    """Lift G to k control bits: identity except on the all-ones control
    pattern, where G acts."""
    if k < 1:
        raise LqcError("control count must be >= 1")
    G = np.asarray(G, dtype=complex)
    d = G.shape[0]
    out = np.eye((1 << k) * d, dtype=complex)
    out[-d:, -d:] = G
    return out


def format_matrix_text(matrix, m, n):
    """Matrix file text of a matrix under the header "dim m n", in the row
    format of `serialize`, which `parse_matrix_text` reads back exactly."""
    return f"dim {m} {n}\n{_format_rows(np.asarray(matrix, dtype=complex))}\n"


def word_matrix(letters, bitkind):
    """Product of generator matrices, letters reading left to right."""
    gens = generator_matrices(bitkind)
    out = np.eye(2, dtype=complex)
    for name in letters:
        out = out @ gens[name.upper()]
    return out


# The node-by-node word search, kept as the reference for the stacked one:
# one product, one key and one distance per node.

REFERENCE_DEDUP_DECIMALS = 6


def reference_projective_distance(A, B):
    """max-norm distance between A and B minimized over a global phase of B,
    for one matrix B."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    t = np.trace(B.conj().T @ A)
    if abs(t) < EPS_DEGENERATE:
        # trace degenerate; fall back to the largest-magnitude entry of
        # B^dag A as the phase reference (deterministic)
        M = B.conj().T @ A
        flat = np.argmax(np.abs(M))
        t = M.flat[flat]
        if abs(t) < EPS_NO_PHASE_REF:
            return float(np.max(np.abs(A - B)))
    z = t / abs(t)
    return float(np.max(np.abs(A - z * B)))


def reference_canonical_key(matrix):
    # fix the global phase by the first entry whose magnitude is at least
    # half the largest, then round; +0.0 squashes negative zeros
    mags = np.abs(matrix)
    ref = None
    cutoff = 0.5 * mags.max()
    for value in matrix.flat:
        if abs(value) >= cutoff:
            ref = value
            break
    canon = matrix / (ref / abs(ref))
    rounded = np.round(canon, REFERENCE_DEDUP_DECIMALS) + 0.0
    return rounded.tobytes()


def reference_word_search(target, bitkind, tol, depth_max):
    kind = BitKind(bitkind)
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise IsometryError("word_search target must be a 2x2 matrix")
    eta = metric_for_kinds([kind])
    resid = isometry_residual(target, eta)
    if resid > EPS_TARGET_ISO:
        raise IsometryError(
            f"target is not an isometry for a {kind.name.lower()} (residual {resid:.3g})"
        )
    gens = generator_matrices(kind)
    names = sorted(gens)

    identity = np.eye(2, dtype=complex)
    best_word = ()
    best_matrix = identity
    best_error = reference_projective_distance(target, identity)

    seen = {reference_canonical_key(identity)}
    frontier = [((), identity)]
    for _depth in range(depth_max):
        if not frontier:
            break
        next_frontier = []
        for letters, mat in frontier:
            for name in names:
                new_mat = mat @ gens[name]
                key = reference_canonical_key(new_mat)
                if key in seen:
                    continue
                seen.add(key)
                new_letters = letters + (name,)
                err = reference_projective_distance(target, new_mat)
                if err < best_error - EPS_WORD_TIE:
                    best_word, best_matrix, best_error = new_letters, new_mat, err
                next_frontier.append((new_letters, new_mat))
        frontier = next_frontier

    return GateWord(
        letters=best_word,
        matrix=best_matrix,
        error=best_error,
        tol_met=best_error < tol,
    )


def perfbench_modules(*names):
    """The named modules of `perfbench/`, which import each other as
    top-level modules."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, path)
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(path)


# small circuits with CTRL, "!", DEFGATE and BOOST lines, for mutants
SMALL_CIRCUITS = {
    "small_a": (
        "# a register of each kind\nqubits 2\nhybits 1\nDEFGATE G 1\n0,0 1,0\n1,0 0,0\n"
        "H q0\nCTRL q0 : G q1\nCTRL !q1 h0 : X q0\nBOOST 0.5 h0\n"
        "CTRL q0 !q1 : BOOST -0.25 h0\nCZ q0 q1\n"
    ),
    "small_b": (
        "qubits 1\nhybits 2\nDEFGATE SW 2\n1,0 0,0 0,0 0,0\n0,0 0,0 1,0 0,0\n"
        "0,0 1,0 0,0 0,0\n0,0 0,0 0,0 1,0\nSW h0 h1\nCTRL !q0 : SW h1 h0\n"
        "CTRL q0 : BOOST 1.5 h1\nTAU h0\nT q0\n"
    ),
    "small_c": (
        "QUBITS 3 # three\n\nCTRL q0 q1 : X q2\nCTRL !q2 !q0 : Z q1\nDEFGATE PH 1\n"
        "1,0 0,0   # first row\n0,0 0,1\nPH q2\nctrl q1 : PH q0\nPHASE 0.25 q1\n"
        "CTRL\tq2 :\tPHASE -1 q0\n"
    ),
}

# what a mutant's edits insert
_TOKENS = [
    "q0", "q1", "q2", "h0", "h1", "!q0", "!h1", "q9", "h7", "Q1", "!!q0", "q-1", ":", "::",
    "CTRL", "ctrl", "DEFGATE", "qubits", "hybits", "X", "H", "Z", "CZ", "T", "TAU", "BOOST",
    "PHASE", "G", "SW", "NEW", "1", "2", "0", "-1", "11", "99", "0.5", "-3e2", "nan", "inf", "1e400",
    "1,0", "0,0", "0,1", "1,0,0", "x,0", "#", "abc", "dim", "é",
]
_CHARS = "qh!:#,.-_ \t019eXZ"
_LINES = [
    "qubits 2", "hybits 1", "qubits 40", "DEFGATE G 1", "DEFGATE NEW 1", "1,0 0,0", "0,0 1,0",
    "CTRL q0 : X q1", "X q0", "BOOST 0.5 h0", "dim 2 0", "hybits 30", "", "# note",
]


def _pick(rng: random.Random, seq):
    # only `random()` is reproducible across Python versions for one seed
    return seq[int(rng.random() * len(seq))]


def _edit(rng: random.Random, lines: list[str]) -> None:
    """Apply one seeded edit to `lines` in place."""
    op = _pick(rng, ["drop", "insert", "replace", "drop_char", "insert_char", "replace_char",
                     "delete_line", "insert_line"])
    if op == "insert_line" or not lines:
        lines.insert(int(rng.random() * (len(lines) + 1)), _pick(rng, _LINES + lines))
        return
    n = int(rng.random() * len(lines))
    line = lines[n]
    if op == "delete_line":
        del lines[n]
    elif op.endswith("_char"):
        at = int(rng.random() * (len(line) + 1))
        keep = at + (op != "insert_char")
        new = "" if op == "drop_char" else _pick(rng, _CHARS)
        lines[n] = line[:at] + new + line[keep:]
    else:
        spans = [m.span() for m in re.finditer(r"\S+", line)] or [(len(line), len(line))]
        start, end = _pick(rng, spans)
        if op == "insert":
            start = end
        new = "" if op == "drop" else (" " if op == "insert" else "") + _pick(rng, _TOKENS)
        lines[n] = line[:start] + new + line[end:]


def mutant(text: str, seed: str) -> str:
    """`text` after one to three seeded edits: a token or a character
    dropped, inserted or replaced, or a line deleted or inserted."""
    rng = random.Random(seed)
    lines = text.splitlines()
    for _ in range(1 + int(rng.random() * 3)):
        _edit(rng, lines)
    return "\n".join(lines) + "\n"
