"""Shared helpers: random layouts, random valid circuits, circuits shaped
like the benchmark's sim circuits, the whole-tensor run, the dense matrix
of a two-level factor, a controlled lift, the matrix file writer, the
product of a generator word, and the node-by-node word search that the
stacked one is checked against."""

import numpy as np
from hypothesis import settings

from lqc.circuit import Circuit, Instruction, _format_rows, parse
from lqc.core import (
    EPS_DEGENERATE, EPS_NO_PHASE_REF, EPS_TARGET_ISO, EPS_WORD_TIE, BitKind, IsometryError,
    LqcError, RegisterLayout, basis_state, metric_for_kinds,
)
from lqc.gates import isometry_residual
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
