"""Reference implementations the benchmark checks lqc's outputs against.

Written from the documented semantics (README and `.lqc` grammar), sharing
no code with the package: gate matrices, a reader for the `.lqc` subset the
generators and `serialize` produce, a slice-pair state-vector kernel with
native control polarity, hyper-postselection, the search closed form and
the projective distance.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

FIXED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2,
    # pi/8 gate with its global phase folded in: diag(1, e^{-i pi/4})
    "T": np.diag([1.0, np.exp(-1j * math.pi / 4)]),
    "TAU": np.array([[SQRT2, 1j], [1j, -SQRT2]]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
    "SZ": np.diag([1.0 + 0j, 1j]),
    "SZD": np.diag([1.0 + 0j, -1j]),
}

QUBIT_GENERATORS = ("H", "T")
HYBIT_GENERATORS = ("T", "TAU")


def gate(name: str, param: float | None = None) -> np.ndarray:
    if name == "BOOST":
        c, s = math.cosh(param), math.sinh(param)
        return np.array([[c, s], [s, c]], dtype=complex)
    if name == "PHASE":
        return np.diag([1.0, np.exp(1j * param)])
    return FIXED[name]


class Circuit:
    """A parsed `.lqc` circuit: register size, a list of
    (matrix, target position, ((control position, polarity), ...)) and the
    gate name of each entry."""

    def __init__(self, num_qubits: int, num_hybits: int, ops: list, names: list[str]):
        self.num_qubits = num_qubits
        self.num_hybits = num_hybits
        self.ops = ops
        self.names = names

    @property
    def num_bits(self) -> int:
        return self.num_qubits + self.num_hybits


def parse(text: str) -> Circuit:
    """Read declarations, DEFGATE blocks of arity 1, simple statements and
    CTRL statements with `!` polarity. Qubits precede hybits in the
    register, so q<i> is position i and h<i> is position nq + i."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    nq = nh = 0
    defs: dict[str, np.ndarray] = {}
    ops = []
    names = []
    i = 0

    def position(tok: str) -> int:
        return int(tok[1:]) + (0 if tok[0] in "qQ" else nq)

    while i < len(lines):
        toks = lines[i]
        head = toks[0].upper()
        i += 1
        if head == "QUBITS":
            nq = int(toks[1])
        elif head == "HYBITS":
            nh = int(toks[1])
        elif head == "DEFGATE":
            if toks[2] != "1":
                raise ValueError("reference reader handles 1-bit DEFGATEs only")
            rows = lines[i:i + 2]
            i += 2
            defs[toks[1].upper()] = np.array(
                [[complex(*map(float, e.split(","))) for e in row] for row in rows]
            )
        else:
            controls: tuple = ()
            if head == "CTRL":
                split = toks.index(":")
                controls = tuple(
                    (position(t.lstrip("!")), 0 if t.startswith("!") else 1)
                    for t in toks[1:split]
                )
                toks = toks[split + 1:]
            name = toks[0].upper()
            if name in defs:
                matrix = defs[name]
            elif name in ("BOOST", "PHASE"):
                matrix = gate(name, float(toks[1]))
            else:
                matrix = gate(name)
            ops.append((matrix, position(toks[-1]), controls))
            names.append(name)
    return Circuit(nq, nh, ops, names)


def apply(tensor: np.ndarray, nbits: int, matrix: np.ndarray, target: int, controls) -> None:
    """Apply one controlled 1-bit gate in place to a tensor whose first
    `nbits` axes are register bits (bit 0 first); trailing axes are a batch.
    Only the slice where every control holds its polarity is touched."""
    idx = [slice(None)] * tensor.ndim
    for pos, value in controls:
        idx[pos] = value
    idx[target] = 0
    s0 = tensor[tuple(idx)]
    idx[target] = 1
    s1 = tensor[tuple(idx)]
    (a, b), (c, d) = matrix
    if b == 0 and c == 0:
        if a != 1:
            s0 *= a
        if d != 1:
            s1 *= d
        return
    new1 = c * s0
    if d != 0:
        new1 += d * s1
    if a != 1:
        s0 *= a
    if b != 0:
        s0 += b * s1
    s1[...] = new1


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full register matrix, first statement applied first."""
    n = circuit.num_bits
    dim = 1 << n
    mat = np.eye(dim, dtype=complex)
    tensor = mat.reshape([2] * n + [dim])
    for matrix, target, controls in circuit.ops:
        apply(tensor, n, matrix, target, controls)
    return mat


def simulate(circuit: Circuit) -> np.ndarray:
    """State after the circuit, starting from |0...0>."""
    n = circuit.num_bits
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    tensor = state.reshape([2] * n)
    for matrix, target, controls in circuit.ops:
        apply(tensor, n, matrix, target, controls)
    return state


def observe(state: np.ndarray, num_qubits: int, num_hybits: int) -> tuple[np.ndarray, float]:
    """Hyper-postselection: keep amplitudes with every hybit in 0 (the low
    index bits), return (probability per qubit index, observable mass)."""
    visible = state.reshape(1 << num_qubits, 1 << num_hybits)[:, 0]
    mag2 = visible.real**2 + visible.imag**2
    mass = float(mag2.sum())
    return mag2 / mass, mass


def predicted_success(N: int, chi: float, k: int) -> float:
    c2 = math.cosh(k * chi) ** 2
    return (c2 / N) / (1.0 - 1.0 / N + c2 / N)


def minimal_rounds(N: int, chi: float, p_min: float) -> int:
    k = 0
    while predicted_success(N, chi, k) < p_min:
        k += 1
    return k


def projective_distance(A: np.ndarray, B: np.ndarray) -> float:
    """max |A - z B| with the global phase z = tr(B^dag A) / |tr(B^dag A)|
    (the Frobenius-optimal phase), falling back to the largest entry of
    B^dag A when the trace vanishes."""
    M = B.conj().T @ A
    t = np.trace(M)
    if abs(t) < 1e-12:
        t = M.flat[np.argmax(np.abs(M))]
        if abs(t) < 1e-15:
            return float(np.max(np.abs(A - B)))
    return float(np.max(np.abs(A - (t / abs(t)) * B)))


def word_matrix(letters, kind: str) -> np.ndarray:
    """Product of generator letters, left to right."""
    allowed = QUBIT_GENERATORS if kind == "qubit" else HYBIT_GENERATORS
    out = np.eye(2, dtype=complex)
    for letter in letters:
        if letter not in allowed:
            raise ValueError(f"letter {letter} is not a {kind} generator")
        out = out @ FIXED[letter]
    return out
