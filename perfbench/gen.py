"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and shares no code with the package under
test, so the inputs do not depend on the code they exercise.
"""

from __future__ import annotations

import math

import numpy as np

# same value as the package's isometry tolerance; inputs must clear it
EPS_ISO = 1e-10

# largest boost rapidity of a generated isometry; entries reach ~e^R_CAP
R_CAP = 6.5

SIM_QUBITS = 18
SIM_HYBITS = 2

# gate-class mix of the sim circuits (shares of the 100 gate lines)
SIM_MIX = (("dense", 0.3), ("diag", 0.3), ("perm", 0.2), ("ctrl", 0.2))
DIAG_GATES = ("T", "Z", "SZ", "SZD", "PHASE")
QUBIT_TARGETS = ("X", "Y", "Z", "T", "SZ", "PHASE")
HYBIT_TARGETS = ("TAU", "BOOST", "Z", "T", "PHASE")


def metric_signs(kinds: str) -> np.ndarray:
    """+-1 metric entry of every basis index of a register given as a kind
    string such as "qqqh"; bit 0 is the most significant index bit, so a
    trailing hybit interleaves the signs."""
    n = len(kinds)
    idx = np.arange(1 << n)
    signs = np.ones(1 << n)
    for p, kind in enumerate(kinds):
        if kind == "h":
            signs *= 1 - 2 * ((idx >> (n - 1 - p)) & 1)
    return signs


# factors are multiplied in extended precision and rounded once at the end,
# so the residual of the result does not grow with the number of factors
_EXT = np.clongdouble


def _phases(rng: np.random.Generator) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2 * math.pi, 3).astype(np.longdouble))


def _unitary_block(rng: np.random.Generator) -> np.ndarray:
    g, a, b = _phases(rng)
    th = np.longdouble(rng.uniform(0.0, math.pi / 2))
    c, s = np.cos(th), np.sin(th)
    return g * np.array([[c * a, -s / b], [s * b, c / a]], dtype=_EXT)


def _boost_block(rng: np.random.Generator, r: float) -> np.ndarray:
    g, a, b = _phases(rng)
    c, s = np.cosh(np.longdouble(r)), np.sinh(np.longdouble(r))
    return g * np.array([[c * a, s * b], [s / b, c / a]], dtype=_EXT)


def _mix_within_blocks(A: np.ndarray, signs: np.ndarray, rng: np.random.Generator) -> None:
    """Left-multiply A in place by a random diagonal phase and d(d-1)/2
    random U(2) two-level factors, each on a pair of indices with equal
    metric sign."""
    d = len(signs)
    A *= np.exp(1j * rng.uniform(0.0, 2 * math.pi, d).astype(np.longdouble))[:, None]
    groups = [g for g in (np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)) if len(g) >= 2]
    if not groups:
        return
    for _ in range(d * (d - 1) // 2):
        g = groups[rng.integers(len(groups))]
        i, j = rng.choice(g, 2, replace=False)
        A[[i, j], :] = _unitary_block(rng) @ A[[i, j], :]


def random_isometry(kinds: str, rng: np.random.Generator) -> np.ndarray:
    """Random register isometry G (G^dag eta G = eta, eta in metric_signs
    order) as a product of exact two-level factors: U(2) mixing within each
    sign block (after a diagonal phase), boosts on disjoint opposite-sign
    pairs, U(2) mixing again (the Cartan form of U(p, q)). Rapidities are
    evenly spread over [0, 1.1 sqrt(d)], the spread of the log singular
    values of a U(p, q) element drawn as expm(-i eta H) with Gaussian
    Hermitian H (the inputs on which exact synthesis was first seen to
    fail). Fixing the spectrum makes every input of one layout equally hard,
    so seeds differ only in the U(2) factors. The top rapidity is capped at
    R_CAP so that the double-precision result still clears EPS_ISO."""
    signs = metric_signs(kinds)
    d = len(signs)
    A = np.eye(d, dtype=_EXT)
    if d >= 2:
        _mix_within_blocks(A, signs, rng)
        pos = rng.permutation(np.flatnonzero(signs > 0))
        neg = rng.permutation(np.flatnonzero(signs < 0))
        r_max = min(1.1 * math.sqrt(d), R_CAP)
        for k, (i, j) in enumerate(zip(pos, neg)):
            r = r_max * (k + 0.5) / len(pos)
            A[[i, j], :] = _boost_block(rng, r) @ A[[i, j], :]
        _mix_within_blocks(A, signs, rng)
    A = A.astype(complex)
    resid = np.max(np.abs((A.conj().T * signs) @ A - np.diag(signs)))
    if resid > EPS_ISO:
        raise ValueError(f"generated {kinds} isometry has residual {resid:.3g}")
    return A


def matrix_text(A: np.ndarray, kinds: str) -> str:
    """Matrix file for `lqc synth`/`lqc approx`: "dim m n" gives the count
    of +1 and -1 metric entries; the rows follow in register index order."""
    signs = metric_signs(kinds)
    lines = [f"dim {int(np.sum(signs > 0))} {int(np.sum(signs < 0))}"]
    for row in A:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def _bit(kind: str, index: int) -> str:
    return f"{kind}{index}"


def sim_circuit(rng: np.random.Generator, lines: int = 100) -> str:
    """`.lqc` text of one sim circuit on SIM_QUBITS qubits and SIM_HYBITS
    hybits: `lines` gate lines with class counts fixed by SIM_MIX.

    A layer of H on every qubit comes first and counts toward the dense
    share; the rest of the dense lines are TAU or BOOST on hybits. After the
    layer, qubits only see permutations and phases (X and Y, which do not
    preserve a hybit's metric, diagonal gates, and controlled forms of
    both), so the outcome distribution keeps full support and every circuit
    costs `observe` and `sample` the same. Controlled lines carry 1-3
    controls, qubit controls written `!q` a third of the time; hybit targets
    of controlled lines may be TAU or BOOST. CZ is never used."""
    nq, nh = SIM_QUBITS, SIM_HYBITS
    bits = [("q", i) for i in range(nq)] + [("h", i) for i in range(nh)]
    classes = [c for c, share in SIM_MIX for _ in range(round(share * lines))]
    classes = list(rng.permutation(classes))
    for _ in range(nq):
        classes.remove("dense")
    out = [f"qubits {nq}", f"hybits {nh}"] + [f"H q{i}" for i in range(nq)]

    def param() -> str:
        return f"{rng.uniform(-0.5, 0.5):.17g}"

    def simple(gate: str, target: str) -> str:
        if gate in ("BOOST", "PHASE"):
            return f"{gate} {param()} {target}"
        return f"{gate} {target}"

    for cls in classes:
        if cls == "dense":
            gate = ("TAU", "BOOST")[rng.integers(2)]
            out.append(simple(gate, _bit("h", rng.integers(nh))))
        elif cls == "diag":
            kind, index = bits[rng.integers(len(bits))]
            out.append(simple(DIAG_GATES[rng.integers(len(DIAG_GATES))], _bit(kind, index)))
        elif cls == "perm":
            out.append(simple(("X", "Y")[rng.integers(2)], _bit("q", rng.integers(nq))))
        else:
            picks = rng.choice(len(bits), size=1 + rng.integers(1, 4), replace=False)
            (tkind, tindex), ctrl = bits[picks[0]], [bits[p] for p in picks[1:]]
            pool = QUBIT_TARGETS if tkind == "q" else HYBIT_TARGETS
            refs = [
                ("!" if kind == "q" and rng.random() < 1 / 3 else "") + _bit(kind, index)
                for kind, index in ctrl
            ]
            gate = pool[rng.integers(len(pool))]
            out.append(f"CTRL {' '.join(refs)} : {simple(gate, _bit(tkind, tindex))}")
    return "\n".join(out) + "\n"


def bitstring(rng: np.random.Generator, n: int) -> str:
    """n-bit string with n // 2 zeros at random places. Each zero costs the
    search oracle two X gates, so a fixed count keeps every op of one size
    equally expensive (rounds of 31-35 instructions for n = 14..16)."""
    bits = np.ones(n, dtype=int)
    bits[rng.choice(n, n // 2, replace=False)] = 0
    return "".join(map(str, bits))
