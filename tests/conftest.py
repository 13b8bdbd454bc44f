"""Shared helpers: random layouts, random valid circuits, and the dense
matrix of a two-level factor."""

import numpy as np
from hypothesis import settings

from lqc.circuit import Circuit, Instruction
from lqc.core import BitKind, RegisterLayout

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


def random_state_amps(rng, dim):
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def embed(factor, dim):
    """Dense ambient matrix of a two-level factor: the reference that tests
    rebuild factor products with."""
    out = np.eye(dim, dtype=complex)
    ij = (factor.i, factor.j)
    out[np.ix_(ij, ij)] = factor.V
    return out
