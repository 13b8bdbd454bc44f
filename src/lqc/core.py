"""Registers, the indefinite metric, and state-vector bookkeeping.

A register is an ordered list of two-level systems.  Qubits carry the
positive-definite metric diag(1, 1); hybits carry the indefinite metric
diag(1, -1).  The register metric is the Kronecker product of the per-bit
metrics, so the sign attached to a basis index depends only on the parity
of the hybit bits set in it.

Basis indices are big-endian: bit 0 of the register is the most
significant bit of the index, i.e. |d0, d1, ..., d(N-1)> sits at index
sum_p dp * 2^(N-1-p).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# Tolerances: every numeric threshold of the package, each with the decision
# it makes. No other module writes a float below 1e-2
# (tests/test_tolerances.py). Equal values stay separate names where they
# decide different things; changing one moves which inputs pass, and the
# EPS_ZERO and EPS_IDENTITY tests decide which gate names `synth` prints.
EPS_ISO = 1e-10  # a gate, circuit or closed-form residual is exact: isometry PASS/FAIL
EPS_RECON = 1e-8  # exact synthesis: factors stay isometric, products match their targets
EPS_TARGET_ISO = 1e-9  # a single-bit synthesis target (lambda_k, word_search) is isometric
EPS_PROB_SUM = 1e-9  # a nonzero outcome distribution sums to 1
NEGLIGIBLE_MASS_RATIO = 1e-12  # observe() warns below this share of the positive mass
EPS_ZERO = 1e-14  # an entry, or a gate's distance from I or a builtin, is exactly zero
EPS_PHASE_ONE = 1e-13  # an elimination residue is exactly 1 and needs no absorbing
EPS_IDENTITY = 1e-12  # a 2x2 identity holds: U^2 = I, det -1, cosh^2 - sinh^2 = 1, basis = I
EPS_DEGENERATE = 1e-12  # a pivot, norm, trace or determinant to divide by is zero
EPS_SCALAR_SQUARE = 1e-10  # U0^2 = +-I: the hybit W-gadget takes its trivial factors
EPS_SU11 = 1e-9  # SU(1,1) family boundary: discriminant or half-trace near +-1 or 0
EPS_AXIS_BASIS = 1e-9  # the three conjugated word axes are linearly dependent
EPS_REAL_AXIS = 1e-7  # imaginary part of an extracted axis component that still counts as real
EPS_EIGEN_MATCH = 1e-6  # two hyperbolic elements have equal eigenvalues, so they are conjugate
EPS_SMALL_ZETA = 1e-6  # the (+,+,-) four-matrix identity would divide by |zeta| below this
MIN_PARTNER_MARGIN = 1e-3  # a hyperbolic partner clears both of its conditions by this
EPS_WORD_TIE = 1e-15  # a later generator word replaces the best one only when better by this
EPS_NO_PHASE_REF = 1e-15  # B^dag A is zero: projective_distance fits no global phase


class LqcError(Exception):
    """Base class for errors raised by this package."""


class GuardError(LqcError):
    """A numeric or resource guard refused the operation."""


class IsometryError(LqcError):
    """A matrix failed the metric-isometry requirement where one is mandatory."""


class BitKind(str, Enum):
    QUBIT = "q"
    HYBIT = "h"


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered bit kinds: `kinds[p]` is the kind of register position p,
    which is also axis p of the state tensor. Canonical layouts put all
    qubits before all hybits, but nothing below depends on that ordering.

    The positions of each kind are worked out once, at construction.
    Equality, hashing and repr depend on `kinds` alone."""

    kinds: tuple[BitKind, ...]

    def __post_init__(self) -> None:
        kinds = tuple(BitKind(k) for k in self.kinds)
        places = {kind: tuple(p for p, k in enumerate(kinds) if k is kind) for kind in BitKind}
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "_places", places)

    @classmethod
    def of(cls, num_qubits: int, num_hybits: int) -> "RegisterLayout":
        if num_qubits < 0 or num_hybits < 0:
            raise ValueError("bit counts must be nonnegative")
        return cls((BitKind.QUBIT,) * num_qubits + (BitKind.HYBIT,) * num_hybits)

    @property
    def num_bits(self) -> int:
        return len(self.kinds)

    @property
    def num_qubits(self) -> int:
        return len(self._places[BitKind.QUBIT])

    @property
    def num_hybits(self) -> int:
        return len(self._places[BitKind.HYBIT])

    @property
    def dimension(self) -> int:
        return 1 << self.num_bits

    def positions(self, kind: BitKind) -> tuple[int, ...]:
        """Register positions of the bits of one kind, in order."""
        return self._places[kind]

    def bit_weight(self, position: int) -> int:
        """Integer weight of register bit `position` (bit 0 is the MSB)."""
        if not 0 <= position < self.num_bits:
            raise IndexError(f"bit position {position} out of range")
        return 1 << (self.num_bits - 1 - position)

    @property
    def hybit_index_mask(self) -> int:
        return sum(1 << (self.num_bits - 1 - p) for p in self._places[BitKind.HYBIT])


def metric_for_kinds(kinds: Iterable[BitKind | str]) -> np.ndarray:
    """Metric of an ordered list of bit kinds: the Kronecker product of the
    per-bit metrics, as a +-1 int8 array of length 2^len(kinds). The entry
    at an index is -1 iff an odd number of hybits are in state 1 there."""
    kinds = [BitKind(k) for k in kinds]
    n = len(kinds)
    mask = sum(1 << (n - 1 - p) for p, k in enumerate(kinds) if k is BitKind.HYBIT)
    idx = np.arange(1 << n, dtype=np.uint64)
    parity = (np.bitwise_count(idx & np.uint64(mask)) & 1).astype(np.int8)
    return (1 - 2 * parity).astype(np.int8)


def metric_vector(layout: RegisterLayout) -> np.ndarray:
    """All diagonal metric entries at once, as a +-1 int8 array of length
    layout.dimension. Computed, never stored per-state."""
    return metric_for_kinds(layout.kinds)


@dataclass
class StateVector:
    layout: RegisterLayout
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (self.layout.dimension,):
            raise ValueError(
                f"amplitude array has shape {self.amps.shape}, "
                f"expected ({self.layout.dimension},)"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.layout, self.amps.copy())


def pseudo_norm(state: StateVector) -> float:
    """Sum of eta_j |a_j|^2: conserved by metric isometries, may be negative or zero."""
    mag2 = state.amps.real**2 + state.amps.imag**2
    return float(np.dot(metric_vector(state.layout).astype(np.float64), mag2))


def basis_state(layout: RegisterLayout, bitstring: Sequence[int] | str) -> StateVector:
    bits = [int(b) for b in bitstring]
    if len(bits) != layout.num_bits:
        raise ValueError(f"bitstring length {len(bits)} != register size {layout.num_bits}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bitstring entries must be 0 or 1")
    amps = np.zeros(layout.dimension, dtype=np.complex128)
    amps[encode_bits(layout, bits)] = 1.0
    return StateVector(layout, amps)


def normalize(state: StateVector) -> StateVector:
    """Scale to pseudo-norm +1. States with pseudo-norm <= 0 are not
    physically preparable and are rejected."""
    pn = pseudo_norm(state)
    if pn <= 0.0:
        raise LqcError(f"cannot normalize state with pseudo-norm {pn:.6g}")
    return StateVector(state.layout, state.amps / np.sqrt(pn))


def encode_bits(layout: RegisterLayout, bits: Iterable[int]) -> int:
    """Basis index of a classical bit assignment (big-endian, bit 0 = MSB)."""
    index = 0
    for p, b in enumerate(bits):
        if b:
            index |= layout.bit_weight(p)
    return index
