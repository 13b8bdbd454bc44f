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
EPS_IDENTITY = 1e-12  # an identity holds: cosh^2 - sinh^2 = 1, a dimension-1 input is 1
EPS_DEGENERATE = 1e-12  # a pivot, norm, trace or determinant to divide by is zero
EPS_SCALAR_SQUARE = 1e-10  # U0^2 = +-I: the hybit W-gadget takes its trivial factors
EPS_SU11 = 1e-9  # SU(1,1) family boundary: discriminant or half-trace near +-1 or 0
EPS_REAL_AXIS = 1e-7  # imaginary part of an extracted axis component that still counts as real
EPS_EIGEN_MATCH = 1e-6  # two hyperbolic elements have equal eigenvalues, so they are conjugate
EPS_SMALL_ZETA = 1e-6  # the (+,+,-) four-matrix identity would divide by |zeta| below this
EPS_WORD_TIE = 1e-15  # a later generator word replaces the best one only when better by this
EPS_WORD_BOUND = 1e-5  # margin of the bound that skips generator words that cannot win (below)
EPS_NO_PHASE_REF = 1e-15  # B^dag A is zero: projective_distance fits no global phase

# word_search neither scores nor, on its last level, keys a word B with
# top(B) - top(A) >= best - EPS_WORD_TIE + EPS_WORD_BOUND * (1 + top(A) + top(B)),
# top being the largest entry magnitude and A the target. The absolute term
# covers the dedup rounding (equal keys are within sqrt(2) * 1e-6), the
# relative one a computed distance's float error, a few ulps of
# top(A) + top(B); entries reach about 1e9 at MAX_WORD_DEPTH.

# word_search refuses a longer word bound. A hybit search takes about 0.2 s
# and 44 MB of peak RSS growth at depth 24, and each four levels more
# multiply its time by about six and its memory by about five (0.04 s and
# 9 MB at 20; one BLAS thread, 2-core Xeon); qubit searches cost less.
MAX_WORD_DEPTH = 24

# `parse` refuses a declared register of more bits: a basis index, and the
# hybit mask `metric_for_kinds` takes it through, is a uint64.
MAX_REGISTER_BITS = 64


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


class StateVector:
    """A register state. `tensor` holds the amplitudes with shape
    [2]*num_bits, axis p being register bit p, in whatever memory order they
    were made in (`simulator.run` makes them in the order its circuit works
    on them, and may return some axes reversed, a view with negative
    strides, where its Pauli frame left bits flipped). `amps` is the flat
    array in register index order: reading it
    first lays `tensor` out in C order if it is not already, so that `amps`
    is a view of `tensor` and writes through either are seen by both.
    Assigning `amps` takes a flat array in register index order or a tensor
    of shape [2]*num_bits in any memory order, without copying it."""

    def __init__(self, layout: RegisterLayout, amps: np.ndarray) -> None:
        self.layout = layout
        self.amps = amps

    @property
    def amps(self) -> np.ndarray:
        if not self.tensor.flags.c_contiguous:
            self.tensor = self.tensor.copy()
        return self.tensor.reshape(-1)

    @amps.setter
    def amps(self, amps: np.ndarray) -> None:
        amps = np.asarray(amps, dtype=np.complex128)
        shape = (2,) * self.layout.num_bits
        if amps.shape not in ((self.layout.dimension,), shape):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, "
                f"expected ({self.layout.dimension},) or {shape}"
            )
        self.tensor = amps.reshape(shape)

    def copy(self) -> "StateVector":
        """An independent state, laid out in C order."""
        return StateVector(self.layout, self.tensor.copy())


def pattern_masses(state: StateVector) -> np.ndarray:
    """Squared magnitude of each hybit pattern's slice of the state, as an
    array over hybit indices (first hybit most significant). The tensor's
    negative-stride axes are flipped back first and the masses flipped into
    pattern order after. Where the last memory axis then has unit stride
    (every state `run` returns, and every state built from a flat array),
    the axes are taken in memory order and read as float64, each
    amplitude's real and imaginary parts on a trailing axis of length 2,
    and one `np.einsum` that keeps the hybit axes sums the squares: one
    pass over the state, in memory order, copying nothing. A tensor with
    no unit-stride axis (a strided view a caller built) takes one einsum
    over the real parts and one over the imaginary parts instead. Either
    way no temporary of the state's size is made, the order of summation
    follows the memory layout, and each axis keeps its register position
    as its einsum label, so the masses come out in pattern order. An
    overflowing square gives inf or nan, without numpy warnings."""
    tensor = state.tensor
    flipped = [p for p, s in enumerate(tensor.strides) if s < 0]
    base = np.flip(tensor, flipped)
    hybits = list(state.layout.positions(BitKind.HYBIT))
    order = sorted(range(base.ndim), key=lambda p: -base.strides[p])
    with np.errstate(over="ignore", invalid="ignore"):
        if order and base.strides[order[-1]] == base.itemsize:
            parts = base.transpose(order).view(np.float64).reshape(*base.shape, 2)
            labels = [*order, base.ndim]
            masses = np.einsum(parts, labels, parts, labels, hybits)
        else:
            axes = list(range(base.ndim))
            masses = (np.einsum(base.real, axes, base.real, axes, hybits)
                      + np.einsum(base.imag, axes, base.imag, axes, hybits))
    return np.flip(masses, [hybits.index(p) for p in flipped if p in hybits]).reshape(-1)


def pseudo_norm(state: StateVector) -> float:
    """Sum of eta_j |a_j|^2: conserved by metric isometries, may be negative or zero.
    eta_j is the sign of j's hybit pattern, so this is the signed sum of
    `pattern_masses`, made without a copy of the state or its metric."""
    signs = metric_for_kinds([BitKind.HYBIT] * state.layout.num_hybits)
    return float(np.dot(signs, pattern_masses(state)))


def basis_state(layout: RegisterLayout, bitstring: Sequence[int] | str) -> StateVector:
    bits = [int(b) for b in bitstring]
    if len(bits) != layout.num_bits:
        raise ValueError(f"bitstring length {len(bits)} != register size {layout.num_bits}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bitstring entries must be 0 or 1")
    amps = np.zeros(layout.dimension, dtype=np.complex128)
    amps[encode_bits(layout, bits)] = 1.0
    return StateVector(layout, amps)


def encode_bits(layout: RegisterLayout, bits: Iterable[int]) -> int:
    """Basis index of a classical bit assignment (big-endian, bit 0 = MSB)."""
    index = 0
    for p, b in enumerate(bits):
        if b:
            index |= layout.bit_weight(p)
    return index
