"""Single-bit word search over the compact generator pairs.

A qubit word is built from {H, T}; a hybit word from {TAU, T}. Breadth
first enumeration with projective dedup is enough at desk scale: reduced
words grow slowly (H and TAU square to the identity, T has finite order
up to phase), so the frontier stays small even at depth 20.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (
    EPS_DEGENERATE, EPS_NO_PHASE_REF, EPS_TARGET_ISO, EPS_WORD_TIE, BitKind, IsometryError,
    metric_for_kinds,
)
from ..gates import builtin, isometry_residual

QUBIT_GENERATORS = ("H", "T")
HYBIT_GENERATORS = ("T", "TAU")

# rounding used when collapsing phase-equivalent frontier states
_DEDUP_DECIMALS = 6


@dataclass(frozen=True)
class GateWord:
    """A product of generators approximating a single-bit target.

    letters multiply left to right: matrix = M(letters[0]) @ M(letters[1]) @ ...
    so the rightmost letter acts first on a state.
    """

    letters: tuple[str, ...]
    matrix: np.ndarray = field(compare=False, repr=False)
    error: float
    tol_met: bool

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "<empty>"


def projective_distance(A: np.ndarray, B: np.ndarray) -> float:
    """max-norm distance between A and B minimized over a global phase of B.

    The optimal phase for the Frobenius norm, arg tr(B^dag A), is used in
    closed form; with it fixed the max-norm is what gets reported.
    """
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


def generator_matrices(bitkind: BitKind | str) -> dict[str, np.ndarray]:
    kind = BitKind(bitkind)
    names = QUBIT_GENERATORS if kind is BitKind.QUBIT else HYBIT_GENERATORS
    return {name: builtin(name) for name in names}


def _canonical_key(matrix: np.ndarray) -> bytes:
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
    rounded = np.round(canon, _DEDUP_DECIMALS) + 0.0
    return rounded.tobytes()


def word_search(
    target: np.ndarray,
    bitkind: BitKind | str,
    tol: float,
    depth_max: int,
) -> GateWord:
    """Best generator word of length <= depth_max under projective distance.

    Always returns a word; tol_met reports whether the requested tolerance
    was reached. Ties at equal error break toward shorter, then
    lexicographically earlier words (guaranteed by enumeration order and
    strict improvement).
    """
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
    best_word: tuple[str, ...] = ()
    best_matrix = identity
    best_error = projective_distance(target, identity)

    seen = {_canonical_key(identity)}
    frontier: list[tuple[tuple[str, ...], np.ndarray]] = [((), identity)]
    for _depth in range(depth_max):
        if not frontier:
            break
        next_frontier: list[tuple[tuple[str, ...], np.ndarray]] = []
        for letters, mat in frontier:
            for name in names:
                new_mat = mat @ gens[name]
                key = _canonical_key(new_mat)
                if key in seen:
                    continue
                seen.add(key)
                new_letters = letters + (name,)
                err = projective_distance(target, new_mat)
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


def word_matrix(letters, bitkind: BitKind | str) -> np.ndarray:
    """Product of generator matrices, letters reading left to right."""
    gens = generator_matrices(bitkind)
    out = np.eye(2, dtype=complex)
    for name in letters:
        out = out @ gens[name.upper()]
    return out
