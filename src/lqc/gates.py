"""Builtin gate matrices, isometry checks, and controlled lifts.

Gate matrices are plain complex numpy arrays of shape (2^arity, 2^arity);
metrics are +-1 sign vectors (see `core.metric_for_kinds`). A gate G is
admissible on a set of bits iff G^dagger eta G = eta for the tensor-product
metric eta of those bits.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np
import scipy.linalg

from .core import EPS_ISO, LqcError

SQRT2 = np.sqrt(2.0)

_H = np.array([[1, 1], [1, -1]]) / SQRT2
# pi/8 gate written with its overall phase, so the matrix is diag(1, e^{-i pi/4})
_T = np.exp(-1j * np.pi / 8) * np.diag([np.exp(1j * np.pi / 8), np.exp(-1j * np.pi / 8)])
_TAU = np.array([[SQRT2, 1j], [1j, -SQRT2]])
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0 + 0j, -1.0])
_SZ = np.diag([1.0 + 0j, 1j])   # Z^{1/2}
_SZD = np.diag([1.0 + 0j, -1j])  # Z^{-1/2}
_CZ = np.diag([1.0 + 0j, 1, 1, -1])

#: Builtin gate arities; parametric gates map to the parameter count they need.
BUILTIN_ARITY = {
    "H": 1, "T": 1, "TAU": 1, "X": 1, "Y": 1, "Z": 1,
    "SZ": 1, "SZD": 1, "BOOST": 1, "PHASE": 1, "CZ": 2,
}
PARAMETRIC = {"BOOST", "PHASE"}


def boost(chi: float) -> np.ndarray:
    """Hyperbolic rotation [[cosh chi, sinh chi], [sinh chi, cosh chi]]."""
    ch, sh = np.cosh(chi), np.sinh(chi)
    return np.array([[ch, sh], [sh, ch]], dtype=complex)


def phase_gate(phi: float) -> np.ndarray:
    return np.diag([1.0 + 0j, np.exp(1j * phi)])


@functools.lru_cache(maxsize=1024)
def builtin(name: str, param: float | None = None) -> np.ndarray:
    """Matrix of a named builtin gate. BOOST and PHASE require a parameter.
    Built once per (name, param) and shared, so the array is read-only."""
    key = name.upper()
    if key not in BUILTIN_ARITY:
        raise LqcError(f"unknown gate name {name!r}")
    if key in PARAMETRIC:
        if param is None:
            raise LqcError(f"gate {key} requires a parameter")
        mat = boost(param) if key == "BOOST" else phase_gate(param)
    elif param is not None:
        raise LqcError(f"gate {key} takes no parameter")
    else:
        fixed = {
            "H": _H, "T": _T, "TAU": _TAU, "X": _X, "Y": _Y, "Z": _Z,
            "SZ": _SZ, "SZD": _SZD, "CZ": _CZ,
        }
        mat = fixed[key].copy()
    mat.setflags(write=False)
    return mat


def isometry_residual(G: np.ndarray, eta: np.ndarray) -> float:
    """Max-norm of G^dagger eta G - eta; eta given as a sign vector or diagonal matrix."""
    G = np.asarray(G, dtype=complex)
    eta = np.asarray(eta)
    if eta.ndim == 2:
        eta = np.diagonal(eta)
    if G.shape[0] != G.shape[1] or G.shape[0] != eta.shape[0]:
        raise LqcError(f"shape mismatch: gate {G.shape}, metric {eta.shape}")
    resid = (G.conj().T * eta) @ G - np.diag(eta.astype(complex))
    return float(np.max(np.abs(resid)))


def is_isometry(G: np.ndarray, eta: np.ndarray) -> tuple[bool, float]:
    """Whether G preserves the metric eta, plus the residual either way."""
    resid = isometry_residual(G, eta)
    return resid <= EPS_ISO, resid


def controlled(G: np.ndarray, k: int) -> np.ndarray:
    """Lift G to k control bits: identity except on the all-ones control
    pattern, where G acts."""
    if k < 1:
        raise LqcError("control count must be >= 1")
    G = np.asarray(G, dtype=complex)
    d = G.shape[0]
    out = np.eye((1 << k) * d, dtype=complex)
    out[-d:, -d:] = G
    return out


def random_isometry_for_signs(signs: Sequence[float], seed: int) -> np.ndarray:
    """Haar-flavored random element preserving an arbitrary +-1 diagonal metric,
    via exp(-i eta Hherm). Deterministic per seed."""
    signs = np.asarray(signs, dtype=float)
    d = signs.shape[0]
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = (raw + raw.conj().T) / 2
    return scipy.linalg.expm(-1j * (signs[:, None] * herm))


def random_lorentz(m: int, n: int, seed: int) -> np.ndarray:
    """Random element of U(m, n) for the block metric diag(+1 x m, -1 x n)."""
    if m + n < 1:
        raise LqcError("need at least one dimension")
    return random_isometry_for_signs(block_metric(m, n), seed)


def block_metric(m: int, n: int) -> np.ndarray:
    """Sign vector of the block metric diag(+1 x m, -1 x n)."""
    return np.concatenate([np.ones(m), -np.ones(n)])


# ---------------------------------------------------------------------------
# Shared matrix text format: header "dim m n" giving the block-metric
# signature, then (m+n) rows of (m+n) entries "re,im" separated by
# whitespace. '#' starts a comment. Interleaved register metrics are not
# expressible here; circuits carry those.

class MatrixTextError(LqcError):
    pass


def parse_matrix_text(text: str) -> tuple[np.ndarray, tuple[int, int]]:
    rows: list[list[complex]] = []
    header: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 3 or fields[0].lower() != "dim":
                raise MatrixTextError(f"line {lineno}: expected header 'dim m n'")
            try:
                m, n = int(fields[1]), int(fields[2])
            except ValueError:
                raise MatrixTextError(f"line {lineno}: metric counts must be integers")
            if m < 0 or n < 0 or m + n < 1:
                raise MatrixTextError(f"line {lineno}: bad metric signature ({m}, {n})")
            header = (m, n)
            continue
        row = []
        for field in fields:
            parts = field.split(",")
            if len(parts) != 2:
                raise MatrixTextError(f"line {lineno}: entry {field!r} is not 're,im'")
            try:
                row.append(complex(float(parts[0]), float(parts[1])))
            except ValueError:
                raise MatrixTextError(f"line {lineno}: bad number in {field!r}")
        rows.append(row)
    if header is None:
        raise MatrixTextError("empty matrix file")
    dim = header[0] + header[1]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise MatrixTextError(f"expected {dim} rows of {dim} entries")
    return np.array(rows, dtype=complex), header


def format_matrix_text(matrix: np.ndarray, m: int, n: int) -> str:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (m + n, m + n):
        raise MatrixTextError(f"matrix shape {matrix.shape} does not match dim {m + n}")
    lines = [f"dim {m} {n}"]
    for row in matrix:
        lines.append(" ".join(f"{e.real:.17g},{e.imag:.17g}" for e in row))
    return "\n".join(lines) + "\n"
