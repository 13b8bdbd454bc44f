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


def boost(chi: float) -> np.ndarray:
    """Hyperbolic rotation [[cosh chi, sinh chi], [sinh chi, cosh chi]]."""
    ch, sh = np.cosh(chi), np.sinh(chi)
    return np.array([[ch, sh], [sh, ch]], dtype=complex)


def phase_gate(phi: float) -> np.ndarray:
    return np.diag([1.0 + 0j, np.exp(1j * phi)])


#: The one gate table: the matrix of each fixed builtin, and the matrix
#: function of each builtin that takes a parameter.
_FIXED = {
    "H": np.array([[1, 1], [1, -1]]) / SQRT2,
    # pi/8 gate written with its overall phase, so the matrix is diag(1, e^{-i pi/4})
    "T": np.exp(-1j * np.pi / 8) * np.diag([np.exp(1j * np.pi / 8), np.exp(-1j * np.pi / 8)]),
    "TAU": np.array([[SQRT2, 1j], [1j, -SQRT2]]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
    "SZ": np.diag([1.0 + 0j, 1j]),  # Z^{1/2}
    "SZD": np.diag([1.0 + 0j, -1j]),  # Z^{-1/2}
    "CZ": np.diag([1.0 + 0j, 1, 1, -1]),
}
PARAMETRIC = {"BOOST": boost, "PHASE": phase_gate}
#: Target count of every builtin.
BUILTIN_ARITY = {k: len(m).bit_length() - 1 for k, m in _FIXED.items()} | dict.fromkeys(PARAMETRIC, 1)


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
        mat = PARAMETRIC[key](param)
    elif param is not None:
        raise LqcError(f"gate {key} takes no parameter")
    else:
        mat = _FIXED[key].copy()
    mat.setflags(write=False)
    return mat


def isometry_residual(G: np.ndarray, eta: np.ndarray) -> float | np.ndarray:
    """Max-norm of G^dagger eta G - eta, for one gate or a stack of them.

    One square G takes eta as a sign vector or diagonal matrix and gives a
    float. A stack G of shape (m, d, d) takes one sign vector for all, or
    an (m, d) stack of them, and gives the m residuals as an array, each
    equal to the residual of its gate alone. A residual that is not finite,
    as when G has a NaN or infinite entry, is inf, so that every
    `resid > EPS_*` check refuses G."""
    G = np.asarray(G, dtype=complex)
    eta = np.asarray(eta)
    single = G.ndim == 2
    if single and eta.ndim == 2:
        eta = np.diagonal(eta)
    stack = G[None] if single else G
    m, d = stack.shape[0], stack.shape[-1]
    if stack.ndim != 3 or stack.shape[1] != d or eta.shape not in ((d,), (m, d)):
        raise LqcError(f"shape mismatch: gate {G.shape}, metric {eta.shape}")
    # a non-finite or huge entry overflows here; the result says so, not numpy
    with np.errstate(all="ignore"):
        resid = (stack.conj().swapaxes(1, 2) * eta[..., None, :]) @ stack
        resid.reshape(m, d * d)[:, :: d + 1] -= eta  # the diagonal of each
        worst = np.abs(resid).max(axis=(1, 2))
    worst[~np.isfinite(worst)] = np.inf
    return float(worst[0]) if single else worst


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


def parse_entry(token: str) -> complex:
    """One matrix entry written 're,im', in this format and in DEFGATE rows."""
    parts = token.split(",")
    if len(parts) != 2:
        raise MatrixTextError(f"entry {token!r} is not 're,im'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise MatrixTextError(f"bad number in {token!r}") from None


def format_row(row) -> str:
    """One matrix row of 're,im' entries that `parse_entry` reads back exactly."""
    return " ".join(f"{e.real:.17g},{e.imag:.17g}" for e in row)


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
        try:
            rows.append([parse_entry(field) for field in fields])
        except MatrixTextError as exc:
            raise MatrixTextError(f"line {lineno}: {exc}") from None
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
    lines = [f"dim {m} {n}"] + [format_row(row) for row in matrix]
    return "\n".join(lines) + "\n"
