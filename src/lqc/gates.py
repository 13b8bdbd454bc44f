"""Builtin gate matrices, the isometry residual, and controlled lifts.

Gate matrices are plain complex numpy arrays of shape (2^arity, 2^arity);
metrics are +-1 sign vectors (see `core.metric_for_kinds`). A gate G is
admissible on a set of bits iff G^dagger eta G = eta for the tensor-product
metric eta of those bits.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np
import scipy

from .core import LqcError

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
        # an overflowing parameter reads as residual inf, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            mat = PARAMETRIC[key](param)
    elif param is not None:
        raise LqcError(f"gate {key} takes no parameter")
    else:
        mat = _FIXED[key].copy()
    mat.setflags(write=False)
    return mat


def isometry_residual(G: np.ndarray, eta: np.ndarray) -> float | np.ndarray:
    """Max-norm of G^dagger eta G - eta, for one gate or a stack of them.

    One square G takes eta as a sign vector and gives a float. A stack G of
    shape (m, d, d) takes one sign vector for all, or an (m, d) stack of
    them, and gives the m residuals as an array, each equal to the residual
    of its gate alone. Every metric entry must be +-1. A residual that is
    not finite, as when G has a NaN or infinite entry, is inf, so that
    every `resid > EPS_*` check refuses G."""
    G = np.asarray(G, dtype=complex)
    eta = np.asarray(eta)
    single = G.ndim == 2
    stack = G[None] if single else G
    m, d = stack.shape[0], stack.shape[-1]
    if stack.ndim != 3 or stack.shape[1] != d or eta.shape not in ((d,), (m, d)):
        raise LqcError(f"shape mismatch: gate {G.shape}, metric {eta.shape}")
    if not (np.abs(eta) == 1).all():
        raise LqcError("metric entries must be +-1")
    # a non-finite or huge entry overflows here; the result says so, not numpy
    with np.errstate(all="ignore"):
        resid = (stack.conj().swapaxes(1, 2) * eta[..., None, :]) @ stack
        resid.reshape(m, d * d)[:, :: d + 1] -= eta  # the diagonal of each
        worst = np.abs(resid).max(axis=(1, 2))
    worst[~np.isfinite(worst)] = np.inf
    return float(worst[0]) if single else worst


def random_isometry_for_signs(signs: Sequence[float], seed: int) -> np.ndarray:
    """Haar-flavored random element preserving an arbitrary +-1 diagonal metric,
    via exp(-i eta Hherm). Deterministic per seed."""
    signs = np.asarray(signs, dtype=float)
    d = signs.shape[0]
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = (raw + raw.conj().T) / 2
    return scipy.linalg.expm(-1j * (signs[:, None] * herm))


def block_metric(m: int, n: int) -> np.ndarray:
    """Sign vector of the block metric diag(+1 x m, -1 x n)."""
    return np.concatenate([np.ones(m), -np.ones(n)])
