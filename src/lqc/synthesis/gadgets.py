"""Multi-controlled gate construction from singly-controlled gates.

A controlled gate with k+1 controls is reduced to gates with k controls:

    L_{a,b}(V) = L_a(R) . L_b(R) . W(R^{-1}),   R^2 = V

where L_x(.) abbreviates the gate controlled on the first k-1 controls plus
x, and W(U) applies U on the target exactly when a XOR b (and the shared
controls) fire. W itself is realized by four alternating k-control factors
plus one k-control phase corrector:

    W(U) = phase_fix . L_b(D) . L_a(C) . L_b(B) . L_a(A)

with C@A = D@B = U and D@C@B@A a pure phase. For a qubit target the
factors come from an eigenbasis swap of U; for a hybit target they come
from a trace-matching conjugacy inside U(1,1), against a hyperbolic
partner built in closed form at a few fixed rapidities.

Controls are only ever touched diagonally, so every construction is valid
for any mixture of qubit and hybit control wires.
"""
from __future__ import annotations

import numpy as np

from ..core import (
    EPS_DEGENERATE, EPS_EIGEN_MATCH, EPS_IDENTITY, EPS_ISO, EPS_RECON, EPS_SCALAR_SQUARE,
    EPS_TARGET_ISO, EPS_ZERO, BitKind, IsometryError, LqcError, RegisterLayout,
    metric_for_kinds,
)
from ..gates import builtin, isometry_residual
from ..circuit import Circuit, Instruction

_I2 = np.eye(2, dtype=complex)
_ETA_H = metric_for_kinds("h")


def _det2(M: np.ndarray) -> complex:
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def isometric_sqrt(V: np.ndarray) -> np.ndarray:
    """A square root of V lying in the same isometry group.

    Uses the 2x2 closed form sqrt(M) = (M + I)/sqrt(tr M + 2) after pulling
    out det and a possible sign so the trace has nonnegative real part.
    """
    V = np.asarray(V, dtype=complex)
    det = _det2(V)
    if abs(abs(det) - 1.0) > EPS_RECON:
        raise IsometryError("matrix is not an isometry (|det| != 1)")
    phi = np.angle(det)
    h = np.exp(-0.5j * phi)
    V0 = h * V
    sign = 1.0
    if V0.trace().real < 0:
        V0 = -V0
        sign = -1.0
    R0 = (V0 + _I2) / np.sqrt(V0.trace() + 2.0 + 0j)
    # R = c R0 with c^2 = conj(h) * sign restores the removed phase
    c = np.sqrt(np.conj(h) * sign + 0j)
    R = c * R0
    if np.max(np.abs(R @ R - V)) > EPS_ISO:
        raise LqcError("square-root construction failed")
    return R


# ---------------------------------------------------------------------------
# W-gadget factor solvers


def _unitary_w_factors(U: np.ndarray):
    """Factors (A,B,C,D,psi) for a unitary U via an eigenbasis swap.

    U is normal, so the orthogonal complement of an eigenvector v is
    invariant too: Q = [v, (-conj v1, conj v0)] diagonalizes U.
    """
    v = np.linalg.eig(U)[1][:, 0]
    v = v / np.linalg.norm(v)
    Q = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    swap = Q @ builtin("X") @ Q.conj().T
    return _I2, swap, U, U @ swap, float(np.angle(_det2(U)))


def _hyperbolic_partner(U0: np.ndarray, s: float, r: float) -> np.ndarray | None:
    """M in SU(1,1) with tr M = 2 cosh r and tr(U0^2 M) = s tr M, or None.

    In the basis e0 = iZ, e1 = X, e2 = -Y of traceless su(1,1), with
    tr(ei ej) = 2 J_ij and J = diag(-1, 1, 1), M = cosh(r) I + mu.e has
    det 1 when mu^T J mu = sinh(r)^2. For U0^2 = c I + nu.e and w = J nu the
    trace condition is w.mu = -cosh(r) (c - s), which fixes mu along w; the
    unit t orthogonal to w and e0 (so J t = t) carries the rest of the
    norm. None when w vanishes or that rest would be negative.
    """
    S = U0 @ U0
    # c and nu of the nearest [[z, g], [conj g, conj z]], read off both rows
    z, g = (S[0] + np.conj(S[1, ::-1])) / 2
    w = np.array([-z.imag, g.real, g.imag])
    norm = np.linalg.norm(w)
    if norm < EPS_DEGENERATE:
        return None
    w /= norm
    alpha = -np.cosh(r) * (z.real - s) / norm
    beta_sq = np.sinh(r) ** 2 - alpha**2 * (w[1] ** 2 + w[2] ** 2 - w[0] ** 2)
    if beta_sq < 0:
        return None
    t = np.array([0.0, w[2], -w[1]])  # w x e0, or e1 when w lies along e0
    t = t / np.linalg.norm(t) if np.linalg.norm(t) > EPS_DEGENERATE else np.array([0.0, 1.0, 0.0])
    mu = alpha * w + np.sqrt(beta_sq) * t
    z, g = np.cosh(r) + 1j * mu[0], mu[1] + 1j * mu[2]
    return np.array([[z, g], [np.conj(g), np.conj(z)]])


def _isotropic_conjugator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """K in U(1,1) with K X K^{-1} = Y for hyperbolic X, Y of equal trace."""

    def paired_columns(M):
        vals, vecs = np.linalg.eig(M)
        order = np.argsort(-np.abs(vals))
        vals = vals[order]
        vecs = vecs[:, order]
        v1 = vecs[:, 0]
        v2 = vecs[:, 1]
        cross = v1.conj() @ (_ETA_H * v2)
        if abs(cross) < EPS_DEGENERATE:
            raise LqcError("degenerate eigenvector pairing")
        return vals, np.stack([v1, v2 / cross], axis=1)

    xv, P = paired_columns(X)
    yv, Q = paired_columns(Y)
    if np.max(np.abs(xv - yv)) > EPS_EIGEN_MATCH:
        raise LqcError("conjugacy eigenvalue mismatch")
    K = Q @ np.linalg.inv(P)
    if isometry_residual(K, _ETA_H) > EPS_RECON:
        raise LqcError("conjugator left U(1,1)")
    return K


def _su11_w_factors(U: np.ndarray):
    """Factors (A,B,C,D,psi) for U in U(1,1), or None (refused by
    `_w_factors`) when no hyperbolic partner tried gives a conjugator.

    The partners have s = +-1 and rapidity 0.25, 0.5, 1 or 2 above 0 or
    above the rapidity chi of U0; of their factor sets the one with the
    smallest largest entry is kept, as the emitted gates inherit it."""
    phi = np.angle(_det2(U)) / 2.0
    U0 = np.exp(-1j * phi) * U
    for s in (1.0, -1.0):
        if np.max(np.abs(U0 @ U0 - s * _I2)) < EPS_SCALAR_SQUARE:
            return _I2, _I2, U.copy(), U.copy(), float(np.angle(s * np.exp(2j * phi)))
    chi = np.arccosh(max(1.0, abs(U0.trace()) / 2.0))
    best, best_size = None, np.inf
    for s in (1.0, -1.0):
        for r in [base + step for base in (0.0, chi) for step in (0.25, 0.5, 1.0, 2.0)]:
            M = _hyperbolic_partner(U0, s, r)
            if M is None:
                continue
            try:
                K = _isotropic_conjugator(U0 @ M @ U0, s * M)
            except LqcError:
                continue
            factors = (K, np.linalg.inv(M), U @ np.linalg.inv(K), U @ M)
            size = max(np.max(np.abs(F)) for F in factors)
            if size < best_size:
                best, best_size = (*factors, float(np.angle(s * np.exp(2j * phi)))), size
    return best


def _verify_w_factors(U, factors, eta):
    A, B, C, D, psi = factors
    for F in (A, B, C, D):
        if isometry_residual(F, eta) > EPS_RECON:
            raise LqcError("W-gadget factor is not an isometry")
    if np.max(np.abs(C @ A - U)) > EPS_RECON or np.max(np.abs(D @ B - U)) > EPS_RECON:
        raise LqcError("W-gadget block equations violated")
    resid = D @ C @ B @ A - np.exp(1j * psi) * _I2
    if np.max(np.abs(resid)) > EPS_RECON:
        raise LqcError("W-gadget residue is not a pure phase")


def _w_factors(U: np.ndarray, kind: BitKind) -> tuple:
    """The factor set (A,B,C,D,psi) of W(U), checked against U."""
    factors = _unitary_w_factors(U) if kind is BitKind.QUBIT else _su11_w_factors(U)
    if factors is None:
        raise LqcError("hybit W-gadget factor search failed")
    _verify_w_factors(U, factors, metric_for_kinds([kind]))
    return factors


# ---------------------------------------------------------------------------
# Instruction emission

# builtins a 2x2 gate is named by, first match first, and their matrices
_RECOGNIZED = ("Z", "X", "SZ", "SZD", "H", "T", "TAU")
_RECOGNIZED_STACK = np.stack([builtin(name) for name in _RECOGNIZED])
_RECOGNIZED_STACK.flags.writeable = False


def emit(pattern: dict[int, int], target: int, M: np.ndarray) -> list[tuple]:
    """The gate M on `target` where every position of `pattern` holds its
    value, as a (controls, trigger values, target, M) record that
    `named_circuit` names."""
    controls = tuple(sorted(pattern))
    return [(controls, tuple(pattern[c] for c in controls), target, M)]


def named_circuit(layout: RegisterLayout, gates: list[tuple]) -> Circuit:
    """The circuit of `emit` records, every gate named in one stacked pass:
    the first recognized builtin within EPS_ZERO, else PHASE or BOOST with
    its parameter, else a DEFGATE U0, U1, ... per distinct matrix (rounded
    to 12 decimals) in the order it is first emitted. Entry magnitudes are
    np.hypot, which is scalar abs() to the last bit."""
    if not gates:
        return Circuit(layout, ())
    Ms = np.array([g[3] for g in gates], dtype=complex)
    Ms.flags.writeable = False  # the U-gates' matrices are rows of it
    re, im = Ms.real, Ms.imag
    near = np.abs(Ms[:, None] - _RECOGNIZED_STACK).max(axis=(2, 3)) < EPS_ZERO
    phase = (
        (np.hypot(re[:, 0, 1], im[:, 0, 1]) < EPS_ZERO)
        & (np.hypot(re[:, 1, 0], im[:, 1, 0]) < EPS_ZERO)
        & (np.hypot(re[:, 0, 0] - 1, im[:, 0, 0]) < EPS_ZERO)
    )
    boost = (
        (np.abs(im).max(axis=(1, 2)) < EPS_ZERO)
        & (np.hypot(re[:, 0, 0] - re[:, 1, 1], im[:, 0, 0] - im[:, 1, 1]) < EPS_ZERO)
        & (np.hypot(re[:, 0, 1] - re[:, 1, 0], im[:, 0, 1] - im[:, 1, 0]) < EPS_ZERO)
        & (np.abs(re[:, 0, 0] ** 2 - re[:, 0, 1] ** 2 - 1) < EPS_IDENTITY)
        & (re[:, 0, 0] > 0)
    )
    # the first condition that holds picks the label: a builtin, PHASE,
    # BOOST, or None for a U-name
    labels = _RECOGNIZED + ("PHASE", "BOOST", None)
    which = np.select([near.any(axis=1), phase, boost], [near.argmax(axis=1), -3, -2], -1)
    keys = (np.round(Ms, 12) + 0.0).reshape(len(gates), 4).view(np.dtype((np.void, 64)))[:, 0]
    by_key: dict[bytes, tuple[str, np.ndarray]] = {}
    instrs = []
    for n, ((controls, state, target, M), w) in enumerate(zip(gates, which.tolist())):
        name, param, matrix = labels[w], None, None
        if name == "PHASE":
            param = float(np.angle(M[1, 1]))
        elif name == "BOOST":
            param = float(np.arcsinh(M[0, 1].real))
        elif name is None:
            key = keys[n].tobytes()
            if key not in by_key:
                by_key[key] = (f"U{len(by_key)}", Ms[n])
            name, matrix = by_key[key]
        instrs.append(Instruction(
            gate=name, targets=(target,), controls=controls,
            param=param, matrix=matrix, ctrl_state=state,
        ))
    return Circuit(layout, tuple(instrs))


def _lambda_rec(
    layout: RegisterLayout, controls: list[int], target: int, V: np.ndarray
) -> list[tuple]:
    if np.max(np.abs(V - _I2)) < EPS_ZERO:
        return []
    if len(controls) == 1:
        return emit(dict.fromkeys(controls, 1), target, V)

    G = controls[:-2]
    a, b = controls[-2], controls[-1]

    R = isometric_sqrt(V)
    U = np.linalg.inv(R)

    # W(U) as four alternating factors plus a phase corrector
    A, B, C, D, psi = _w_factors(U, layout.kinds[target])
    out = _lambda_rec(layout, G + [a], target, A)
    out += _lambda_rec(layout, G + [b], target, B)
    out += _lambda_rec(layout, G + [a], target, C)
    out += _lambda_rec(layout, G + [b], target, D)
    if abs(psi) > EPS_ZERO:
        corrector = np.diag([1.0, np.exp(-1j * psi)]).astype(complex)
        out += _lambda_rec(layout, G + [a], b, corrector)

    # the two controlled square roots
    out += _lambda_rec(layout, G + [b], target, R)
    out += _lambda_rec(layout, G + [a], target, R)
    return out


def lambda_k(k: int, V: np.ndarray, layout: RegisterLayout | None = None) -> Circuit:
    """Circuit realizing V on the last bit controlled on the first k bits.

    The register reads the first k bits as controls, bit k as target.
    layout defaults to all qubits (hybit target when V is only U(1,1)
    isometric); pass an explicit layout to choose control kinds.
    """
    if k < 1:
        raise LqcError("lambda_k needs k >= 1")
    V = np.asarray(V, dtype=complex)
    if V.shape != (2, 2):
        raise LqcError("lambda_k target gate must be 2x2")
    if layout is None:
        if isometry_residual(V, np.ones(2)) <= EPS_ISO:
            layout = RegisterLayout.of(k + 1, 0)
        elif isometry_residual(V, _ETA_H) <= EPS_ISO:
            layout = RegisterLayout("q" * k + "h")
        else:
            raise IsometryError("gate is neither unitary nor U(1,1)")
    if layout.num_bits != k + 1:
        raise LqcError(f"lambda_k with k={k} needs a {k + 1}-bit register")
    target = k
    eta = metric_for_kinds([layout.kinds[target]])
    resid = isometry_residual(V, eta)
    if resid > EPS_TARGET_ISO:
        raise IsometryError(
            f"gate is not isometric for the target kind (residual {resid:.3g})"
        )
    return named_circuit(layout, _lambda_rec(layout, list(range(k)), target, V))

