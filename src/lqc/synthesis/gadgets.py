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
from a trace-matching conjugacy inside U(1,1). A gate that is an
involution with det -1 (X, H, TAU, ...) is first conjugated into a
controlled Z by two single-bit gates, which keeps the expansion of the
common controlled flips short.

Controls are only ever touched diagonally, so every construction is valid
for any mixture of qubit and hybit control wires.
"""
from __future__ import annotations

import numpy as np

from ..core import (
    EPS_DEGENERATE, EPS_EIGEN_MATCH, EPS_IDENTITY, EPS_ISO, EPS_RECON, EPS_SCALAR_SQUARE,
    EPS_TARGET_ISO, EPS_ZERO, MIN_PARTNER_MARGIN, BitKind, IsometryError, LqcError, RegisterLayout,
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


def _sphere_points(count: int) -> np.ndarray:
    # deterministic golden-spiral covering of S^2
    k = np.arange(count)
    z = 1.0 - 2.0 * (k + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def _kernel(A: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the kernel of A. A singular value s
    counts toward the rank when s > eps * max(M, N) * s_max, the rule of
    scipy.linalg.null_space."""
    _, sv, vh = np.linalg.svd(A)
    rank = int(np.sum(sv > np.finfo(float).eps * max(A.shape) * sv.max(initial=0.0)))
    return vh[rank:].conj().T


def _hyperbolic_partner(U0: np.ndarray, s: float) -> np.ndarray | None:
    """Hyperbolic M in SU(1,1) with tr(M (U0^2 - sI)) = 0, or None.

    The SU(1,1) span {[[z, g], [conj g, conj z]]} is parametrized by
    x = (Re z, Im z, Re g, Im g); the trace condition is one real linear
    constraint, so its kernel is searched over a deterministic sphere.
    """
    W = U0 @ U0 - s * _I2
    w = W[0, 0]
    q = W[0, 1]
    row = np.array([[w.real, -w.imag, q.real, q.imag]])
    kernel = _kernel(row)
    if kernel.shape[1] < 3:
        return None
    best = None
    best_margin = 0.0
    for u in _sphere_points(512):
        x = kernel[:, :3] @ u
        z = x[0] + 1j * x[1]
        g = x[2] + 1j * x[3]
        qform = abs(z) ** 2 - abs(g) ** 2
        hyper = z.real**2 - qform  # (Re z)^2 > qform after scaling
        margin = min(qform, hyper)
        if margin > best_margin:
            best_margin = margin
            best = (z, g)
    if best is None or best_margin < MIN_PARTNER_MARGIN:
        return None
    z, g = best
    scale = 1.0 / np.sqrt(abs(z) ** 2 - abs(g) ** 2)
    z *= scale
    g *= scale
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
    """Factors (A,B,C,D,psi) for U in U(1,1), or None when the trace
    search finds no well-conditioned hyperbolic partner."""
    det = _det2(U)
    phi = np.angle(det) / 2.0
    U0 = np.exp(-1j * phi) * U
    U0sq = U0 @ U0
    for s in (1.0, -1.0):
        if np.max(np.abs(U0sq - s * _I2)) < EPS_SCALAR_SQUARE:
            psi = float(np.angle(s * np.exp(2j * phi)))
            return _I2, _I2, U.copy(), U.copy(), psi
    for s in (1.0, -1.0):
        M = _hyperbolic_partner(U0, s)
        if M is None:
            continue
        X = U0 @ M @ U0
        try:
            K = _isotropic_conjugator(X, s * M)
        except LqcError:
            continue
        if np.max(np.abs(K)) > 100.0:
            continue
        psi = float(np.angle(s * np.exp(2j * phi)))
        return K, np.linalg.inv(M), U @ np.linalg.inv(K), U @ M, psi
    return None


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


def _w_factor_sets(U: np.ndarray, kind: BitKind) -> list[tuple]:
    """One or two factor sets whose W-products compose to W(U), each
    checked against the block it must realize."""
    targets = [U]
    if kind is BitKind.QUBIT:
        sets = [_unitary_w_factors(U)]
    else:
        sets = [_su11_w_factors(U)]
        if sets[0] is None:
            # pathological argument: split through a fixed generic element
            P = builtin("BOOST", 0.6) @ np.diag(np.exp([0.35j, -0.35j]))
            targets = [P, U @ np.linalg.inv(P)]
            sets = [_su11_w_factors(T) for T in targets]
            if any(factors is None for factors in sets):
                raise LqcError("hybit W-gadget factor search failed")
    eta = metric_for_kinds([kind])
    for target, factors in zip(targets, sets):
        _verify_w_factors(target, factors, eta)
    return sets


def _involution_basis(U: np.ndarray, kind: BitKind) -> np.ndarray | None:
    """V with U = V diag(1,-1) V^{-1} and V isometric, when U^2 = I and
    det U = -1; None otherwise."""
    if np.max(np.abs(U @ U - _I2)) > EPS_IDENTITY or abs(_det2(U) + 1.0) > EPS_IDENTITY:
        return None
    vals, vecs = np.linalg.eig(U)
    order = np.argsort(-vals.real)  # eigenvalue +1 first
    vecs = vecs[:, order]
    if kind is BitKind.QUBIT:
        v1 = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        v2 = vecs[:, 1] / np.linalg.norm(vecs[:, 1])
        return np.stack([v1, v2], axis=1)
    n1 = (vecs[:, 0].conj() @ (_ETA_H * vecs[:, 0])).real
    n2 = (vecs[:, 1].conj() @ (_ETA_H * vecs[:, 1])).real
    if n1 <= EPS_DEGENERATE or n2 >= -EPS_DEGENERATE:
        # the +1 eigenvector must carry the positive metric norm for the
        # sandwich to stay in U(1,1); otherwise fall back to the gadget
        return None
    v1 = vecs[:, 0] / np.sqrt(n1)
    v2 = vecs[:, 1] / np.sqrt(-n2)
    return np.stack([v1, v2], axis=1)


# ---------------------------------------------------------------------------
# Instruction emission


class _Emitter:
    """Emits the instructions of one circuit, naming each new DEFGATE
    matrix U0, U1, ... in the order it is first emitted."""

    _RECOGNIZED = ("Z", "X", "SZ", "SZD", "H", "T", "TAU")
    # their matrices, in that order, for one comparison per emitted gate
    _RECOGNIZED_STACK = np.stack([builtin(name) for name in _RECOGNIZED])
    _RECOGNIZED_STACK.flags.writeable = False

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self._by_key: dict[bytes, tuple[str, np.ndarray]] = {}

    def _gate_name(self, M: np.ndarray) -> tuple[str, float | None, np.ndarray | None]:
        """(name, param, DEFGATE matrix or None for a builtin) of M; the
        first recognized builtin within EPS_ZERO names it."""
        match = np.abs(M - self._RECOGNIZED_STACK).max(axis=(1, 2)) < EPS_ZERO
        if match.any():
            return self._RECOGNIZED[match.argmax()], None, None
        if abs(M[0, 1]) < EPS_ZERO and abs(M[1, 0]) < EPS_ZERO and abs(M[0, 0] - 1) < EPS_ZERO:
            return "PHASE", float(np.angle(M[1, 1])), None
        if (
            np.max(np.abs(M.imag)) < EPS_ZERO
            and abs(M[0, 0] - M[1, 1]) < EPS_ZERO
            and abs(M[0, 1] - M[1, 0]) < EPS_ZERO
            and abs(M[0, 0].real ** 2 - M[0, 1].real ** 2 - 1) < EPS_IDENTITY
            and M[0, 0].real > 0
        ):
            return "BOOST", float(np.arcsinh(M[0, 1].real)), None
        key = (np.round(M, 12) + 0.0).tobytes()
        if key not in self._by_key:
            self._by_key[key] = (f"U{len(self._by_key)}", M.astype(complex))
        name, matrix = self._by_key[key]
        return name, None, matrix

    def emit(self, pattern: dict[int, int], target: int, M: np.ndarray) -> list[Instruction]:
        """M on `target` where every position of `pattern` holds its value."""
        if np.max(np.abs(M - _I2)) < EPS_ZERO:
            return []
        name, param, matrix = self._gate_name(M)
        controls = tuple(sorted(pattern))
        return [
            Instruction(
                gate=name,
                targets=(target,),
                controls=controls,
                param=param,
                matrix=matrix,
                ctrl_state=tuple(pattern[c] for c in controls),
            )
        ]


def _lambda_rec(em: _Emitter, controls: list[int], target: int, V: np.ndarray) -> list[Instruction]:
    if np.max(np.abs(V - _I2)) < EPS_ZERO:
        return []
    if len(controls) == 1:
        return em.emit(dict.fromkeys(controls, 1), target, V)
    kind = em.layout.kinds[target]

    # involutions with det -1 conjugate to a plain controlled Z
    basis = _involution_basis(V, kind)
    if basis is not None and np.max(np.abs(basis - _I2)) > EPS_IDENTITY:
        out = em.emit({}, target, np.linalg.inv(basis))
        out += _lambda_rec(em, controls, target, builtin("Z"))
        out += em.emit({}, target, basis)
        return out

    G = controls[:-2]
    a, b = controls[-2], controls[-1]

    R = isometric_sqrt(V)
    U = np.linalg.inv(R)

    out: list[Instruction] = []
    # W(U) as four alternating factors plus a phase corrector
    for factors in _w_factor_sets(U, kind):
        A, B, C, D, psi = factors
        out += _lambda_rec(em, G + [a], target, A)
        out += _lambda_rec(em, G + [b], target, B)
        out += _lambda_rec(em, G + [a], target, C)
        out += _lambda_rec(em, G + [b], target, D)
        if abs(psi) > EPS_ZERO:
            corrector = np.diag([1.0, np.exp(-1j * psi)]).astype(complex)
            out += _lambda_rec(em, G + [a], b, corrector)

    # the two controlled square roots
    out += _lambda_rec(em, G + [b], target, R)
    out += _lambda_rec(em, G + [a], target, R)
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
    em = _Emitter(layout)
    instrs = _lambda_rec(em, list(range(k)), target, V)
    return Circuit(layout, tuple(instrs))

