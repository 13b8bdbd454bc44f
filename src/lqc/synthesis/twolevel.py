"""Two-level factorization of register isometries and lowering to circuits.

A two-level matrix b_{i,j}(V) acts as the 2x2 block V on basis indices i, j
and as the identity elsewhere. Any register isometry factors into such
matrices by column elimination (Vartiainen, Mottonen and Salomaa, PRL 92,
177902, 2004) under the register metric. Columns are cleared in order of
how many hybits are set in their index. For column c, Givens rotations
collapse each sign class of the unfinished rows along a breadth-first tree,
c's own class into c and the other into x, c with one unset hybit set; one
U(1,1) element clears x against c. Leftover phases are absorbed.

The elimination is the one place that decides which pairs a factor joins,
and every pair it joins lowers directly: one bit apart is a single-bit gate
controlled on every other bit (the shared bits are the trigger values); an
equal-sign pair two hybits apart is the four-matrix identity for metric
(+,+,-), U(1,1) elements on (i,k) and (j,k) with k one hybit flip from i;
a diagonal block is one phase per index. Lowering refuses any other pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (
    EPS_DEGENERATE, EPS_IDENTITY, EPS_ISO, EPS_PHASE_ONE, EPS_RECON, EPS_SMALL_ZETA, EPS_ZERO,
    IsometryError, LqcError, RegisterLayout, metric_vector,
)
from ..gates import block_metric, builtin, isometry_residual
from ..circuit import Circuit, Instruction
from .gadgets import _Emitter, isometric_sqrt


@dataclass(frozen=True, eq=False)
class TwoLevelFactor:
    """b_{i,j}(V): V on the span of basis indices i < j, identity elsewhere.

    The first row/column of V belongs to index i. metric_pair holds the
    register metric signs (eta_ii, eta_jj)."""

    i: int
    j: int
    V: np.ndarray = field(repr=False)
    metric_pair: tuple[int, int]

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise LqcError(f"need 0 <= i < j, got ({self.i}, {self.j})")
        V = np.asarray(self.V, dtype=complex)
        object.__setattr__(self, "V", V)
        if V.shape != (2, 2):
            raise LqcError("two-level block must be 2x2")
        eta = np.array(self.metric_pair, dtype=float)
        if abs(eta[0]) != 1 or abs(eta[1]) != 1:
            raise LqcError("metric_pair entries must be +-1")
        resid = isometry_residual(V, eta)
        if resid > EPS_RECON:
            raise IsometryError(
                f"two-level block violates its pair metric (residual {resid:.3g})"
            )


def embed(factor: TwoLevelFactor, dim: int) -> np.ndarray:
    """Dense ambient matrix of a two-level factor."""
    if factor.j >= dim:
        raise LqcError(f"factor indices ({factor.i},{factor.j}) exceed dimension {dim}")
    out = np.eye(dim, dtype=complex)
    ij = (factor.i, factor.j)
    out[np.ix_(ij, ij)] = factor.V
    return out


def _metric_signs(metric, dim: int) -> np.ndarray:
    if isinstance(metric, tuple) and len(metric) == 2 and all(
        isinstance(x, (int, np.integer)) for x in metric
    ):
        m, n = metric
        if m + n != dim:
            raise LqcError(f"metric ({m},{n}) does not match dimension {dim}")
        return block_metric(m, n)
    s = np.asarray(metric, dtype=float)
    if s.shape != (dim,) or not np.all(np.abs(s) == 1):
        raise LqcError("metric must be (m, n) or a +-1 sign vector of full length")
    return s


def _pair_inverse(M: np.ndarray, eta: np.ndarray) -> np.ndarray:
    # inverse of an isometry through its metric: M^-1 = eta M^dagger eta
    return (eta[:, None] * M.conj().T) * eta[None, :]


class Factorization(list):
    """Two-level factors F_1, ..., F_t in product order, with `error`, the
    max-norm distance of F_1 @ ... @ F_t from the input as checked once by
    `two_level_factorize`."""

    def __init__(self, factors, error: float):
        super().__init__(factors)
        self.error = error


def _tree(root: int, members: set[int], moves: list[int]) -> list[tuple[int, int]]:
    """(parent, row) edges of a breadth-first tree over members from root,
    each a pair `moves` reaches; a row no move reaches hangs from root."""
    edges, queue, seen = [], [root], {root}
    for p in queue:  # the queue grows while it is walked
        for r in (p ^ m for m in moves):
            if r in members and r not in seen:
                seen.add(r)
                edges.append((p, r))
                queue.append(r)
    return edges + [(root, r) for r in sorted(members - seen)]


def _trusted_factor(i: int, j: int, V: np.ndarray, metric_pair: tuple[int, int]) -> TwoLevelFactor:
    """TwoLevelFactor(...) for a block already checked against its pair metric."""
    f = object.__new__(TwoLevelFactor)
    f.__dict__.update(i=i, j=j, V=V, metric_pair=metric_pair)
    return f


def two_level_factorize(A: np.ndarray, metric) -> Factorization:
    """Ordered factors with A = F_1 @ F_2 @ ... @ F_t within EPS_RECON.

    metric is either a block signature (m, n) or a per-index sign vector,
    so interleaved register metrics work directly. Factor count is at most
    d(d-1)/2. On a register metric every factor is directly lowerable: its
    pair is one bit apart, or two hybits apart with equal signs, or its
    block is diagonal. Every block is checked against its pair metric in
    one pass, and the product is rebuilt once, each factor as an update of
    two columns (O(d^3) in all); its max-norm error is returned as `.error`.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise LqcError("input must be a square matrix")
    d = A.shape[0]
    s = _metric_signs(metric, d)
    resid = isometry_residual(A, s)
    if resid > EPS_ISO:
        raise IsometryError(f"input is not an isometry (residual {resid:.3g})")
    if d == 1:
        err = abs(A[0, 0] - 1)
        if err > EPS_IDENTITY:
            raise LqcError("dimension-1 input must be the identity scalar")
        return Factorization([], float(err))

    work = A.copy()
    ops: list[tuple[int, int, np.ndarray]] = []  # (x, y, M): work <- b_{x,y}(M) work

    def apply_left(x: int, y: int, M: np.ndarray) -> None:
        work[[x, y], :] = M @ work[[x, y], :]
        ops.append((x, y, M))

    # same-sign pairs that lower directly: one bit apart, or two hybits apart,
    # where a hybit is an index bit whose flip flips every sign (only a
    # register metric has them)
    idx, bits = np.arange(d), [1 << b for b in range((d - 1).bit_length())]
    hybits = [w for w in bits if d == 2 * bits[-1] and np.all(s[idx ^ w] == -s)]
    hmask = sum(hybits)
    moves = bits + [a | b for n, a in enumerate(hybits) for b in hybits[n + 1:]]
    # columns by hybit count, so that c with one more hybit set is unfinished
    order = sorted(range(d), key=lambda r: ((r & hmask).bit_count(), r))
    for n, c in enumerate(order):
        own = {r for r in order[n:] if s[r] == s[c]}
        other = {r for r in order[n:] if s[r] != s[c]}
        x = next((c | w for w in hybits if not c & w), min(other, default=None))
        for root, block in ((c, own), (x, other)):
            for parent, r in reversed(_tree(root, block, moves) if block else []):
                vp, vi = work[parent, c], work[r, c]
                if abs(vi) <= EPS_ZERO:
                    continue
                rr = np.sqrt(abs(vp) ** 2 + abs(vi) ** 2)
                M = np.array([[np.conj(vp), np.conj(vi)], [-vi, vp]]) / rr
                apply_left(parent, r, M)

        if other and abs(work[x, c]) > EPS_ZERO:
            p_pivot, n_pivot = (c, x) if s[c] > 0 else (x, c)
            vp, vn = work[p_pivot, c], work[n_pivot, c]
            # the pivot's own block must carry the larger share of the column
            r2 = s[c] * (abs(vp) ** 2 - abs(vn) ** 2)
            if r2 <= EPS_DEGENERATE:
                raise LqcError("numerical breakdown in cross-block elimination")
            rr = np.sqrt(r2)
            if s[c] > 0:
                M = np.array([[np.conj(vp), -np.conj(vn)], [-vn, vp]]) / rr
            else:
                M = np.array([[vn, -vp], [-np.conj(vp), np.conj(vn)]]) / rr
            apply_left(p_pivot, n_pivot, M)

    # invert the recorded eliminations: A = inv(op_1) ... inv(op_t) D
    raw: list[tuple[int, int, np.ndarray]] = []
    for x, y, M in ops:
        eta = np.array([s[x], s[y]])
        raw.append((x, y, _pair_inverse(M, eta)))

    # absorb the diagonal residue into the rightmost factor touching each
    # index; a genuinely untouched index gets a fresh diagonal factor paired
    # with its low-bit neighbor
    for c in range(d):
        ph = work[c, c]
        if abs(ph - 1) <= EPS_PHASE_ONE:
            continue
        for t in range(len(raw) - 1, -1, -1):
            x, y, M = raw[t]
            if c in (x, y):
                M = M.copy()
                M[:, 0 if x == c else 1] *= ph
                raw[t] = (x, y, M)
                break
        else:
            partner = c ^ 1
            if partner >= d:
                raise LqcError("cannot absorb phase: no pairing index")
            M = np.diag([ph, 1.0]) if c < partner else np.diag([1.0, ph])
            raw.append((min(c, partner), max(c, partner), M.astype(complex)))

    # one check of every block against its pair metric, then trusted factors
    pairs = np.array([sorted((x, y)) for x, y, _ in raw], dtype=int).reshape(-1, 2)
    V = np.array([M if x < y else M[::-1, ::-1] for x, y, M in raw]).reshape(-1, 2, 2)
    eta = s[pairs]
    resid = float(isometry_residual(V, eta).max(initial=0.0))
    if resid > EPS_RECON:
        raise IsometryError(f"a two-level block violates its pair metric (residual {resid:.3g})")
    factors = [
        _trusted_factor(int(i), int(j), Vt, (int(a), int(b)))
        for (i, j), Vt, (a, b) in zip(pairs, V, eta)
    ]

    recon = np.eye(d, dtype=complex)
    for f in factors:
        ij = [f.i, f.j]
        recon[:, ij] = recon[:, ij] @ f.V
    err = float(np.max(np.abs(recon - A)))
    if not err <= EPS_RECON:  # a NaN error fails too
        raise LqcError(f"factorization reconstruction error {err:.3g}")
    return Factorization(factors, err)


# ---------------------------------------------------------------------------
# Lowering to multi-controlled instructions


def _bit_at(layout: RegisterLayout, index: int, pos: int) -> int:
    return (index >> (layout.num_bits - 1 - pos)) & 1


def _direct_pair(em: _Emitter, x: int, y: int, W: np.ndarray) -> list[Instruction]:
    """b_{x,y}(W) for Hamming-distance-1 indices; W's first slot belongs
    to x. One instruction, controlled on the bits that x and y share."""
    layout = em.layout
    diff = x ^ y
    p = layout.num_bits - diff.bit_length()  # position of the single set bit
    if _bit_at(layout, x, p) == 1:
        W = builtin("X") @ W @ builtin("X")
    pattern = {
        q: _bit_at(layout, x, q) for q in range(layout.num_bits) if q != p
    }
    return em.emit(pattern, p, W)


def _basis_phase(em: _Emitter, index: int, phase: complex) -> list[Instruction]:
    """Multiply basis state |index> by a unit phase: one diagonal gate on
    a bit of the index, controlled on the other bits' values."""
    if abs(phase - 1) <= EPS_ZERO:
        return []
    layout = em.layout
    nbits = layout.num_bits
    ones = [q for q in range(nbits) if _bit_at(layout, index, q) == 1]
    if ones:
        target = ones[0]
        gate = np.diag([1.0, phase]).astype(complex)
    else:
        target = nbits - 1
        gate = np.diag([phase, 1.0]).astype(complex)
    pattern = {q: _bit_at(layout, index, q) for q in range(nbits) if q != target}
    return em.emit(pattern, target, gate)


def _lower_factor(em: _Emitter, i: int, j: int, V: np.ndarray) -> list[Instruction]:
    """Gates of b_{i,j}(V) for a directly lowerable factor; LqcError names
    any other pair."""
    layout = em.layout
    if abs(V[0, 1]) < EPS_ZERO and abs(V[1, 0]) < EPS_ZERO:
        return _basis_phase(em, i, V[0, 0]) + _basis_phase(em, j, V[1, 1])

    diff = i ^ j
    if diff.bit_count() == 1:
        return _direct_pair(em, i, j, V)
    if diff.bit_count() != 2 or diff & ~layout.hybit_index_mask:
        kinds = "".join(layout.kinds)
        raise LqcError(f"pair ({i}, {j}) on register {kinds} is not directly lowerable")

    # equal signs two hybits apart: the metric (+,+,-) four-matrix identity
    # through k = i with the higher differing hybit flipped
    det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    delta = np.angle(det) / 2.0
    V0 = np.exp(-1j * delta) * V
    out = _basis_phase(em, i, np.exp(1j * delta)) + _basis_phase(em, j, np.exp(1j * delta))
    zeta = V0[0, 0]
    if abs(zeta) < EPS_SMALL_ZETA:
        # the identity divides by zeta; take two square-root passes instead
        R = isometric_sqrt(V0)
        half = _lower_factor(em, i, j, R)
        return out + half + half
    gamma = V0[0, 1]
    g = np.sqrt(1.0 + abs(gamma) ** 2)
    k = i ^ (1 << (diff.bit_length() - 1))
    zc = np.conj(zeta)
    gc = np.conj(gamma)
    s2 = np.sqrt(2.0)
    M1 = np.array([[g / zc, -s2 * gamma / zc], [-s2 * gc / zeta, g / zeta]])
    M2 = np.array([[s2, -1.0], [-1.0, s2]], dtype=complex)
    M3 = np.array([[g, gamma], [gc, g]])
    M4 = np.array([[s2 / zeta, g / zc], [g / zeta, s2 / zc]])
    out += _direct_pair(em, j, k, M4)
    out += _direct_pair(em, i, k, M3)
    out += _direct_pair(em, j, k, M2)
    out += _direct_pair(em, i, k, M1)
    return out


def two_level_to_circuit(factor: TwoLevelFactor, layout: RegisterLayout) -> Circuit:
    """Circuit of multi-controlled single-bit gates realizing one embedded
    two-level factor on the given register."""
    if factor.j >= layout.dimension:
        raise LqcError(
            f"factor on indices ({factor.i},{factor.j}) does not fit a "
            f"{layout.num_bits}-bit register"
        )
    want = tuple(metric_vector(layout)[[factor.i, factor.j]].tolist())
    if want != tuple(factor.metric_pair):
        raise LqcError(
            f"factor metric pair {factor.metric_pair} does not match the "
            f"register metric {want} at its indices"
        )
    em = _Emitter(layout)
    instrs = _lower_factor(em, factor.i, factor.j, factor.V)
    return Circuit(layout, tuple(instrs))
