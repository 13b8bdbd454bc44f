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
a diagonal block is one phase per index. `lower` turns the factors into
one circuit and refuses any other pair.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (
    EPS_DEGENERATE, EPS_IDENTITY, EPS_ISO, EPS_PHASE_ONE, EPS_RECON, EPS_SMALL_ZETA, EPS_ZERO,
    IsometryError, LqcError, RegisterLayout,
)
from ..gates import builtin, isometry_residual
from ..circuit import Circuit
from .gadgets import emit, isometric_sqrt, named_circuit


@dataclass(frozen=True, eq=False)
class TwoLevelFactor:
    """b_{i,j}(V): V on the span of basis indices i < j, identity elsewhere.

    The first row/column of V belongs to index i. `two_level_factorize`
    checks every block it makes against the metric at (i, j); `lower`
    refuses a factor made elsewhere whose gates would not fit the metric."""

    i: int
    j: int
    V: np.ndarray = field(repr=False)


def _pair_inverses(M: np.ndarray, eta: np.ndarray) -> np.ndarray:
    # inverses of a stack of isometries through their metrics:
    # M^-1 = eta M^dagger eta
    return (eta[:, :, None] * M.conj().transpose(0, 2, 1)) * eta[:, None, :]


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


def two_level_factorize(A: np.ndarray, signs) -> Factorization:
    """Ordered factors with A = F_1 @ F_2 @ ... @ F_t within EPS_RECON.

    signs is the +-1 metric sign of each index (`metric_vector(layout)`,
    or `block_metric(m, n)` for a signature). Factor count is at most
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
    s = np.asarray(signs, dtype=float)
    resid = isometry_residual(A, s)
    if resid > EPS_ISO:
        raise IsometryError(f"input is not an isometry (residual {resid:.3g})")
    if d == 1:
        err = abs(A[0, 0] - 1)
        if err > EPS_IDENTITY:
            raise LqcError("dimension-1 input must be the identity scalar")
        return Factorization([], float(err))

    work = A.copy()
    # A = raw_1 ... raw_t D, each factor the inverse of one elimination of
    # work; raw holds the eliminations until they are inverted in one pass.
    # last[i] is the position in raw of the last factor touching i
    raw: list[tuple[int, int, np.ndarray]] = []
    last: dict[int, int] = {}

    def apply_left(x: int, y: int, M: np.ndarray) -> None:
        # rows x, y as a view, in that order also when x > y
        rows = work[x::y - x][:2]
        rows[...] = M @ rows
        last[x] = last[y] = len(raw)
        raw.append((x, y, M))

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

    xy = np.array([(x, y) for x, y, _ in raw], dtype=int).reshape(-1, 2)
    inverses = _pair_inverses(np.array([M for *_, M in raw]).reshape(-1, 2, 2), s[xy])
    raw = [(x, y, M) for (x, y, _), M in zip(raw, inverses)]

    # absorb the diagonal residue D into the last factor touching each
    # index; a genuinely untouched index gets a fresh diagonal factor paired
    # with its low-bit neighbor, or with c - 1 when it is the last index of
    # an odd dimension
    for c in range(d):
        ph = work[c, c]
        if abs(ph - 1) <= EPS_PHASE_ONE:
            continue
        if c in last:
            x, _, M = raw[last[c]]
            M[:, 0 if x == c else 1] *= ph
            continue
        partner = c ^ 1 if c ^ 1 < d else c - 1
        M = np.diag([ph, 1.0]) if c < partner else np.diag([1.0, ph])
        last[c] = last[partner] = len(raw)
        raw.append((min(c, partner), max(c, partner), M.astype(complex)))

    # one check of every block against its pair metric
    pairs = np.array([sorted((x, y)) for x, y, _ in raw], dtype=int).reshape(-1, 2)
    V = np.array([M if x < y else M[::-1, ::-1] for x, y, M in raw]).reshape(-1, 2, 2)
    eta = s[pairs]
    resid = float(isometry_residual(V, eta).max(initial=0.0))
    if resid > EPS_RECON:
        raise IsometryError(f"a two-level block violates its pair metric (residual {resid:.3g})")
    factors = [TwoLevelFactor(int(i), int(j), Vt) for (i, j), Vt in zip(pairs, V)]

    recon = np.eye(d, dtype=complex)
    for f in factors:
        cols = recon[:, f.i:f.j + 1:f.j - f.i]
        cols[...] = cols @ f.V
    err = float(np.max(np.abs(recon - A)))
    if not err <= EPS_RECON:  # a NaN error fails too
        raise LqcError(f"factorization reconstruction error {err:.3g}")
    return Factorization(factors, err)


# ---------------------------------------------------------------------------
# Lowering to multi-controlled instructions


def _bits(layout: RegisterLayout, index: int) -> list[int]:
    """The value of each register bit in basis index `index`, bit 0 first."""
    n = layout.num_bits
    return [(index >> (n - 1 - pos)) & 1 for pos in range(n)]


def _direct_pair(layout: RegisterLayout, x: int, y: int, W: np.ndarray) -> list[tuple]:
    """b_{x,y}(W) for Hamming-distance-1 indices; W's first slot belongs
    to x. One gate, controlled on the bits that x and y share."""
    bits = _bits(layout, x)
    p = layout.num_bits - (x ^ y).bit_length()  # position of the single set bit
    if bits[p] == 1:
        W = builtin("X") @ W @ builtin("X")
    return emit({q: v for q, v in enumerate(bits) if q != p}, p, W)


def _basis_phase(layout: RegisterLayout, index: int, phase: complex) -> list[tuple]:
    """Multiply basis state |index> by a unit phase: one diagonal gate on
    a bit of the index, controlled on the other bits' values."""
    if abs(phase - 1) <= EPS_ZERO:
        return []
    bits = _bits(layout, index)
    if 1 in bits:
        target = bits.index(1)
        gate = np.diag([1.0, phase]).astype(complex)
    else:
        target = len(bits) - 1
        gate = np.diag([phase, 1.0]).astype(complex)
    return emit({q: v for q, v in enumerate(bits) if q != target}, target, gate)


def _lower_factor(layout: RegisterLayout, i: int, j: int, V: np.ndarray) -> list[tuple]:
    """Gates of b_{i,j}(V) for a directly lowerable factor, as `emit`
    records; LqcError names any other pair."""
    if abs(V[0, 1]) < EPS_ZERO and abs(V[1, 0]) < EPS_ZERO:
        return _basis_phase(layout, i, V[0, 0]) + _basis_phase(layout, j, V[1, 1])

    diff = i ^ j
    if diff.bit_count() == 1:
        return _direct_pair(layout, i, j, V)
    if diff.bit_count() != 2 or diff & ~layout.hybit_index_mask:
        kinds = "".join(layout.kinds)
        raise LqcError(f"pair ({i}, {j}) on register {kinds} is not directly lowerable")

    # equal signs two hybits apart: the metric (+,+,-) four-matrix identity
    # through k = i with the higher differing hybit flipped
    det = V[0, 0] * V[1, 1] - V[0, 1] * V[1, 0]
    delta = np.angle(det) / 2.0
    V0 = np.exp(-1j * delta) * V
    zeta, gamma = V0[0, 0], V0[0, 1]
    # the gates realize V0 from its first row, which `Circuit` checks for
    # unit norm through M1, so V0 must have the second row of SU(2)
    off = max(abs(V0[1, 0] + np.conj(gamma)), abs(V0[1, 1] - np.conj(zeta)))
    if off > EPS_RECON:
        raise IsometryError(f"two-level block ({i}, {j}) is not unitary (off by {off:.3g})")
    out = _basis_phase(layout, i, np.exp(1j * delta)) + _basis_phase(layout, j, np.exp(1j * delta))
    if abs(zeta) < EPS_SMALL_ZETA:
        # the identity divides by zeta; take two square-root passes instead
        R = isometric_sqrt(V0)
        half = _lower_factor(layout, i, j, R)
        return out + half + half
    g = np.sqrt(1.0 + abs(gamma) ** 2)
    k = i ^ (1 << (diff.bit_length() - 1))
    zc = np.conj(zeta)
    gc = np.conj(gamma)
    s2 = np.sqrt(2.0)
    M1 = np.array([[g / zc, -s2 * gamma / zc], [-s2 * gc / zeta, g / zeta]])
    M2 = np.array([[s2, -1.0], [-1.0, s2]], dtype=complex)
    M3 = np.array([[g, gamma], [gc, g]])
    M4 = np.array([[s2 / zeta, g / zc], [g / zeta, s2 / zc]])
    out += _direct_pair(layout, j, k, M4)
    out += _direct_pair(layout, i, k, M3)
    out += _direct_pair(layout, j, k, M2)
    out += _direct_pair(layout, i, k, M1)
    return out


def lower(factors: list[TwoLevelFactor], layout: RegisterLayout) -> Circuit:
    """Circuit of multi-controlled single-bit gates realizing the product
    F_1 @ ... @ F_t of directly lowerable factors on the given register.

    Circuit time order is first-applied-first, so the rightmost factor
    comes first. The emitted gates are checked once, by `Circuit`."""
    dim = layout.dimension
    gates: list[tuple] = []
    for f in reversed(factors):
        if not (0 <= f.i < dim and 0 <= f.j < dim):
            raise LqcError(
                f"factor on indices ({f.i},{f.j}) does not fit a "
                f"{layout.num_bits}-bit register"
            )
        gates += _lower_factor(layout, f.i, f.j, f.V)
    return named_circuit(layout, gates)
