"""Single-bit word search over the compact generator pairs.

A qubit word is built from {H, T}; a hybit word from {TAU, T}. Breadth
first enumeration with projective dedup is enough at desk scale: reduced
words grow slowly (H and TAU square to the identity, T has finite order
up to phase), so the frontier stays small even at depth 20.

The search takes one level at a time. The frontier, the words of the last
length kept, is one (n, 2, 2) stack, and one gemm per generator over its
rows gives the next level's candidates: frontier-major, names in sorted
order. Each candidate the rule below keeps in play gets a key that is
equal for matrices that agree up to a global phase after rounding, and a
key seen on this or an earlier level drops it, so within a level the
first occurrence in that order is the one kept. One stacked `projective_distance` then scores the kept
candidates that can still win, and the rule err < best - EPS_WORD_TIE is
replayed over them in order: ties break toward the shorter, then the
earlier, word.

Most words cannot win, and most of those have no continuation that can:
the first are not scored, the second neither keyed nor kept. Write top(M)
for the largest entry magnitude of M. For every unit phase z, max|A - zB|
>= |B_kl| - |A_kl| >= top(B) - top(A) at the entry kl where top(B) sits.
Take margin = EPS_WORD_BOUND * (1 + top(A) + top(B)), far above the float
error of a computed distance, a few ulps of top(A) + top(B). A word B with
top(B) - top(A) >= best - EPS_WORD_TIE + margin then has a distance of at
least best - EPS_WORD_TIE, and since the best only falls, it cannot
replace the best; `_reach` solves this for top(B), so no word with top(B)
>= reach can win.

The bound carries through the letters still to come. F = (F g) g^-1 gives
top(F g) >= top(F) / kappa, kappa the largest column sum of magnitudes of
a generator's inverse: sqrt(2) for {H, T}, 1 + sqrt(2) for {TAU, T}. Each
set is one involution (H, TAU) and one diagonal unitary (T), which leaves
a top as it is, and two involutions in a row cancel, so m more letters
equal a word of at most ceil(m/2) involutions, and every continuation Q
of P within m letters has top(Q) >= top(P) / kappa^ceil(m/2). One rule
follows, at every level: a product P with m = depth_max - depth letters
left is keyed and kept only while top(P) < kappa^ceil(m/2) * reach, reach
taken at the level's starting best, and of those kept only the ones with
top < reach, the rule at m = 0, are scored. The tops come from the np.abs
that the keys take their cutoff from, so they add no pass.

The result is that of a search that keys every product and scores every
kept word. A word that wins there has a top at least the margin below
reach, far more than the float error of its products, so each of its
prefixes passes the rule here and it is formed, kept and scored. Leaving
a product P unkeyed can only change what a later product Q with the key
of P does: that search drops Q, this one may keep it. Equal keys mean
entries within sqrt(2) * 10^-_DEDUP_DECIMALS after the phase fix, and Q
has no more letters left than P, so Q is itself past the rule, less that
amount; the margin's absolute term absorbs it, and neither Q nor any
continuation of Q can win. The continuations of P are never formed here;
a product whose key equals one of theirs by a relation of the group (the
length-12 relations in the tests are such) equals that continuation up
to phase, so its own continuations are those of P and cannot win either.
A chance agreement to 10^-6 that is no relation is left to the tests:
none turns up in the node-by-node comparisons. So the kept words that can
win, their order, their parents and their scores are those of the full
search: a word scored gets the distance bits it would get in the full
stack, since each element's distance is that of the element alone
(below), and the replay visits the scored words in enumeration order, so
the result does not change.

Every result is bit-identical to scoring one node at a time, which the
tests check against such a search. Each array step is one BLAS call or one
ufunc pass over the whole level. The products are (2n, 2) @ (2, 2), one
gemm per generator, and every B^dag A is (2m, 2) @ (2, 2), one gemm over
the rows of the stacked B^dag. That each row of such a gemm has the bits
of the 2x2 product of its element alone is a property of the BLAS kernel,
not something numpy promises; tests/test_words.py pins it on row counts
that cover the kernel's tails, so a BLAS that breaks it fails there.
Writing the product out as a*e + b*g is not the same: OpenBLAS fuses
multiply-adds, so some entries differ in the last bit. The reductions are
exact by construction. A 2x2 trace is the one addition M[0, 0] + M[1, 1]
that np.trace makes on two entries, and the largest of four magnitudes is
the same whatever order np.maximum takes them in, so neither needs a
reduction over an axis of length 2 or 4. The phases need care:
each phase t/|t| must have the bits of the numpy scalar t / abs(t), the
form the single-matrix step uses. A scalar's abs() is the C library's
hypot of the parts, but np.abs on a complex array runs numpy's own vector
loop, which can differ in the last bit; with t / np.abs(t), some printed
errors change in their last digits. So the phases are
t / np.hypot(t.real, t.imag), an array formula with the scalar's bits,
and each hypot serves twice: a distance's |t| for the degeneracy test and
the phase, a key's magnitude of its reference entry for the cutoff test
and the phase.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (
    EPS_DEGENERATE, EPS_NO_PHASE_REF, EPS_TARGET_ISO, EPS_WORD_BOUND, EPS_WORD_TIE,
    MAX_WORD_DEPTH, BitKind, GuardError, IsometryError, LqcError, metric_for_kinds,
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

    def __str__(self) -> str:
        return " ".join(self.letters) if self.letters else "<empty>"


def projective_distance(A: np.ndarray, B: np.ndarray) -> float | np.ndarray:
    """max-norm distance between A and B minimized over a global phase of B.

    The optimal phase for the Frobenius norm, arg tr(B^dag A), is used in
    closed form; with it fixed the max-norm is what gets reported. One
    matrix B gives a float; an (m, d, d) stack gives the m distances as an
    array, each equal to the distance of its element alone.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    single = B.ndim == 2
    stack = B[None] if single else B
    m, d = stack.shape[:2]
    # every B^dag in one fresh contiguous buffer, then B^dag A as one gemm
    Bh = np.conj(stack.swapaxes(1, 2), out=np.empty(stack.shape, dtype=complex))
    M = (Bh.reshape(m * d, d) @ A).reshape(m, d, d)
    # np.trace sums more than 8 entries pairwise, not in order, so compile's
    # single d x d matrix keeps it; d = 2 spells out its one addition
    t = M[:, 0, 0] + M[:, 1, 1] if d == 2 else np.trace(M, axis1=1, axis2=2)
    # |t| once, for the degeneracy test and the phase; again only where
    # the fallback replaces t, by the scalar abs() that _scalar_abs matches
    r = _scalar_abs(t)
    for i in (r < EPS_DEGENERATE).nonzero()[0]:
        t[i] = _fallback_phase_ref(M[i])
        r[i] = abs(t[i])
    D = np.abs(A - (t / r)[:, None, None] * stack)
    worst = _max4(D.reshape(m, 4)) if d == 2 else D.max(axis=(1, 2))
    return float(worst[0]) if single else worst


def _fallback_phase_ref(M: np.ndarray) -> complex:
    """Phase reference of one B^dag A whose trace is degenerate: its
    largest-magnitude entry (deterministic), or 1, which compares B as it
    is, when that is zero too."""
    ref = M.flat[np.argmax(np.abs(M))]
    return ref if abs(ref) >= EPS_NO_PHASE_REF else 1.0


def _scalar_abs(z: np.ndarray) -> np.ndarray:
    """abs() of each entry with the bits of abs() on a numpy complex scalar:
    z / _scalar_abs(z) has the bits of the numpy scalar division."""
    return np.hypot(z.real, z.imag)


def generator_matrices(bitkind: BitKind | str) -> dict[str, np.ndarray]:
    kind = BitKind(bitkind)
    names = QUBIT_GENERATORS if kind is BitKind.QUBIT else HYBIT_GENERATORS
    return {name: builtin(name) for name in names}


def _level_products(frontier: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Every frontier[i] @ G[g] of an (n, 2, 2) frontier, frontier-major:
    product i * len(G) + g. One gemm over the frontier's rows per generator."""
    products = np.empty((len(frontier), len(G), 2, 2), dtype=complex)
    rows = frontier.reshape(-1, 2)
    for g in range(len(G)):
        products[:, g] = (rows @ G[g]).reshape(-1, 2, 2)
    return products.reshape(-1, 2, 2)


def _max4(x: np.ndarray) -> np.ndarray:
    """Largest entry of each row of an (n, 4) float array."""
    return np.maximum(np.maximum(x[:, 0], x[:, 1]), np.maximum(x[:, 2], x[:, 3]))


def _tops(stack: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix of an (n, 2, 2) stack."""
    return _max4(np.abs(stack.reshape(len(stack), 4)))


def _canonical_keys(stack: np.ndarray, top: np.ndarray) -> list[bytes]:
    """One dedup key per matrix of an (n, 2, 2) stack whose _tops are top."""
    # fix the global phase by the first entry whose magnitude is at least
    # half the largest, then round; +0.0 squashes negative zeros. Each entry
    # takes its magnitude only in the rows no earlier entry settled, and the
    # entry that settles a row gives its phase that same magnitude
    flat = stack.reshape(len(stack), 4)
    cutoff = 0.5 * top
    ref = flat[:, 0].copy()
    mag = _scalar_abs(ref)
    rest = np.flatnonzero(mag < cutoff)
    for k in (1, 2, 3):
        if not len(rest):
            break
        ref[rest] = flat[rest, k]
        mag[rest] = _scalar_abs(ref[rest])
        rest = rest[mag[rest] < cutoff[rest]]
    rounded = np.round(stack / (ref / mag)[:, None, None], _DEDUP_DECIMALS) + 0.0
    # the bytes of each rounded matrix, as rounded[i].tobytes() gives them
    return rounded.reshape(len(stack), 4).view(np.dtype((np.void, 64))).ravel().tolist()


def _reach(best_error: float, top_target: float) -> float:
    """The top a word must stay below to beat best_error, for a target whose
    top is top_target: the bound of the module docstring, solved for top(B)."""
    slack = best_error - EPS_WORD_TIE + EPS_WORD_BOUND * (1 + top_target) + top_target
    return slack / (1 - EPS_WORD_BOUND)


def _top_shrink(G: np.ndarray) -> float:
    """kappa with top(F g) >= top(F) / kappa for every F and every g of an
    (n, 2, 2) stack G: the largest column sum of magnitudes of a g^-1."""
    return max(np.linalg.norm(np.linalg.inv(g), 1) for g in G)


def _rows(stack: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The rows at of stack, or stack as it is when at takes every row: no
    copy when nothing is pruned."""
    return stack if len(at) == len(stack) else stack.take(at, 0)


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
    strict improvement). Refuses a negative depth_max or a tol that is not
    positive, and a depth_max past MAX_WORD_DEPTH with GuardError.
    """
    if depth_max < 0:
        raise LqcError(f"word depth must be nonnegative, got {depth_max}")
    if depth_max > MAX_WORD_DEPTH:
        raise GuardError(f"word depth {depth_max} exceeds the guard of {MAX_WORD_DEPTH}")
    if not tol > 0:
        raise LqcError("approximation tolerance must be positive")
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
    G = np.stack([gens[name] for name in names])

    frontier = np.eye(2, dtype=complex)[None]
    best_matrix = frontier[0].copy()
    best_error = float(projective_distance(target, frontier)[0])
    best_at = (0, 0)  # (length, index in its level) of the best word
    top_target = float(np.abs(target).max())
    kappa = _top_shrink(G)
    seen = set(_canonical_keys(frontier, _tops(frontier)))
    add = seen.add  # returns None, so `not add(key)` records key and keeps it
    # per level, the index among its products of each kept word:
    # parent index * len(names) + letter index
    kept_at: list[np.ndarray] = []
    for depth in range(1, depth_max + 1):
        if not len(frontier):
            break
        products = _level_products(frontier, G)
        top = _tops(products)
        # the one rule: keyed and kept only while a continuation of the
        # letters left can beat the level's starting best, scored only
        # while the product itself can
        reach = _reach(best_error, top_target)
        keyed = (top < kappa ** ((depth_max - depth + 1) // 2) * reach).nonzero()[0]
        keys = _canonical_keys(_rows(products, keyed), _rows(top, keyed))
        keep = keyed.take(np.array(
            [i for i, key in enumerate(keys) if key not in seen and not add(key)], dtype=np.intp
        ))
        kept_at.append(keep)
        frontier = products.take(keep, 0)
        del products  # freed before the distances allocate theirs: peak RSS
        live = (top.take(keep) < reach).nonzero()[0]
        if not len(live):
            continue
        scored = _rows(frontier, live)
        errors = projective_distance(target, scored)
        # only a word below the level's starting bound can improve on it
        for j in (errors < best_error - EPS_WORD_TIE).nonzero()[0].tolist():
            if errors[j] < best_error - EPS_WORD_TIE:
                best_error = float(errors[j])
                best_at = (len(kept_at), int(live[j]))
                best_matrix = scored[j].copy()  # not a view of the level

    length, j = best_at
    letters = []
    for keep in reversed(kept_at[:length]):
        j, letter = divmod(keep[j], len(names))
        letters.append(names[letter])
    return GateWord(
        letters=tuple(reversed(letters)),
        matrix=best_matrix,
        error=best_error,
        tol_met=best_error < tol,
    )
