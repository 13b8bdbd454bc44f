import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    cartan_target, reference_canonical_key, reference_projective_distance, reference_word_search,
    word_matrix,
)
from lqc.core import EPS_DEGENERATE, EPS_WORD_BOUND, EPS_WORD_TIE, MAX_WORD_DEPTH, IsometryError
from lqc.gates import builtin
from lqc.synthesis import words
from lqc.synthesis.words import GateWord, generator_matrices, projective_distance, word_search


def rot_z(theta):
    return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])


class TestProjectiveDistance:
    def test_zero_on_equal(self):
        H = builtin("H")
        assert projective_distance(H, H) == 0.0

    def test_phase_invariance(self):
        rng = np.random.default_rng(5)
        A = builtin("TAU")
        for _ in range(20):
            phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
            assert projective_distance(A, phase * A) < 1e-12

    def test_symmetric_under_phase_freedom(self):
        # d(A,B) compares the phase-aligned pair, so d(A,B) == d(B,A)
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert projective_distance(A, B) == pytest.approx(
                projective_distance(B, A), abs=1e-12
            )

    def test_detects_difference(self):
        assert projective_distance(builtin("H"), builtin("T")) > 0.1

    def test_traceless_fallback(self):
        # tr(B^dag A) = 0 exactly; the fallback phase reference still
        # produces a finite sensible answer
        A = np.eye(2, dtype=complex)
        B = np.array([[0, 1], [1, 0]], dtype=complex)
        d = projective_distance(A, B)
        assert 0.9 < d <= 2.0


class TestWordSearch:
    def test_target_h_is_single_letter(self):
        w = word_search(builtin("H"), "q", 1e-9, 5)
        assert w.letters == ("H",)
        assert w.error <= 1e-12
        assert w.tol_met

    def test_target_t_tau_hybit(self):
        target = builtin("T") @ builtin("TAU")
        w = word_search(target, "h", 1e-9, 5)
        assert len(w.letters) == 2
        assert w.error <= 1e-12

    def test_letters_multiply_to_matrix(self):
        target = builtin("TAU") @ builtin("T") @ builtin("T") @ builtin("TAU")
        w = word_search(target, "h", 1e-9, 8)
        assert np.max(np.abs(word_matrix(w.letters, "h") - w.matrix)) <= 1e-13
        assert w.error <= 1e-12

    def test_identity_target_empty_word(self):
        w = word_search(np.eye(2), "q", 1e-9, 6)
        assert w.letters == ()
        assert w.error == 0.0

    def test_sigma_z_rotation_favorable_angle(self):
        # theta near pi/8 sits close to the T lattice and meets 0.05 by depth 20
        w = word_search(rot_z(0.4), "q", 0.05, 20)
        assert w.tol_met
        assert w.error < 0.05

    def test_sigma_z_rotation_generic_angle_flagged_not_failed(self):
        # a generic angle needs depth ~30 for 0.05; at depth 12 the search
        # must still return its best word, flagged
        w = word_search(rot_z(1.0), "q", 0.05, 12)
        assert isinstance(w, GateWord)
        assert not w.tol_met
        assert w.error > 0.05
        assert len(w.letters) <= 12

    def test_error_nonincreasing_in_depth(self):
        target = rot_z(1.0)
        errs = [word_search(target, "q", 0.05, d).error for d in (2, 5, 8, 12, 16)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15

    def test_exact_word_found_at_its_own_length(self):
        # error 0 whenever the target is itself a word of length <= depth_max
        rng = np.random.default_rng(11)
        gens = generator_matrices("h")
        names = sorted(gens)
        for trial in range(10):
            letters = tuple(rng.choice(names) for _ in range(rng.integers(1, 6)))
            target = word_matrix(letters, "h")
            w = word_search(target, "h", 1e-9, len(letters))
            assert w.error <= 1e-12, (letters, w.letters, w.error)

    def test_deterministic(self):
        target = rot_z(2.5)
        a = word_search(target, "q", 0.05, 14)
        b = word_search(target, "q", 0.05, 14)
        assert a.letters == b.letters
        assert a.error == b.error

    @pytest.mark.parametrize("target, kind", [
        (builtin("TAU"), "q"), (builtin("H"), "h"), (np.eye(3), "q"),
    ], ids=["tau-on-qubit", "h-on-hybit", "3x3"])
    def test_rejects_wrong_kind_target(self, target, kind):
        with pytest.raises(IsometryError):
            word_search(target, kind, 0.05, 5)

    def test_hybit_boost_approximation_improves(self):
        # a small boost is not in the discrete group; the search still
        # closes in as depth grows
        target = builtin("BOOST", 0.2)
        shallow = word_search(target, "h", 1e-3, 4)
        deep = word_search(target, "h", 1e-3, 14)
        assert deep.error <= shallow.error + 1e-15
        assert deep.error < 0.5


def assert_same_search(target, kind, tol, depth):
    got = word_search(target, kind, tol, depth)
    want = reference_word_search(target, kind, tol, depth)
    assert got.letters == want.letters, (depth, got.letters, want.letters)
    assert got.error == want.error, (depth, got.error, want.error)
    assert np.array_equal(got.matrix, want.matrix), depth
    assert got.tol_met == want.tol_met


class TestMatchesNodeByNodeSearch:
    """The level-at-a-time search returns what scoring one node at a time
    returns, to the bit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_cartan_targets(self, kind, seed):
        target = cartan_target(kind, np.random.default_rng(seed))
        for depth in range(17):
            assert_same_search(target, kind, 1e-3, depth)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_cartan_targets_depth_20(self, kind, seed):
        assert_same_search(cartan_target(kind, np.random.default_rng(seed)), kind, 1e-3, 20)

    @pytest.mark.parametrize("name", ["X", "Y", "Z"])
    def test_paulis_take_the_degenerate_trace_fallback(self, name):
        # tr(B^dag P) is zero for many words B, inside the stacked distance
        for depth in range(17):
            assert_same_search(builtin(name), "q", 1e-3, depth)

    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_word_targets_and_identity(self, kind):
        rng = np.random.default_rng(12)
        names = sorted(generator_matrices(kind))
        targets = [np.eye(2)]
        targets += [word_matrix(rng.choice(names, size=n), kind) for n in (1, 3, 6, 9)]
        for target in targets:
            for depth in (0, 4, 10):
                assert_same_search(target, kind, 1e-9, depth)

    @pytest.mark.parametrize("tol", [1e-12, 0.5])
    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_small_and_large_tol(self, kind, tol):
        assert_same_search(cartan_target(kind, np.random.default_rng(7)), kind, tol, 12)

    @pytest.mark.parametrize(
        "rapidity", [0.1, 3.0, 1.0, 5.0],
        ids=["small-entries", "large-entries", "rapidity-1", "rapidity-5"],
    )
    def test_hybit_targets_the_last_level_skips_most_and_least_of(self, rapidity):
        # at depth 16, the search keys 3,132 of the 7,616 products a search
        # keying all would form for rapidity 0.1, 4,397 for 1, 7,584 for 3
        # and all of them for 5; the last level keys 76, 619, 2,802 and
        # 2,834 of those 2,834: the small target's best error is soon below
        # the top of most words, the large ones' are not
        target = np.diag(np.exp(1j * np.array([0.3, -1.1]))) @ builtin("BOOST", rapidity)
        for depth in range(17):
            assert_same_search(target, "h", 1e-3, depth)

    @pytest.mark.parametrize("pair", [
        ("T TAU T TAU T T T TAU T T T TAU", "TAU T T T TAU T T T TAU T TAU T"),
        ("T T T TAU T T T TAU T TAU T TAU", "TAU T TAU T TAU T T T TAU T T T"),
    ])
    def test_the_length_12_relations_the_dedup_merges(self, pair):
        # the two words are equal up to phase: the search keeps the first
        # in enumeration order and drops the second by its key
        first, second = (word_matrix(letters.split(), "h") for letters in pair)
        assert projective_distance(first, second) < 1e-12
        for target in (first, second):
            for depth in range(12, 17):
                assert_same_search(target, "h", 1e-9, depth)


@functools.cache
def searched_products(kind, depth):
    """Every product the search forms up to depth, as one stack."""
    gens = generator_matrices(kind)
    names = sorted(gens)
    identity = np.eye(2, dtype=complex)
    seen = {reference_canonical_key(identity)}
    frontier, products = [identity], []
    for _ in range(depth):
        level = [m @ gens[name] for m in frontier for name in names]
        products += level
        frontier = []
        for m in level:
            key = reference_canonical_key(m)
            if key not in seen:
                seen.add(key)
                frontier.append(m)
    return np.array(products)


@functools.cache
def stack(name):
    if name == "random":
        rng = np.random.default_rng(2024)
        return rng.normal(size=(10_000, 2, 2)) + 1j * rng.normal(size=(10_000, 2, 2))
    return searched_products(name, 12)


def degenerate_stack():
    """Traces against the identity that are zero, below EPS_DEGENERATE, or
    fine, and one matrix with no phase reference at all."""
    X, Y, Z = builtin("X"), builtin("Y"), builtin("Z")
    rng = np.random.default_rng(3)
    return np.array([
        X, Y, np.eye(2), Z, X + 1e-13 * np.eye(2), 1e-16 * Y,
        np.zeros((2, 2)), builtin("H"), rng.normal(size=(2, 2)) + 0j,
    ], dtype=complex)


def scalar_phases(t):
    return np.array([v / abs(v) for v in t])


class TestStackedHelpers:
    """The stacked distance and key equal the single-matrix ones of the
    node-by-node search on every element, to the bit."""

    @pytest.mark.parametrize("name", ["random", "q", "h"])
    def test_distance(self, name):
        S = stack(name)
        rng = np.random.default_rng(9)
        for A in (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                  cartan_target("h", rng), builtin("X")):
            got = projective_distance(A, S)
            assert np.array_equal(got, [reference_projective_distance(A, B) for B in S])
            assert np.array_equal(got, [projective_distance(A, B) for B in S])

    @pytest.mark.parametrize("name", ["random", "q", "h"])
    def test_key(self, name):
        S = stack(name)
        assert words._canonical_keys(S, words._tops(S)) == [reference_canonical_key(B) for B in S]

    def test_degenerate_traces(self):
        S = degenerate_stack()
        A = np.eye(2, dtype=complex)
        traces = [abs(np.trace(B.conj().T @ A)) for B in S]
        assert 0 < sum(t < EPS_DEGENERATE for t in traces) < len(S)
        got = projective_distance(A, S)
        assert np.array_equal(got, [reference_projective_distance(A, B) for B in S])
        nonzero = np.array([B for B in S if np.abs(B).max() > 0])
        assert words._canonical_keys(nonzero, words._tops(nonzero)) == [
            reference_canonical_key(B) for B in nonzero
        ]

    def test_stacks_of_zero_and_one(self):
        A = builtin("H")
        empty = np.empty((0, 2, 2), dtype=complex)
        assert projective_distance(A, empty).shape == (0,)
        assert words._canonical_keys(empty, words._tops(empty)) == []
        B = builtin("T")
        one = projective_distance(A, B[None])
        assert one.shape == (1,) and one[0] == reference_projective_distance(A, B)
        assert isinstance(projective_distance(A, B), float)
        assert words._canonical_keys(B[None], words._tops(B[None])) == [
            reference_canonical_key(B)
        ]

    def test_array_phase_is_not_the_scalar_phase(self):
        # abs() of a numpy complex scalar is the C library's hypot, and
        # np.abs of a complex array is numpy's own vector loop: where they
        # differ, t / np.abs(t) would change printed errors in the last digits
        S = stack("random")
        A = cartan_target("q", np.random.default_rng(1))
        t = np.trace(S.conj().swapaxes(1, 2) @ A, axis1=1, axis2=2)
        want = scalar_phases(t)
        assert np.array_equal(t / words._scalar_abs(t), want)
        differs = np.flatnonzero(t / np.abs(t) != want)
        if not len(differs):
            pytest.skip("np.abs and abs() agree here, so t / np.abs(t) is the scalar phase")
        S = S[differs]
        ref = [reference_projective_distance(A, B) for B in S]
        assert np.array_equal(projective_distance(A, S), ref)
        array_phase = np.abs(A - (t / np.abs(t))[differs, None, None] * S).max(axis=(1, 2))
        assert not np.array_equal(array_phase, ref)


def bound_targets():
    rng = np.random.default_rng(21)
    return [
        cartan_target("q", rng), cartan_target("h", rng), builtin("X"), builtin("Y"),
        builtin("Z"), np.eye(2), builtin("BOOST", 2.0),
    ]


class TestWinBound:
    """For every unit phase z, max|A - zB| >= top(B) - top(A), top being the
    largest entry magnitude, and the computed distance keeps that within
    EPS_WORD_BOUND * (1 + top(A) + top(B)): the bound by which word_search
    leaves out the words that cannot win."""

    @pytest.mark.parametrize("name", ["random", "q", "h"])
    def test_distance_is_at_least_the_top_gap(self, name):
        S = stack(name)
        top = words._tops(S)
        assert np.array_equal(top, np.abs(S).max(axis=(1, 2)))
        for A in bound_targets():
            top_a = np.abs(A).max()
            d = projective_distance(A, S)
            assert np.all(d >= top - top_a - EPS_WORD_BOUND * (1 + top_a + top))
            # as word_search applies it: a word at or past the reach of a
            # best error e cannot get below e - EPS_WORD_TIE
            assert np.all(top <= words._reach(d + EPS_WORD_TIE, top_a))

    def test_the_bound_is_tight(self):
        # words equal to the identity up to phase sit on the bound against I
        S = stack("h")
        gap = projective_distance(np.eye(2), S) - (words._tops(S) - 1)
        assert gap.min() < EPS_WORD_BOUND


class TestContinuationBound:
    """top(P g) >= top(P) / kappa for every product P and generator g, kappa
    the largest column sum of magnitudes of a generator's inverse; and each
    generator set is one involution and one diagonal unitary, so m letters
    more divide a top by at most kappa^ceil(m/2): the rule by which
    word_search neither keys nor keeps a word no continuation can make win."""

    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_one_letter_divides_the_top_by_at_most_kappa(self, kind):
        gens = generator_matrices(kind)
        names = sorted(gens)
        kappa = words._top_shrink(np.stack([gens[name] for name in names]))
        P = searched_products(kind, 12)
        top = words._tops(P)
        for name in names:
            assert np.all(words._tops(P @ gens[name]) * kappa >= top * (1 - 8 * np.finfo(float).eps))

    @pytest.mark.parametrize("kind,kappa", [("q", np.sqrt(2)), ("h", 1 + np.sqrt(2))])
    def test_kappa_comes_from_the_generators(self, kind, kappa):
        gens = generator_matrices(kind)
        assert words._top_shrink(np.stack(list(gens.values()))) == pytest.approx(kappa, rel=1e-15)

    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_one_involution_and_one_diagonal_unitary(self, kind):
        I = np.eye(2)
        roles = []
        for g in generator_matrices(kind).values():
            if g[0, 1] == 0 == g[1, 0] and np.allclose(np.abs(np.diag(g)), 1, rtol=0, atol=1e-15):
                roles.append("diagonal unitary")
            elif np.allclose(g @ g, I, rtol=0, atol=1e-15):
                roles.append("involution")
            else:
                roles.append("other")
        assert sorted(roles) == ["diagonal unitary", "involution"]

    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_m_letters_divide_the_top_by_at_most_kappa_to_the_half(self, kind):
        gens = generator_matrices(kind)
        names = sorted(gens)
        kappa = words._top_shrink(np.stack([gens[name] for name in names]))
        P = searched_products(kind, 8)
        top = words._tops(P)
        for m in range(1, 6):
            for letters in itertools.product(names, repeat=m):
                Q = P @ word_matrix(letters, kind)
                bound = top / kappa ** ((m + 1) // 2)
                assert np.all(words._tops(Q) >= bound * (1 - 32 * np.finfo(float).eps)), letters


class TestSearchMemory:
    """The tracemalloc peak of the deepest search MAX_WORD_DEPTH allows, a
    hybit one, where the keys and the `seen` set are most of the memory. It
    peaks at about 20 MB: a word no continuation can make win is neither
    keyed nor kept, at any level. Keying every product peaked at 67 MB, and
    keying all but the last level's hopeless ones at about 42 MB."""

    def test_deepest_hybit_search(self):
        target = cartan_target("h", np.random.default_rng(0))
        tracemalloc.start()
        try:
            word_search(target, "h", 1e-3, MAX_WORD_DEPTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


class TestLevelForms:
    """Each level is a few BLAS calls over rows: one gemm per generator for
    the products, one for every B^dag A. That these give each element the
    bits of its own 2x2 product is a property of the BLAS kernel, which
    numpy does not promise; these cases cover the kernel's row tails. The
    reductions over axes of length 4 are elementwise passes."""

    @pytest.mark.parametrize("n", [*range(1, 10), 17, 33, 1000])
    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_level_products_are_the_single_products(self, kind, n):
        gens = generator_matrices(kind)
        names = sorted(gens)
        rng = np.random.default_rng(n)
        frontier = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        got = words._level_products(frontier, np.stack([gens[name] for name in names]))
        want = [m @ gens[name] for m in frontier for name in names]
        assert np.array_equal(got.view(float), np.array(want).view(float))

    @pytest.mark.parametrize("d", [4, 8, 16, 32, 64])
    def test_single_matrix_distance(self, d):
        # compile's path: one d x d circuit matrix against its target
        rng = np.random.default_rng(d)
        bits = d.bit_length() - 1
        kron = functools.partial(functools.reduce, np.kron)
        cartan = kron([cartan_target(k, rng) for k in rng.choice(["q", "h"], size=bits)])
        noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        pairs = [
            (noise, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))),
            (cartan, np.exp(0.7j) * cartan + 1e-6 * noise),
            (cartan, kron([cartan_target("q", rng) for _ in range(bits)])),
        ]
        for A, B in pairs:
            got = projective_distance(A, B)
            assert isinstance(got, float)
            assert got == reference_projective_distance(A, B)


class TestOneCallPerLevel:
    """word_search calls the stacked helpers once per level, never once per
    node; a timing test would not catch a slide back to per-node calls."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        original = getattr(words, name)

        def record(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(words, name, record)
        return calls

    @pytest.mark.parametrize(
        "kind,target", [("q", builtin("X")), ("q", rot_z(1.0)), ("h", builtin("BOOST", 0.2))]
    )
    def test_helpers_once_per_level(self, monkeypatch, kind, target):
        depth = 12
        distances = self.spy(monkeypatch, "projective_distance")
        keys = self.spy(monkeypatch, "_canonical_keys")
        fallbacks = self.spy(monkeypatch, "_fallback_phase_ref")
        levels = self.spy(monkeypatch, "_level_products")
        word_search(target, kind, 1e-3, depth)
        # the identity, then one stack per level
        assert 1 < len(distances) <= depth + 1
        assert 1 < len(keys) <= depth + 1
        assert all(B.ndim == 3 for _, B in distances)
        assert all(S.ndim == 3 for S, *_ in keys)
        keyed = sum(len(S) for S, *_ in keys)
        assert keyed > 10 * (depth + 1)
        # only the words that can still win are scored: on a hybit, fewer
        # than the levels before the last keep, each the next one's frontier
        nodes = sum(len(B) for _, B in distances)
        if kind == "h":
            assert nodes < sum(len(frontier) for frontier, _ in levels[1:]) < keyed
        # the per-element fallback runs for exactly the degenerate traces
        degenerate = sum(
            abs(np.trace(B.conj().T @ A)) < EPS_DEGENERATE
            for A, stack in distances for B in stack
        )
        assert 0 < len(fallbacks) == degenerate < nodes

    def test_keys_only_the_words_a_continuation_can_make_win(self, monkeypatch):
        # the identity and 22,390 of the 31,980 products formed; keying
        # every product kept a frontier that formed 48,502, all of them keyed
        # but 15,786 of the last level's 17,928
        keys = self.spy(monkeypatch, "_canonical_keys")
        word_search(cartan_target("h", np.random.default_rng(0)), "h", 1e-3, 20)
        assert sum(len(S) for S, _ in keys) <= 22_391
