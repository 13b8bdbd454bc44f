import numpy as np
import pytest

from lqc.circuit import serialize, to_matrix
from lqc.core import (
    EPS_RECON,
    IsometryError,
    LqcError,
    RegisterLayout,
    metric_vector,
)
from lqc.gates import block_metric, builtin, random_isometry_for_signs
from lqc.synthesis import compile, twolevel
from lqc.synthesis.gadgets import emit, named_circuit
from lqc.synthesis.twolevel import TwoLevelFactor, lower, two_level_factorize

from conftest import embed


def random_su2_form(seed):
    # [[zeta, gamma], [-conj gamma, conj zeta]] with |zeta|^2 + |gamma|^2 = 1
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    zeta = raw[0] + 1j * raw[1]
    gamma = raw[2] + 1j * raw[3]
    return np.array([[zeta, gamma], [-np.conj(gamma), np.conj(zeta)]])


class TestFactorType:
    def test_embed_places_block(self):
        V = random_su2_form(0)
        f = TwoLevelFactor(1, 3, V)
        M = embed(f, 4)
        assert M[1, 1] == V[0, 0] and M[1, 3] == V[0, 1]
        assert M[3, 1] == V[1, 0] and M[3, 3] == V[1, 1]
        assert M[0, 0] == 1 and M[2, 2] == 1 and M[0, 2] == 0

    def test_equality_is_identity(self):
        # factors hold arrays: == compares identity instead of raising on
        # an ambiguous array truth value, and factors stay hashable
        a = TwoLevelFactor(0, 1, np.eye(2))
        b = TwoLevelFactor(0, 1, np.eye(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2
        eta = block_metric(2, 2)
        factors = two_level_factorize(random_isometry_for_signs(eta, 3), eta)
        assert factors[0] in set(factors)


class TestFactorize:
    def test_identity_gives_no_factors(self):
        assert two_level_factorize(np.eye(4), block_metric(2, 2)) == []

    def test_single_two_level_input(self):
        V = random_su2_form(3)
        A = embed(TwoLevelFactor(0, 1, V), 4)
        factors = two_level_factorize(A, block_metric(4, 0))
        assert len(factors) == 1
        assert np.max(np.abs(embed(factors[0], 4) - A)) < 1e-12

    def test_random_2_2(self):
        for seed in range(10):
            A = random_isometry_for_signs(block_metric(2, 2), seed)
            factors = two_level_factorize(A, block_metric(2, 2))
            assert len(factors) <= 6
            recon = np.eye(4, dtype=complex)
            for f in factors:
                recon = recon @ embed(f, 4)
            assert np.max(np.abs(recon - A)) < 1e-8

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_signatures(self, m, n):
        d = m + n
        eta = np.concatenate([np.ones(m), -np.ones(n)])
        for seed in range(25):
            A = random_isometry_for_signs(block_metric(m, n), 1000 * m + 100 * n + seed)
            factors = two_level_factorize(A, block_metric(m, n))
            assert len(factors) <= d * (d - 1) // 2
            recon = np.eye(d, dtype=complex)
            for f in factors:
                sub_eta = np.array([eta[f.i], eta[f.j]])
                from lqc.gates import isometry_residual

                assert isometry_residual(f.V, sub_eta) < 1e-10
                recon = recon @ embed(f, d)
            assert np.max(np.abs(recon - A)) < EPS_RECON

    def test_interleaved_metric(self):
        layout = RegisterLayout("qh")
        s = metric_vector(layout).astype(float)
        from lqc.gates import random_isometry_for_signs

        for seed in range(5):
            A = random_isometry_for_signs(s, 50 + seed)
            factors = two_level_factorize(A, s)
            recon = np.eye(4, dtype=complex)
            for f in factors:
                recon = recon @ embed(f, 4)
            assert np.max(np.abs(recon - A)) < 1e-8

    @pytest.mark.parametrize("kinds", ["qqh", "qhqh"])
    def test_checked_error_matches_the_dense_product(self, kinds):
        # `error` is checked with two-column updates; embed is the reference
        from lqc.gates import random_isometry_for_signs

        s = metric_vector(RegisterLayout(kinds)).astype(float)
        d = len(s)
        for seed in range(3):
            A = random_isometry_for_signs(s, 70 + seed)
            factors = two_level_factorize(A, s)
            recon = np.eye(d, dtype=complex)
            for f in factors:
                recon = recon @ embed(f, d)
            assert factors.error == pytest.approx(np.max(np.abs(recon - A)), abs=1e-12)
            assert factors.error <= EPS_RECON

    def test_diagonal_cz_is_one_factor(self):
        A = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        factors = two_level_factorize(A, block_metric(4, 0))
        assert len(factors) == 1
        f = factors[0]
        assert (f.i, f.j) == (2, 3)
        assert np.max(np.abs(f.V - np.diag([1.0, -1.0]))) < 1e-14

    def test_both_leftover_phases_land_in_one_factor(self):
        # the elimination leaves a phase on both of its indices; each is
        # absorbed into the one factor that touched it last
        A = np.diag(np.exp([0.3j, -1.1j])) @ builtin("H")
        factors = two_level_factorize(A, block_metric(2, 0))
        assert [(f.i, f.j) for f in factors] == [(0, 1)]
        assert np.max(np.abs(factors[0].V - A)) <= EPS_RECON

    def test_untouched_pair_phases_share_a_fresh_factor(self):
        # index 2 gets a fresh diagonal factor with its neighbor 3, which
        # then takes index 3's phase as well
        A = np.diag(np.exp([0, 0, 0.3j, -1.1j]))
        factors = two_level_factorize(A, block_metric(4, 0))
        assert [(f.i, f.j) for f in factors] == [(2, 3)]
        assert np.max(np.abs(factors[0].V - A[2:, 2:])) <= EPS_RECON

    @pytest.mark.parametrize(
        "A, signs",
        [
            (np.diag([1, 1, 1j]), block_metric(2, 1)),
            (np.diag([1, 1, 1j]), block_metric(1, 2)),
            (np.diag([1, 1, 1, 1, 1j]), block_metric(3, 2)),
            (
                np.block([
                    [random_isometry_for_signs(block_metric(1, 1), 8), np.zeros((2, 1))],
                    [np.zeros((1, 2)), np.exp([[0.7j]])],
                ]),
                np.array([1.0, -1.0, 1.0]),
            ),
        ],
        ids=["2-1", "1-2", "3-2", "U(1,1)-plus-phase"],
    )
    def test_last_index_of_an_odd_dimension_keeps_its_phase(self, A, signs):
        # index d - 1 has no low-bit neighbor, so its phase pairs with d - 2
        factors = two_level_factorize(A, signs)
        d = len(A)
        assert [(f.i, f.j) for f in factors][-1] == (d - 2, d - 1)
        assert factors.error <= 1e-14

    @pytest.mark.parametrize("factor", [1.001, np.nan], ids=["scaled", "nan"])
    def test_each_block_is_checked_against_its_pair_metric(self, monkeypatch, factor):
        # factors are built without the constructor's check, so the one
        # batched check has to catch a block that is off its metric; NaN
        # compares false with every bound, so it must read as a failure
        original = twolevel._pair_inverses
        calls = []

        def scaling_third(M, eta):
            calls.append(M)
            out = original(M, eta)
            out[2] *= factor
            return out

        monkeypatch.setattr(twolevel, "_pair_inverses", scaling_third)
        A = random_isometry_for_signs(block_metric(2, 2), 5)
        with pytest.raises(IsometryError, match="pair metric"):
            two_level_factorize(A, block_metric(2, 2))
        assert len(calls) == 1 and len(calls[0]) > 3

    def test_a_nan_reconstruction_is_refused(self, monkeypatch):
        # a factor that turns NaN after the pair check leaves the rebuilt
        # product NaN, which the reconstruction check must refuse
        original = twolevel.TwoLevelFactor
        calls = []

        def nan_third(i, j, V):
            calls.append(V)
            return original(i, j, V * np.nan if len(calls) == 3 else V)

        monkeypatch.setattr(twolevel, "TwoLevelFactor", nan_third)
        eta = block_metric(2, 2)
        with pytest.raises(LqcError, match="reconstruction error nan"):
            two_level_factorize(random_isometry_for_signs(eta, 5), eta)

    @pytest.mark.parametrize("shape", [(3, 2), (4,), (2, 2, 2)])
    def test_rejects_a_non_square_input(self, shape):
        with pytest.raises(LqcError, match="square"):
            two_level_factorize(np.ones(shape), block_metric(2, 1))

    def test_dimension_one(self):
        # a 1x1 isometry is a phase: the identity takes no factor, and any
        # other phase is refused
        F = two_level_factorize(np.array([[1.0]]), [1.0])
        assert (list(F), F.error) == ([], 0.0)
        with pytest.raises(LqcError, match="identity scalar"):
            two_level_factorize(np.array([[1j]]), [1.0])

    def test_rejects_non_isometry(self):
        with pytest.raises(IsometryError):
            two_level_factorize(np.ones((3, 3)), block_metric(2, 1))

    def test_metric_matrix_refused(self):
        # the metric is a sign vector, never a diagonal matrix
        A = random_isometry_for_signs(block_metric(2, 1), 9)
        with pytest.raises(LqcError, match="shape mismatch"):
            two_level_factorize(A, np.diag([1.0, 1.0, -1.0]))


class TestPatternControl:
    """A single-bit gate controlled on a pattern of trigger values is one
    instruction, named by `named_circuit`."""

    def test_no_zeros_single_instruction(self):
        layout = RegisterLayout.of(3, 0)
        [instr] = named_circuit(layout, emit({0: 1, 1: 1}, 2, builtin("H"))).instructions
        assert (instr.gate, instr.targets, instr.controls) == ("H", (2,), (0, 1))
        assert instr.ctrl_state == (1, 1)

    def test_zero_pattern_matches_oracle(self):
        layout = RegisterLayout.of(3, 0)
        V = random_su2_form(7)
        circ = named_circuit(layout, emit({0: 0, 1: 1}, 2, V))
        assert [i.ctrl_state for i in circ.instructions] == [(0, 1)]
        got = to_matrix(circ)
        want = np.eye(8, dtype=complex)
        want[np.ix_((2, 3), (2, 3))] = V  # bits (0,1) = (0,1), target varies
        assert np.max(np.abs(got - want)) < 1e-12

    def test_all_zero_pattern(self):
        layout = RegisterLayout.of(2, 0)
        V = random_su2_form(8)
        circ = named_circuit(layout, emit({0: 0}, 1, V))
        got = to_matrix(circ)
        want = np.eye(4, dtype=complex)
        want[np.ix_((0, 1), (0, 1))] = V
        assert np.max(np.abs(got - want)) < 1e-12

    def test_target_in_pattern_rejected(self):
        layout = RegisterLayout.of(2, 0)
        with pytest.raises(LqcError, match="duplicate bit"):
            named_circuit(layout, emit({1: 1}, 1, builtin("Z")))


def check_lowering(layout, i, j, V, tol=1e-8):
    f = TwoLevelFactor(i, j, V)
    circ = lower([f], layout)
    got = to_matrix(circ)
    want = embed(f, layout.dimension)
    err = np.max(np.abs(got - want))
    assert err < tol, f"lowering error {err:.3g} on ({i},{j}) of {layout.kinds}"
    return circ


class TestLowering:
    def test_hamming1_all_ones_is_single_instruction(self):
        layout = RegisterLayout.of(3, 0)
        V = random_su2_form(11)
        # i = |110>, j = |111>: non-differing bits all 1
        circ = check_lowering(layout, 6, 7, V, tol=1e-12)
        assert len(circ.instructions) == 1
        assert len(circ.instructions[0].controls) == 2

    def test_spec_two_qubit_sigma_z(self):
        # i=|00>, j=|01>, V=sigma_z lowers to one Z on q1 triggered by q0 = 0
        layout = RegisterLayout.of(2, 0)
        circ = check_lowering(layout, 0, 1, np.diag([1.0, -1.0]).astype(complex), 1e-12)
        (instr,) = circ.instructions
        assert instr.gate == "Z" and instr.ctrl_state == (0,)
        assert serialize(circ).splitlines()[-1] == "CTRL !q0 : Z q1"

    def test_hamming1_mixed_pair(self):
        # qubit+hybit register, indices differing in the hybit
        layout = RegisterLayout("qh")
        check_lowering(layout, 2, 3, builtin("BOOST", 0.7), 1e-12)

    def test_diagonal_factor(self):
        layout = RegisterLayout.of(2, 0)
        ph = np.exp(0.9j)
        check_lowering(layout, 1, 2, np.diag([ph, np.conj(ph)]), 1e-12)

    def test_phase_at_index_zero(self):
        layout = RegisterLayout.of(2, 0)
        check_lowering(layout, 0, 3, np.diag([np.exp(0.4j), 1.0]), 1e-12)

    def test_equal_sign_two_hybits(self):
        layout = RegisterLayout("hh")
        V = random_su2_form(23)
        check_lowering(layout, 0, 3, V)  # both indices positive, hybit-only diffs

    def test_equal_sign_two_hybits_negative_pair(self):
        layout = RegisterLayout("hhh")
        V = random_su2_form(24)
        # |100> and |111>: both carry one resp. three hybit ones -> sign -1
        check_lowering(layout, 4, 7, V)

    def test_small_zeta_reroute(self):
        layout = RegisterLayout("hh")
        V = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # zeta = 0
        check_lowering(layout, 0, 3, V)

    # pairs the elimination never forms: more than two bits apart, or two
    # bits apart where one of them is a qubit
    @pytest.mark.parametrize(
        "kinds,i,j",
        [("qh", 0, 3), ("qqq", 0, 7), ("qqh", 0, 7), ("hhhh", 0, 15), ("qqh", 0, 6)],
    )
    def test_rejects_pairs_that_need_relabelling(self, kinds, i, j):
        layout = RegisterLayout(kinds)
        si, sj = metric_vector(layout)[[i, j]].tolist()
        V = random_su2_form(21) if si == sj else random_isometry_for_signs(block_metric(1, 1), 21)
        with pytest.raises(LqcError, match=rf"pair \({i}, {j}\) on register {kinds}"):
            lower([TwoLevelFactor(i, j, V)], layout)

    @pytest.mark.parametrize("i,j", [(0, 7), (4, 5), (-1, 0)])
    def test_index_outside_the_register(self, i, j):
        layout = RegisterLayout.of(2, 0)
        f = TwoLevelFactor(i, j, random_su2_form(12))
        with pytest.raises(LqcError, match=rf"indices \({i},{j}\) does not fit a 2-bit"):
            lower([f], layout)

    def test_boost_on_equal_sign_pair_refused_by_circuit(self):
        # a boost is not unitary, so the emitted gate fails its metric check
        # on a qubit target; on the opposite-sign pair of a hybit it lowers
        with pytest.raises(IsometryError):
            lower([TwoLevelFactor(0, 1, builtin("BOOST", 0.5))], RegisterLayout("qq"))
        check_lowering(RegisterLayout("qh"), 0, 1, builtin("BOOST", 0.5), 1e-12)

    def test_sheared_block_two_hybits_apart_refused(self):
        # unit first row and determinant 1, but not unitary: the four-matrix
        # identity reads only the first row, so the second is checked
        V = np.array([[0.6, 0.8], [0.0, 1 / 0.6]], dtype=complex)
        with pytest.raises(IsometryError, match=r"block \(0, 3\) is not unitary"):
            lower([TwoLevelFactor(0, 3, V)], RegisterLayout("hh"))


class TestFactorizeLowerRoundtrip:
    @pytest.mark.parametrize("kinds", ["qq", "qh", "hh"])
    def test_two_bit_registers(self, kinds):
        from lqc.gates import random_isometry_for_signs

        layout = RegisterLayout(kinds)
        s = metric_vector(layout).astype(float)
        for seed in range(4):
            A = random_isometry_for_signs(s, 400 + seed)
            got = to_matrix(lower(two_level_factorize(A, s), layout))
            assert np.max(np.abs(got - A)) < 1e-8

    def test_three_bit_mixed(self):
        from lqc.gates import random_isometry_for_signs

        layout = RegisterLayout("qqh")
        s = metric_vector(layout).astype(float)
        A = random_isometry_for_signs(s, 900)
        got = to_matrix(lower(two_level_factorize(A, s), layout))
        assert np.max(np.abs(got - A)) < 1e-7

    @pytest.mark.parametrize("kinds", ["qqh", "qhh", "hhh"])
    def test_compile_is_factorize_then_lower(self, kinds):
        layout = RegisterLayout(kinds)
        s = metric_vector(layout)
        for seed in range(3):
            A = random_isometry_for_signs(s, 910 + seed)
            assert compile(A, layout).circuit == lower(two_level_factorize(A, s), layout)


class TestMetricCaseIdentities:
    """The three 3x3 composition identities, transcribed directly."""

    P23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)

    def test_all_plus_case(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            zeta = rng.normal() + 1j * rng.normal()
            gamma = rng.normal() + 1j * rng.normal()
            lhs = np.array(
                [
                    [zeta, gamma, 0],
                    [-np.conj(gamma), np.conj(zeta), 0],
                    [0, 0, 1],
                ]
            )
            inner = np.array(
                [
                    [zeta, 0, gamma],
                    [0, 1, 0],
                    [-np.conj(gamma), 0, np.conj(zeta)],
                ]
            )
            rhs = self.P23 @ inner @ self.P23
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_minus_first_case(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            zeta = rng.normal() + 1j * rng.normal()
            gamma = rng.normal() + 1j * rng.normal()
            lhs = np.array(
                [
                    [zeta, gamma, 0],
                    [np.conj(gamma), np.conj(zeta), 0],
                    [0, 0, 1],
                ]
            )
            inner = np.array(
                [
                    [zeta, 0, gamma],
                    [0, 1, 0],
                    [np.conj(gamma), 0, np.conj(zeta)],
                ]
            )
            rhs = self.P23 @ inner @ self.P23
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_minus_last_case(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            raw = rng.normal(size=4)
            raw /= np.linalg.norm(raw)
            zeta = raw[0] + 1j * raw[1]
            gamma = raw[2] + 1j * raw[3]
            if abs(zeta) < 1e-3:
                continue
            lhs = np.array(
                [
                    [zeta, gamma, 0],
                    [-np.conj(gamma), np.conj(zeta), 0],
                    [0, 0, 1],
                ]
            )
            g = np.sqrt(1 + abs(gamma) ** 2)
            s2 = np.sqrt(2.0)
            zc, gc = np.conj(zeta), np.conj(gamma)
            M1 = np.array(
                [
                    [g / zc, 0, -s2 * gamma / zc],
                    [0, 1, 0],
                    [-s2 * gc / zeta, 0, g / zeta],
                ]
            )
            M2 = np.array([[1, 0, 0], [0, s2, -1], [0, -1, s2]], dtype=complex)
            M3 = np.array([[g, 0, gamma], [0, 1, 0], [gc, 0, g]])
            M4 = np.array(
                [
                    [1, 0, 0],
                    [0, s2 / zeta, g / zc],
                    [0, g / zeta, s2 / zc],
                ]
            )
            assert np.max(np.abs(lhs - M1 @ M2 @ M3 @ M4)) < 1e-10
