import numpy as np
import pytest

from lqc.circuit import Circuit, serialize, to_matrix
from lqc.core import (
    EPS_RECON,
    IsometryError,
    LqcError,
    RegisterLayout,
    metric_vector,
)
from lqc.gates import block_metric, builtin, random_isometry_for_signs
from lqc.synthesis import twolevel
from lqc.synthesis.gadgets import _Emitter
from lqc.synthesis.twolevel import (
    TwoLevelFactor,
    embed,
    two_level_factorize,
    two_level_to_circuit,
)


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
        f = TwoLevelFactor(1, 3, V, (1, 1))
        M = embed(f, 4)
        assert M[1, 1] == V[0, 0] and M[1, 3] == V[0, 1]
        assert M[3, 1] == V[1, 0] and M[3, 3] == V[1, 1]
        assert M[0, 0] == 1 and M[2, 2] == 1 and M[0, 2] == 0

    def test_equality_is_identity(self):
        # factors hold arrays: == compares identity instead of raising on
        # an ambiguous array truth value, and factors stay hashable
        a = TwoLevelFactor(0, 1, np.eye(2), (1, 1))
        b = TwoLevelFactor(0, 1, np.eye(2), (1, 1))
        assert a == a and a != b
        assert len({a, b, a}) == 2
        factors = two_level_factorize(random_isometry_for_signs(block_metric(2, 2), 3), (2, 2))
        assert factors[0] in set(factors)

    def test_rejects_bad_order(self):
        with pytest.raises(LqcError):
            TwoLevelFactor(3, 1, np.eye(2), (1, 1))

    def test_rejects_metric_violation(self):
        # a boost is not unitary, so it cannot sit on an equal-sign pair
        with pytest.raises(IsometryError):
            TwoLevelFactor(0, 1, builtin("BOOST", 0.5), (1, 1))
        TwoLevelFactor(0, 1, builtin("BOOST", 0.5), (1, -1))


class TestFactorize:
    def test_identity_gives_no_factors(self):
        assert two_level_factorize(np.eye(4), (2, 2)) == []

    def test_single_two_level_input(self):
        V = random_su2_form(3)
        A = embed(TwoLevelFactor(0, 1, V, (1, 1)), 4)
        factors = two_level_factorize(A, (4, 0))
        assert len(factors) == 1
        assert np.max(np.abs(embed(factors[0], 4) - A)) < 1e-12

    def test_random_2_2(self):
        for seed in range(10):
            A = random_isometry_for_signs(block_metric(2, 2), seed)
            factors = two_level_factorize(A, (2, 2))
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
            factors = two_level_factorize(A, (m, n))
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
        factors = two_level_factorize(A, (4, 0))
        assert len(factors) == 1
        f = factors[0]
        assert (f.i, f.j) == (2, 3)
        assert np.max(np.abs(f.V - np.diag([1.0, -1.0]))) < 1e-14

    @pytest.mark.parametrize("factor", [1.001, np.nan], ids=["scaled", "nan"])
    def test_each_block_is_checked_against_its_pair_metric(self, monkeypatch, factor):
        # factors are built without the constructor's check, so the one
        # batched check has to catch a block that is off its metric; NaN
        # compares false with every bound, so it must read as a failure
        original = twolevel._pair_inverse
        calls = []

        def scaling_third(M, eta):
            calls.append(M)
            out = original(M, eta)
            return out * factor if len(calls) == 3 else out

        monkeypatch.setattr(twolevel, "_pair_inverse", scaling_third)
        A = random_isometry_for_signs(block_metric(2, 2), 5)
        with pytest.raises(IsometryError, match="pair metric"):
            two_level_factorize(A, (2, 2))
        assert len(calls) > 3

    def test_a_nan_reconstruction_is_refused(self, monkeypatch):
        # a factor that turns NaN after the pair check leaves the rebuilt
        # product NaN, which the reconstruction check must refuse
        original = twolevel._trusted_factor
        calls = []

        def nan_third(i, j, V, metric_pair):
            calls.append(V)
            return original(i, j, V * np.nan if len(calls) == 3 else V, metric_pair)

        monkeypatch.setattr(twolevel, "_trusted_factor", nan_third)
        with pytest.raises(LqcError, match="reconstruction error nan"):
            two_level_factorize(random_isometry_for_signs(block_metric(2, 2), 5), (2, 2))

    def test_rejects_non_isometry(self):
        with pytest.raises(IsometryError):
            two_level_factorize(np.ones((3, 3)), (2, 1))

    def test_metric_argument_forms(self):
        A = random_isometry_for_signs(block_metric(2, 1), 9)
        by_pair = two_level_factorize(A, (2, 1))
        by_vector = two_level_factorize(A, np.array([1.0, 1.0, -1.0]))
        assert len(by_pair) == len(by_vector)

    def test_metric_matrix_refused(self):
        # the metric is a signature or a sign vector, never a diagonal matrix
        A = random_isometry_for_signs(block_metric(2, 1), 9)
        with pytest.raises(LqcError, match="sign vector"):
            two_level_factorize(A, np.diag([1.0, 1.0, -1.0]))


class TestPatternControl:
    """A single-bit gate controlled on a pattern of trigger values is one
    instruction, named by `_Emitter`."""

    def test_no_zeros_single_instruction(self):
        layout = RegisterLayout.of(3, 0)
        [instr] = _Emitter(layout).emit({0: 1, 1: 1}, 2, builtin("H"))
        assert (instr.gate, instr.targets, instr.controls) == ("H", (2,), (0, 1))
        assert instr.ctrl_state == (1, 1)

    def test_zero_pattern_matches_oracle(self):
        layout = RegisterLayout.of(3, 0)
        V = random_su2_form(7)
        circ = Circuit(layout, tuple(_Emitter(layout).emit({0: 0, 1: 1}, 2, V)))
        assert [i.ctrl_state for i in circ.instructions] == [(0, 1)]
        got = to_matrix(circ)
        want = np.eye(8, dtype=complex)
        want[np.ix_((2, 3), (2, 3))] = V  # bits (0,1) = (0,1), target varies
        assert np.max(np.abs(got - want)) < 1e-12

    def test_all_zero_pattern(self):
        layout = RegisterLayout.of(2, 0)
        V = random_su2_form(8)
        circ = Circuit(layout, tuple(_Emitter(layout).emit({0: 0}, 1, V)))
        got = to_matrix(circ)
        want = np.eye(4, dtype=complex)
        want[np.ix_((0, 1), (0, 1))] = V
        assert np.max(np.abs(got - want)) < 1e-12

    def test_target_in_pattern_rejected(self):
        layout = RegisterLayout.of(2, 0)
        with pytest.raises(LqcError, match="duplicate bit"):
            Circuit(layout, tuple(_Emitter(layout).emit({1: 1}, 1, builtin("Z"))))


def factor_for(layout, i, j, V):
    return TwoLevelFactor(i, j, V, tuple(metric_vector(layout)[[i, j]].tolist()))


def check_lowering(layout, i, j, V, tol=1e-8):
    f = factor_for(layout, i, j, V)
    circ = two_level_to_circuit(f, layout)
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
            two_level_to_circuit(TwoLevelFactor(i, j, V, (si, sj)), layout)

    def test_dimension_mismatch(self):
        layout = RegisterLayout.of(2, 0)
        f = TwoLevelFactor(0, 7, np.eye(2), (1, 1))
        with pytest.raises(LqcError):
            two_level_to_circuit(f, layout)

    def test_metric_pair_mismatch(self):
        layout = RegisterLayout("qh")
        f = TwoLevelFactor(0, 3, np.eye(2), (1, 1))  # index 3 is negative here
        with pytest.raises(LqcError):
            two_level_to_circuit(f, layout)


class TestFactorizeLowerRoundtrip:
    @pytest.mark.parametrize("kinds", ["qq", "qh", "hh"])
    def test_two_bit_registers(self, kinds):
        from lqc.gates import random_isometry_for_signs

        layout = RegisterLayout(kinds)
        s = metric_vector(layout).astype(float)
        for seed in range(4):
            A = random_isometry_for_signs(s, 400 + seed)
            factors = two_level_factorize(A, s)
            got = np.eye(layout.dimension, dtype=complex)
            for f in factors:
                got = got @ to_matrix(two_level_to_circuit(f, layout))
            assert np.max(np.abs(got - A)) < 1e-8

    def test_three_bit_mixed(self):
        from lqc.gates import random_isometry_for_signs

        layout = RegisterLayout("qqh")
        s = metric_vector(layout).astype(float)
        A = random_isometry_for_signs(s, 900)
        factors = two_level_factorize(A, s)
        got = np.eye(8, dtype=complex)
        for f in factors:
            got = got @ to_matrix(two_level_to_circuit(f, layout))
        assert np.max(np.abs(got - A)) < 1e-7


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
