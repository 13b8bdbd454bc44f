import itertools

import numpy as np
import pytest

from lqc.circuit import serialize, to_matrix
from lqc.core import BitKind, IsometryError, LqcError, RegisterLayout
from lqc.gates import (
    block_metric, builtin, controlled, isometry_residual, random_isometry_for_signs,
)
from lqc.synthesis import gadgets
from lqc.synthesis.gadgets import isometric_sqrt, lambda_k


def haar_unitary(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestIsometricSqrt:
    def test_square_reconstructs(self):
        for seed in range(20):
            V = haar_unitary(seed)
            R = isometric_sqrt(V)
            assert np.max(np.abs(R @ R - V)) < 1e-12
            assert isometry_residual(R, np.ones(2)) < 1e-12

    def test_u11_inputs_stay_u11(self):
        eta = block_metric(1, 1)
        for seed in range(20):
            V = random_isometry_for_signs(block_metric(1, 1), seed)
            R = isometric_sqrt(V)
            assert np.max(np.abs(R @ R - V)) < 1e-11
            assert isometry_residual(R, eta) < 1e-10

    def test_sqrt_of_z_is_sz(self):
        R = isometric_sqrt(builtin("Z"))
        assert np.max(np.abs(R - builtin("SZ"))) < 1e-14

    def test_negative_identity(self):
        R = isometric_sqrt(-np.eye(2))
        assert np.max(np.abs(R @ R + np.eye(2))) < 1e-13

    def test_rejects_nonisometry(self):
        with pytest.raises(IsometryError):
            isometric_sqrt(np.diag([2.0, 1.0]))


def lifted(circ):
    return to_matrix(circ)


class TestSingleControl:
    def test_k1_is_one_instruction(self):
        circ = lambda_k(1, builtin("Z"))
        assert len(circ.instructions) == 1
        instr = circ.instructions[0]
        assert instr.gate == "Z"
        assert len(instr.controls) == 1
        assert np.max(np.abs(lifted(circ) - controlled(builtin("Z"), 1))) < 1e-14

    def test_k1_boost_on_hybit(self):
        circ = lambda_k(1, builtin("BOOST", 0.8))
        assert circ.layout.kinds[-1] is BitKind.HYBIT
        assert len(circ.instructions) == 1
        assert circ.instructions[0].gate == "BOOST"
        assert circ.instructions[0].param == pytest.approx(0.8)

    def test_k1_custom_gate_gets_defgate(self):
        V = haar_unitary(5)
        circ = lambda_k(1, V)
        assert len(circ.instructions) == 1
        instr = circ.instructions[0]
        assert instr.gate == "U0"
        assert np.array_equal(instr.matrix, V)
        assert "DEFGATE U0 1\n" in serialize(circ)


def all_layouts(k, target_kind):
    for ctl in itertools.product("qh", repeat=k):
        yield RegisterLayout("".join(ctl) + target_kind)


class TestControlledZ:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_all_qubit(self, k):
        circ = lambda_k(k, builtin("Z"))
        assert np.max(np.abs(lifted(circ) - controlled(builtin("Z"), k))) < 1e-10

    def test_k3_matrix_shape(self):
        got = lifted(lambda_k(3, builtin("Z")))
        want = np.diag([1.0] * 15 + [-1.0]).astype(complex)
        assert got.shape == (16, 16)
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("target_kind", ["q", "h"])
    def test_all_kind_mixtures(self, k, target_kind):
        want = controlled(builtin("Z"), k)
        for layout in all_layouts(k, target_kind):
            circ = lambda_k(k, builtin("Z"), layout)
            assert np.max(np.abs(lifted(circ) - want)) < 1e-10, layout.kinds

    def test_k4_mixed_sample(self):
        want = controlled(builtin("Z"), 4)
        for kinds in ["qqqqq", "hhhhq", "qhqhh", "hhhhh"]:
            circ = lambda_k(4, builtin("Z"), RegisterLayout(kinds))
            assert np.max(np.abs(lifted(circ) - want)) < 1e-10, kinds

    def test_controls_only_touched_diagonally(self):
        # every emitted instruction has one target; controls never exceed k
        circ = lambda_k(3, builtin("Z"), RegisterLayout("qhqq"))
        for instr in circ.instructions:
            assert len(instr.targets) == 1
            assert len(instr.controls) <= 3


class TestInvolutionConjugation:
    @pytest.mark.parametrize("name", ["X", "H"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_qubit_involutions(self, name, k):
        circ = lambda_k(k, builtin(name))
        assert np.max(np.abs(lifted(circ) - controlled(builtin(name), k))) < 1e-10

    @pytest.mark.parametrize("k", [2, 3])
    def test_tau_on_hybit(self, k):
        layout = RegisterLayout("q" * k + "h")
        circ = lambda_k(k, builtin("TAU"), layout)
        assert np.max(np.abs(lifted(circ) - controlled(builtin("TAU"), k))) < 1e-10

    def test_involution_cost_stays_small(self):
        # X conjugates to Z, so the count should match the Z count plus two
        z_count = len(lambda_k(3, builtin("Z")).instructions)
        x_count = len(lambda_k(3, builtin("X")).instructions)
        assert x_count == z_count + 2


class TestLambda2:
    """Two controls: one level of the recursion, two controlled square
    roots plus the exclusive-or gadget W(R^{-1})."""

    def test_doubly_controlled_z(self):
        circ = lambda_k(2, builtin("Z"))
        got = lifted(circ)
        want = np.diag([1.0] * 7 + [-1.0]).astype(complex)
        assert got.shape == (8, 8)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_boost_target(self):
        for chi in (0.3, 1.1):
            circ = lambda_k(2, builtin("BOOST", chi))
            want = controlled(builtin("BOOST", chi), 2)
            assert circ.layout.kinds[-1] is BitKind.HYBIT
            assert np.max(np.abs(lifted(circ) - want)) < 1e-10

    def test_uses_only_single_controls(self):
        circ = lambda_k(2, builtin("Z"))
        assert all(len(i.controls) <= 1 for i in circ.instructions)


class TestRandomTargets:
    @pytest.mark.parametrize("k", [2, 3])
    def test_unitary_targets(self, k):
        for seed in range(8):
            V = haar_unitary(100 + seed)
            circ = lambda_k(k, V)
            assert np.max(np.abs(lifted(circ) - controlled(V, k))) < 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_lorentz_targets(self, k):
        layout = RegisterLayout("q" * k + "h")
        for seed in range(8):
            V = random_isometry_for_signs(block_metric(1, 1), 200 + seed)
            circ = lambda_k(k, V, layout)
            assert np.max(np.abs(lifted(circ) - controlled(V, k))) < 1e-9

    def test_lorentz_targets_with_hybit_controls(self):
        layout = RegisterLayout("hhh")
        for seed in range(5):
            V = random_isometry_for_signs(block_metric(1, 1), 300 + seed)
            circ = lambda_k(2, V, layout)
            assert np.max(np.abs(lifted(circ) - controlled(V, 2))) < 1e-9

    def test_near_identity_phase_on_hybit(self):
        # diagonal arguments push the factor search through its split path
        layout = RegisterLayout("qqh")
        for phi in (0.01, 0.4, 2.9):
            V = np.diag([1.0, np.exp(1j * phi)]).astype(complex)
            circ = lambda_k(2, V, layout)
            assert np.max(np.abs(lifted(circ) - controlled(V, 2))) < 1e-9

    def test_phase_gate_qubit_controls(self):
        V = builtin("PHASE", 1.3)
        circ = lambda_k(3, V)
        assert np.max(np.abs(lifted(circ) - controlled(V, 3))) < 1e-9


class TestLayoutHandling:
    def test_default_layout_unitary(self):
        circ = lambda_k(2, builtin("H"))
        assert circ.layout == RegisterLayout.of(3, 0)

    def test_default_layout_lorentz(self):
        circ = lambda_k(2, builtin("BOOST", 0.5))
        assert circ.layout == RegisterLayout("qqh")

    def test_bad_k(self):
        with pytest.raises(LqcError):
            lambda_k(0, builtin("Z"))

    def test_layout_size_mismatch(self):
        with pytest.raises(LqcError):
            lambda_k(2, builtin("Z"), RegisterLayout.of(2, 0))

    def test_boost_on_qubit_target_rejected(self):
        with pytest.raises(IsometryError):
            lambda_k(2, builtin("BOOST", 0.5), RegisterLayout.of(3, 0))

    def test_nonisometry_rejected(self):
        with pytest.raises(IsometryError):
            lambda_k(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestDeterminism:
    def test_same_input_same_circuit(self):
        V = random_isometry_for_signs(block_metric(1, 1), 77)
        layout = RegisterLayout("qqh")
        a = serialize(lambda_k(2, V, layout))
        b = serialize(lambda_k(2, V, layout))
        assert a == b

    def test_serialized_roundtrip_matches(self):
        from lqc.circuit import parse

        V = haar_unitary(42)
        circ = lambda_k(2, V)
        reparsed = parse(serialize(circ))
        assert np.max(np.abs(lifted(reparsed) - lifted(circ))) < 1e-11


class TestWFactorCheck:
    """Each W-gadget factor set is checked against the block it realizes."""

    def test_factors_of_another_block_are_refused(self, monkeypatch):
        original = gadgets._unitary_w_factors
        other = haar_unitary(99)
        monkeypatch.setattr(gadgets, "_unitary_w_factors", lambda U: original(other))
        with pytest.raises(LqcError, match="block equations"):
            lambda_k(2, haar_unitary(5))

    def test_split_sets_check_against_their_halves(self, monkeypatch):
        original = gadgets._su11_w_factors
        calls = []

        def no_direct_set(U):
            calls.append(U)
            return None if len(calls) == 1 else original(U)

        monkeypatch.setattr(gadgets, "_su11_w_factors", no_direct_set)
        U = random_isometry_for_signs(block_metric(1, 1), 7)
        sets = gadgets._w_factor_sets(U, BitKind.HYBIT)
        assert len(sets) == 2
        # the halves are P and U P^-1, whose product is U
        assert np.allclose(calls[2] @ calls[1], U, atol=1e-12)


def _unitaries_for_w_factors():
    Q = haar_unitary(7)
    yield "generic", haar_unitary(3)
    yield "generic2", haar_unitary(11)
    yield "scalar", np.exp(0.7j) * np.eye(2, dtype=complex)
    yield "X", builtin("X")
    yield "diagonal", np.diag(np.exp([0.4j, -1.9j]))
    yield "gap 1e-9", Q @ np.diag(np.exp([0.3j, (0.3 + 1e-9) * 1j])) @ Q.conj().T


class TestNumpyFactorSolvers:
    """The eigenvector basis of the qubit W factors and the SVD kernel of
    the hybit partner search, on the arguments where each is easiest to
    get wrong."""

    @pytest.mark.parametrize(
        "U", [pytest.param(U, id=name) for name, U in _unitaries_for_w_factors()]
    )
    def test_unitary_w_factors_verify(self, U):
        gadgets._verify_w_factors(U, gadgets._unitary_w_factors(U), np.ones(2))

    @pytest.mark.parametrize(
        "row,dim",
        [
            (np.random.default_rng(5).normal(size=(1, 4)), 3),
            (1e-20 * np.random.default_rng(6).normal(size=(1, 4)), 3),
            (np.zeros((1, 4)), 4),
        ],
        ids=["generic", "tiny", "zero"],
    )
    def test_kernel_is_orthonormal_and_annihilates(self, row, dim):
        K = gadgets._kernel(row)
        assert K.shape == (4, dim)
        assert np.max(np.abs(K.conj().T @ K - np.eye(dim))) < 1e-14
        assert np.max(np.abs(row @ K)) <= 1e-14 * max(1.0, np.max(np.abs(row)))
