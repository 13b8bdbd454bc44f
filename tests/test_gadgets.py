import hashlib
import itertools

import numpy as np
import pytest

from conftest import controlled
from lqc.circuit import serialize, to_matrix
from lqc.core import BitKind, IsometryError, LqcError, RegisterLayout
from lqc.gates import (
    block_metric, builtin, isometry_residual, random_isometry_for_signs,
)
from lqc.synthesis import gadgets
from lqc.synthesis.gadgets import isometric_sqrt, lambda_k


def rot_z(t):
    return np.diag([np.exp(1j * t), np.exp(-1j * t)])


def _rapidity_battery(seed, chis):
    """Four U(1,1) targets e^{i phi} rot_z(a) BOOST(chi) rot_z(b) per rapidity
    chi, with (a, b, phi) drawn in turn from one seeded stream."""
    rng = np.random.default_rng(seed)
    out = {}
    for chi in chis:
        for _ in range(4):
            a, b, phi = rng.uniform(-3, 3, 3)
            V = np.exp(1j * phi) * rot_z(a) @ builtin("BOOST", chi) @ rot_z(b)
            out.setdefault(chi, []).append(V)
    return out


RAPIDITY_BATTERY = _rapidity_battery(123, (0, 0.1, 0.5, 1, 2, 4, 6))


def relative_error(circ, V, k):
    return np.max(np.abs(lifted(circ) - controlled(V, k))) / max(1.0, np.max(np.abs(V)))


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


def random_involution(kind, seed):
    """Q diag(1, -1) Q^{-1}, an involution with det -1: Q is Haar on a
    qubit, and in U(1,1) with rapidity up to 2 on a hybit."""
    if kind == "q":
        Q = haar_unitary(seed)
    else:
        rng = np.random.default_rng(seed)
        a, b, phi = rng.uniform(-3, 3, 3)
        Q = np.exp(1j * phi) * rot_z(a) @ builtin("BOOST", rng.uniform(0, 2)) @ rot_z(b)
    return Q @ np.diag([1.0, -1.0]) @ np.linalg.inv(Q)


class TestInvolutions:
    """Involutions with det -1 take the same recursion as every other
    target: two controlled square roots plus the W-gadget."""

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

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["q", "h"])
    def test_random_involutions_every_control_mix(self, kind, seed, k):
        V = random_involution(kind, 400 + seed)
        for mix in itertools.product("qh", repeat=k):
            circ = lambda_k(k, V, RegisterLayout("".join(mix) + kind))
            assert relative_error(circ, V, k) <= 1e-9, mix


class TestGateCounts:
    """The cost of one recursion rule: each level spends four W factors,
    a phase corrector and two square roots on (k-1)-control gates."""

    @pytest.mark.parametrize("name", ["X", "H", "Z"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_qubit_flips_cost_6_to_the_k_minus_1(self, name, k):
        assert len(lambda_k(k, builtin(name)).instructions) == 6 ** (k - 1)

    @pytest.mark.parametrize("k, count", [(2, 7), (3, 47), (4, 309)])
    def test_tau_on_hybit(self, k, count):
        layout = RegisterLayout("q" * k + "h")
        assert len(lambda_k(k, builtin("TAU"), layout).instructions) == count


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
        # diagonal arguments have diagonal squares, whose partner axis is
        # the fallback e1
        layout = RegisterLayout("qqh")
        for phi in (0.01, 0.4, 2.9):
            V = np.diag([1.0, np.exp(1j * phi)]).astype(complex)
            circ = lambda_k(2, V, layout)
            assert np.max(np.abs(lifted(circ) - controlled(V, 2))) < 1e-9

    def test_phase_gate_qubit_controls(self):
        V = builtin("PHASE", 1.3)
        circ = lambda_k(3, V)
        assert np.max(np.abs(lifted(circ) - controlled(V, 3))) < 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("j", range(4))
    def test_rapidity_6_targets_every_control_mix(self, j, k):
        # the hybit partner search with a margin cut refused 20 of these 48
        # calls: an emitted gate's residual above EPS_ISO, or a W residue
        # that was not a pure phase
        V = RAPIDITY_BATTERY[6][j]
        for mix in itertools.product("qh", repeat=k):
            circ = lambda_k(k, V, RegisterLayout("".join(mix) + "h"))
            assert relative_error(circ, V, k) <= 1e-9, mix

    @pytest.mark.slow
    @pytest.mark.xfail(
        strict=True,
        raises=LqcError,
        reason="ROADMAP item 10: an emitted U gate is not metric-preserving at k = 4",
    )
    @pytest.mark.parametrize("mix", ["qqqq", "hqhq", "hhhh"])
    @pytest.mark.parametrize("j", range(4))
    def test_rapidity_6_targets_at_k4(self, j, mix):
        V = RAPIDITY_BATTERY[6][j]
        circ = lambda_k(4, V, RegisterLayout(mix + "h"))
        assert relative_error(circ, V, 4) <= 1e-9

    # refusals out of 48 calls per rapidity; a bound may only go down
    MAX_REFUSED = {6.5: 8, 7: 32, 8: 44}

    @pytest.mark.parametrize("chi", sorted(MAX_REFUSED))
    def test_high_rapidity_refusals_do_not_grow(self, chi):
        refused = 0
        for V in _rapidity_battery(5, sorted(self.MAX_REFUSED))[chi]:
            for k in (2, 3):
                for mix in itertools.product("qh", repeat=k):
                    try:
                        circ = lambda_k(k, V, RegisterLayout("".join(mix) + "h"))
                    except LqcError:
                        refused += 1
                        continue
                    assert relative_error(circ, V, k) <= 1e-9, (k, mix)
        assert refused <= self.MAX_REFUSED[chi]


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

    def test_target_must_be_2x2(self):
        with pytest.raises(LqcError, match="must be 2x2"):
            lambda_k(2, np.eye(4))

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


def instruction_digest(circ) -> str:
    """SHA-256 of every instruction's gate, bits, trigger values, parameter
    repr and DEFGATE matrix bytes."""
    h = hashlib.sha256()
    for i in circ.instructions:
        h.update(repr((i.gate, i.targets, i.controls, i.ctrl_state, repr(i.param))).encode())
        if i.matrix is not None:
            h.update(i.matrix.tobytes())
    return h.hexdigest()


GOLDEN_TARGETS = {
    "X": builtin("X"),
    "H": builtin("H"),
    "TAU": builtin("TAU"),
    "BOOST": builtin("BOOST", 1.1),
    "diag": np.diag([np.exp(0.3j), np.exp(-1.1j)]),
    "haar": haar_unitary(7),
}
# (gate count, instruction_digest) of lambda_k(k, target) on its default
# register, recorded at 8f5d386; between them the lists hold builtins,
# PHASE, BOOST and DEFGATE U-names, so a change in how emitted gates are
# named or which matrix a name carries shows here
LAMBDA_GOLDEN = {
    (2, "X"): (6, "17b1eb0a6f3a59ec2c6c5e321983659b4d46a2a8519cd373cc1eb2b34f229b26"),
    (2, "H"): (6, "ff0188c00329d06faf69a94fee8e80219baf367af6f03cff8d8b00fc56a72904"),
    (2, "TAU"): (7, "5274abf0968fbda6aa23ec365efd41efe779af854b0ce4c5a5ba5adb89507db8"),
    (2, "BOOST"): (6, "d3fe69259da94a85b2ba40433d647f184f9f5264172e882fa7d04480c4fa0d2c"),
    (2, "diag"): (6, "c69017b9ee20e406ed6435b10df5da3507cec59bf922f5caf30a5f9b19cbaf88"),
    (2, "haar"): (6, "a52b59a57104d7879b183ea4c9887b25a61e3c0bd4d852cd2e8667f21a083900"),
    (3, "X"): (36, "265d4aa6e5a5a06d14418b8e0cd36fcecec7c5f53406d86f67f266eda7a64526"),
    (3, "H"): (36, "47c744f1b18440e10bc151b96091b4e6129699d054602173ce3518c21198634c"),
    (3, "TAU"): (47, "e3118701a24ee4d67a1f531a796b2c0072c4e589a9dd5165a86ad35183623da6"),
    (3, "BOOST"): (38, "88f3e6a3e8b249f04fccbfd851666b9d25212804daa20be34daea7e0ca0c6c28"),
    (3, "diag"): (36, "2b476f16b01e6c9c135705010870689e5fd5c198540bc95289b28d3379278794"),
    (3, "haar"): (36, "43c8d58e4ab96e292c3c5e15fff7773e47a86f5b1add6198f7eb1df252d1eb54"),
}


class TestGolden:
    @pytest.mark.parametrize("k, name", sorted(LAMBDA_GOLDEN))
    def test_instruction_lists(self, k, name):
        circ = lambda_k(k, GOLDEN_TARGETS[name])
        assert (len(circ.instructions), instruction_digest(circ)) == LAMBDA_GOLDEN[k, name]


class TestWFactorCheck:
    """Each W-gadget factor set is checked against the block it realizes."""

    def test_factors_of_another_block_are_refused(self, monkeypatch):
        original = gadgets._unitary_w_factors
        other = haar_unitary(99)
        monkeypatch.setattr(gadgets, "_unitary_w_factors", lambda U: original(other))
        with pytest.raises(LqcError, match="block equations"):
            lambda_k(2, haar_unitary(5))

    def test_no_factor_set_is_refused(self, monkeypatch):
        # a hybit argument no hyperbolic partner serves has no second route
        monkeypatch.setattr(gadgets, "_su11_w_factors", lambda U: None)
        V = random_isometry_for_signs(block_metric(1, 1), 7)
        with pytest.raises(LqcError, match="factor search failed"):
            lambda_k(2, V, RegisterLayout("qqh"))

    @pytest.mark.parametrize("kinds", ["qqh", "qhh", "hhh"])
    def test_scalar_square_takes_the_shortcut(self, kinds, monkeypatch):
        # the square root of a scalar V is a scalar U with U0^2 = +-I, which
        # needs no hyperbolic partner: A = B = I and C = D = U
        original = gadgets._su11_w_factors
        sets = []

        def recorded(U):
            sets.append(original(U))
            return sets[-1]

        monkeypatch.setattr(gadgets, "_su11_w_factors", recorded)
        V = 1j * np.eye(2)
        circ = lambda_k(2, V, RegisterLayout(kinds))
        assert len(sets) == 1
        A, B, C, D, _ = sets[0]
        assert np.array_equal(A, np.eye(2)) and np.array_equal(B, np.eye(2))
        assert np.array_equal(C, D)
        assert len(circ.instructions) == 5
        assert np.max(np.abs(lifted(circ) - controlled(V, 2))) < 1e-15


def _unitaries_for_w_factors():
    Q = haar_unitary(7)
    yield "generic", haar_unitary(3)
    yield "generic2", haar_unitary(11)
    yield "scalar", np.exp(0.7j) * np.eye(2, dtype=complex)
    yield "X", builtin("X")
    yield "diagonal", np.diag(np.exp([0.4j, -1.9j]))
    yield "gap 1e-9", Q @ np.diag(np.exp([0.3j, (0.3 + 1e-9) * 1j])) @ Q.conj().T


class TestNumpyFactorSolvers:
    """The eigenvector basis of the qubit W factors, the closed-form
    hyperbolic partner and the eigenvector conjugator of the hybit ones,
    on the arguments where each is easiest to get wrong."""

    @pytest.mark.parametrize(
        "U", [pytest.param(U, id=name) for name, U in _unitaries_for_w_factors()]
    )
    def test_unitary_w_factors_verify(self, U):
        gadgets._verify_w_factors(U, gadgets._unitary_w_factors(U), np.ones(2))

    @pytest.mark.parametrize("r", [0.25, 2.0, 6.5])
    @pytest.mark.parametrize("s", [1.0, -1.0])
    @pytest.mark.parametrize(
        "U0",
        [
            pytest.param(rot_z(0.3), id="diagonal"),
            pytest.param(rot_z(1.0) @ builtin("BOOST", 0.3), id="elliptic"),
            pytest.param(rot_z(0.3) @ builtin("BOOST", 0.4), id="hyperbolic"),
            pytest.param(builtin("BOOST", 3.0) @ rot_z(0.8), id="rapidity-3"),
        ],
    )
    def test_hyperbolic_partner_meets_its_conditions(self, U0, s, r):
        M = gadgets._hyperbolic_partner(U0, s, r)
        if M is None:
            # only a hyperbolic square can leave no real partner
            assert abs(np.trace(U0 @ U0)) > 2
            return
        # bounds of a few rounding errors on the largest products involved
        size = np.max(np.abs(M))
        assert isometry_residual(M, np.array([1, -1])) < 1e-15 * size**2
        assert abs(np.linalg.det(M) - 1) < 1e-15 * size**2
        assert np.trace(M) == 2 * np.cosh(r)
        bound = 1e-14 * size * np.max(np.abs(U0)) ** 2
        assert abs(np.trace(U0 @ U0 @ M) - s * np.trace(M)) < bound

    def test_hyperbolic_partner_of_a_scalar_square_is_none(self):
        assert gadgets._hyperbolic_partner(1j * np.eye(2), -1.0, 1.0) is None

    def test_isotropic_conjugator_refuses_unequal_traces(self):
        with pytest.raises(LqcError, match="conjugacy eigenvalue mismatch"):
            gadgets._isotropic_conjugator(builtin("BOOST", 0.5), builtin("BOOST", 1.0))

    def test_isotropic_conjugator_refuses_the_identity(self):
        # the eigenvectors of I are the basis vectors, orthogonal under eta
        with pytest.raises(LqcError, match="degenerate eigenvector pairing"):
            gadgets._isotropic_conjugator(np.eye(2), np.eye(2))
