import numpy as np
import pytest

from lqc.circuit import BitRef, Instruction, validate_instruction
from lqc.core import EPS_ISO, BitKind, LqcError, RegisterLayout, metric_for_kinds
from lqc.gates import (
    MatrixTextError,
    block_metric,
    boost,
    builtin,
    controlled,
    format_matrix_text,
    is_isometry,
    isometry_residual,
    parse_matrix_text,
    phase_gate,
    random_isometry_for_signs,
    random_lorentz,
)

ETA_Q = np.array([1.0, 1.0])
ETA_H = np.array([1.0, -1.0])


class TestBuiltins:
    def test_tau_matrix(self):
        tau = builtin("TAU")
        expected = np.array([[np.sqrt(2), 1j], [1j, -np.sqrt(2)]])
        assert np.allclose(tau, expected, atol=0)

    def test_t_keeps_global_phase(self):
        t = builtin("T")
        expected = np.exp(-1j * np.pi / 8) * np.diag(
            [np.exp(1j * np.pi / 8), np.exp(-1j * np.pi / 8)]
        )
        assert np.allclose(t, expected, atol=1e-15)
        assert np.allclose(t, np.diag([1.0, np.exp(-1j * np.pi / 4)]), atol=1e-15)

    def test_hadamard_from_paulis(self):
        sx, sz = builtin("X"), builtin("Z")
        assert np.allclose(builtin("H"), (sx + sz) / np.sqrt(2), atol=1e-15)

    def test_boost_zero_is_identity(self):
        assert np.allclose(builtin("BOOST", 0.0), np.eye(2), atol=0)

    def test_boost_matrix(self):
        chi = 0.7
        b = boost(chi)
        assert b[0, 0] == pytest.approx(np.cosh(chi))
        assert b[0, 1] == pytest.approx(np.sinh(chi))

    def test_cz(self):
        assert np.allclose(builtin("CZ"), np.diag([1, 1, 1, -1]), atol=0)

    def test_sz_squares_to_z(self):
        assert np.allclose(builtin("SZ") @ builtin("SZ"), builtin("Z"), atol=0)
        assert np.allclose(builtin("SZ") @ builtin("SZD"), np.eye(2), atol=0)

    def test_phase(self):
        assert np.allclose(phase_gate(np.pi), builtin("Z"), atol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(LqcError):
            builtin("FOO")

    def test_missing_param(self):
        with pytest.raises(LqcError):
            builtin("BOOST")

    def test_unexpected_param(self):
        with pytest.raises(LqcError):
            builtin("H", 1.0)


class TestLocalMetric:
    """The metric of the bits a gate acts on, in the listed order."""

    def test_single_qubit(self):
        layout = RegisterLayout.of(1, 1)
        assert np.array_equal(metric_for_kinds(layout.kinds[:1]), ETA_Q)

    def test_qubit_hybit(self):
        layout = RegisterLayout.of(1, 1)
        assert np.array_equal(metric_for_kinds(layout.kinds), [1, -1, 1, -1])

    def test_hybit_qubit(self):
        # listed order matters: diag(1,-1) x diag(1,1)
        layout = RegisterLayout.of(1, 1)
        assert np.array_equal(metric_for_kinds(layout.kinds[::-1]), [1, 1, -1, -1])

    def test_duplicate_bit(self):
        q0 = BitRef(BitKind.QUBIT, 0)
        with pytest.raises(LqcError):
            validate_instruction(RegisterLayout.of(2, 0), Instruction("CZ", (q0, q0)))

    def test_out_of_range(self):
        q1 = BitRef(BitKind.QUBIT, 1)
        with pytest.raises(LqcError, match="out of range"):
            validate_instruction(RegisterLayout.of(1, 0), Instruction("Z", (q1,)))


class TestIsIsometry:
    def test_tau_on_hybit(self):
        ok, resid = is_isometry(builtin("TAU"), ETA_H)
        assert ok and resid <= 1e-12

    def test_cnot_on_qubit_hybit_fails(self):
        cnot = controlled(builtin("X"), 1)
        eta = metric_for_kinds("qh")
        ok, resid = is_isometry(cnot, eta)
        assert not ok
        assert resid >= 1.0

    def test_identity(self):
        ok, resid = is_isometry(np.eye(4), [1, -1, -1, 1])
        assert ok and resid == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(LqcError):
            is_isometry(np.eye(2), [1, 1, 1])

    @pytest.mark.parametrize("name", ["H", "T", "X", "Y", "Z", "SZ", "SZD"])
    def test_qubit_builtins(self, name):
        ok, resid = is_isometry(builtin(name), ETA_Q)
        assert ok and resid <= 1e-12

    @pytest.mark.parametrize(
        "name,param",
        [("T", None), ("TAU", None), ("Z", None), ("SZ", None), ("SZD", None),
         ("BOOST", 0.8), ("PHASE", 1.3)],
    )
    def test_hybit_builtins(self, name, param):
        ok, resid = is_isometry(builtin(name, param), ETA_H)
        assert ok and resid <= 1e-12

    @pytest.mark.parametrize("kinds", ["qq", "qh", "hq", "hh"])
    def test_cz_on_all_metrics(self, kinds):
        ok, resid = is_isometry(builtin("CZ"), metric_for_kinds(kinds))
        assert ok and resid <= 1e-12

    @pytest.mark.parametrize("ctrl", ["q", "h"])
    def test_controlled_x_fails_exactly_on_hybit_target(self, ctrl):
        cx = controlled(builtin("X"), 1)
        ok_q, _ = is_isometry(cx, metric_for_kinds(ctrl + "q"))
        ok_h, _ = is_isometry(cx, metric_for_kinds(ctrl + "h"))
        assert ok_q and not ok_h

    def test_det_magnitude_one(self):
        for mat, eta in [
            (builtin("H"), ETA_Q),
            (builtin("TAU"), ETA_H),
            (boost(1.3), ETA_H),
            (random_lorentz(2, 2, 5), block_metric(2, 2)),
        ]:
            assert is_isometry(mat, eta)[0]
            assert abs(np.linalg.det(mat)) == pytest.approx(1.0, abs=1e-10)


class TestControlled:
    def test_cz_base(self):
        assert np.allclose(controlled(builtin("Z"), 1), builtin("CZ"), atol=0)

    def test_two_controls(self):
        expected = np.diag([1.0] * 7 + [-1.0])
        assert np.allclose(controlled(builtin("Z"), 2), expected, atol=0)

    def test_identity_lift(self):
        assert np.allclose(controlled(np.eye(2), 3), np.eye(16), atol=0)

    def test_rejects_zero_controls(self):
        with pytest.raises(LqcError):
            controlled(builtin("Z"), 0)

    @pytest.mark.parametrize("kinds", ["qqq", "qqh", "qhq", "hqh", "hhh"])
    def test_isometry_closure(self, kinds):
        # lifting preserves admissibility whenever the target block is admissible
        target_eta = metric_for_kinds(kinds[-1])
        gate = builtin("TAU") if kinds[-1] == "h" else builtin("H")
        assert is_isometry(gate, target_eta)[0]
        lifted = controlled(gate, 2)
        assert is_isometry(lifted, metric_for_kinds(kinds))[0]


class TestRandomLorentz:
    def test_unitary_case(self):
        u = random_lorentz(2, 0, 3)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_isometry(self, m, n):
        u = random_lorentz(m, n, 11)
        assert isometry_residual(u, block_metric(m, n)) <= 1e-12

    def test_deterministic(self):
        a = random_lorentz(2, 2, 42)
        b = random_lorentz(2, 2, 42)
        assert np.array_equal(a, b)

    def test_interleaved_signs(self):
        signs = [1, -1, 1, -1]
        u = random_isometry_for_signs(signs, 9)
        assert isometry_residual(u, np.array(signs)) <= 1e-12


class TestMatrixText:
    def test_roundtrip(self):
        mat = random_lorentz(1, 1, 1)
        text = format_matrix_text(mat, 1, 1)
        back, (m, n) = parse_matrix_text(text)
        assert (m, n) == (1, 1)
        assert np.allclose(back, mat, atol=0)

    def test_comments_and_blanks(self):
        text = "# tau\ndim 1 1\n\n1.4142135623730951,0 0,1\n0,1 -1.4142135623730951,0\n"
        mat, sig = parse_matrix_text(text)
        assert sig == (1, 1)
        assert np.allclose(mat, builtin("TAU"), atol=1e-15)

    def test_bad_header(self):
        with pytest.raises(MatrixTextError):
            parse_matrix_text("2 1 1\n1,0 0,0\n0,0 1,0\n")

    def test_wrong_row_count(self):
        with pytest.raises(MatrixTextError):
            parse_matrix_text("dim 1 1\n1,0 0,0\n")

    def test_bad_entry(self):
        with pytest.raises(MatrixTextError):
            parse_matrix_text("dim 1 0\nnope\n")

    def test_17_digit_fidelity(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back, _ = parse_matrix_text(format_matrix_text(mat, 2, 1))
        assert np.array_equal(back, mat)
