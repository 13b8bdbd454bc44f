import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import controlled, format_matrix_text
from lqc.circuit import Instruction, ParseError, parse_matrix_text, validate_instruction
from lqc.core import EPS_ISO, LqcError, RegisterLayout, metric_for_kinds
from lqc.gates import (
    BUILTIN_ARITY,
    PARAMETRIC,
    block_metric,
    boost,
    builtin,
    isometry_residual,
    phase_gate,
    random_isometry_for_signs,
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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "T is built as e^{-i pi/8} diag(e^{i pi/8}, e^{-i pi/8}), whose (0, 0) entry rounds "
        "to 1 - 2.2e-17j, so every T pass also scales its 0 slice; setting it to 1 moves the "
        "printed bits of run and word_search, a change of its own (ROADMAP)"))
    def test_t_gate_leaves_its_zero_slice_alone(self):
        assert builtin("T")[0, 0] == 1

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

    @pytest.mark.parametrize("name", sorted(BUILTIN_ARITY))
    def test_arity_matches_matrix(self, name):
        param = 0.5 if name in PARAMETRIC else None
        assert builtin(name, param).shape == (2 ** BUILTIN_ARITY[name],) * 2


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
        with pytest.raises(LqcError):
            validate_instruction(RegisterLayout.of(2, 0), Instruction("CZ", (0, 0)))

    def test_out_of_range(self):
        with pytest.raises(LqcError, match="out of range"):
            validate_instruction(RegisterLayout.of(1, 0), Instruction("Z", (1,)))


class TestIsIsometry:
    """A gate is an isometry when its residual is at most EPS_ISO."""

    def test_tau_on_hybit(self):
        assert isometry_residual(builtin("TAU"), ETA_H) <= 1e-12

    def test_cnot_on_qubit_hybit_fails(self):
        cnot = controlled(builtin("X"), 1)
        assert isometry_residual(cnot, metric_for_kinds("qh")) >= 1.0

    def test_identity(self):
        assert isometry_residual(np.eye(4), [1, -1, -1, 1]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(LqcError):
            isometry_residual(np.eye(2), [1, 1, 1])

    @pytest.mark.parametrize("eta", [np.eye(2), np.diag(ETA_H)])
    def test_metric_matrix_refused(self, eta):
        # one gate takes its metric as a sign vector only, as a stack does
        with pytest.raises(LqcError, match="shape mismatch"):
            isometry_residual(builtin("H"), eta)

    @pytest.mark.parametrize(
        "G,eta",
        [
            (builtin("H"), np.zeros(2)),
            (builtin("H"), [1, 2]),
            (builtin("H"), [1.0, np.nan]),
            # an identity matrix read as a stack of two sign vectors
            (np.stack([builtin("H")] * 2), np.eye(2)),
        ],
        ids=["zeros", "two", "nan", "stacked-identity"],
    )
    def test_metric_entries_must_be_signs(self, G, eta):
        with pytest.raises(LqcError, match=r"metric entries must be \+-1"):
            isometry_residual(G, eta)

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_int_and_float_signs_pass(self, dtype):
        eta = np.asarray(ETA_H, dtype=dtype)
        assert isometry_residual(builtin("TAU"), eta) <= 1e-12
        stack = np.stack([builtin("TAU"), boost(0.4)])
        assert np.all(isometry_residual(stack, np.stack([eta, eta])) <= 1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), 1e200])
    def test_non_finite_entry_is_infinitely_off(self, bad):
        # a NaN residual would pass every `resid > EPS` check; numpy's
        # overflow and invalid-value warnings are not shown
        G = np.eye(2, dtype=complex)
        G[1, 0] = bad
        for eta in (ETA_Q, ETA_H):
            assert isometry_residual(G, eta) == np.inf

    @pytest.mark.parametrize("name", ["H", "T", "X", "Y", "Z", "SZ", "SZD"])
    def test_qubit_builtins(self, name):
        assert isometry_residual(builtin(name), ETA_Q) <= 1e-12

    @pytest.mark.parametrize(
        "name,param",
        [("T", None), ("TAU", None), ("Z", None), ("SZ", None), ("SZD", None),
         ("BOOST", 0.8), ("PHASE", 1.3)],
    )
    def test_hybit_builtins(self, name, param):
        assert isometry_residual(builtin(name, param), ETA_H) <= 1e-12

    @pytest.mark.parametrize("kinds", ["qq", "qh", "hq", "hh"])
    def test_cz_on_all_metrics(self, kinds):
        assert isometry_residual(builtin("CZ"), metric_for_kinds(kinds)) <= 1e-12

    @pytest.mark.parametrize("ctrl", ["q", "h"])
    def test_controlled_x_fails_exactly_on_hybit_target(self, ctrl):
        cx = controlled(builtin("X"), 1)
        assert isometry_residual(cx, metric_for_kinds(ctrl + "q")) <= EPS_ISO
        assert isometry_residual(cx, metric_for_kinds(ctrl + "h")) > EPS_ISO

    def test_det_magnitude_one(self):
        for mat, eta in [
            (builtin("H"), ETA_Q),
            (builtin("TAU"), ETA_H),
            (boost(1.3), ETA_H),
            (random_isometry_for_signs(block_metric(2, 2), 5), block_metric(2, 2)),
        ]:
            assert isometry_residual(mat, eta) <= EPS_ISO
            assert abs(np.linalg.det(mat)) == pytest.approx(1.0, abs=1e-10)


@st.composite
def metric_gates(draw, kinds: str):
    """(gate, metric) on bits of the given kinds: a product of per-bit
    isometries, scaled by 1 + delta so that its residual of about 2|delta|
    straddles EPS_ISO, and sometimes given one NaN, infinite or 1e200 entry."""
    gate = np.ones((1, 1), dtype=complex)
    for kind in kinds:
        phi = draw(st.floats(-np.pi, np.pi))
        mix = builtin("H") if kind == "q" else boost(draw(st.floats(-1.0, 1.0)))
        gate = np.kron(gate, phase_gate(phi) @ mix)
    gate *= 1.0 + draw(st.floats(-1e-10, 1e-10))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0, np.nan), 1e200]))
    if bad is not None:
        d = len(gate)
        gate[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = bad
    return gate, metric_for_kinds(kinds)


@st.composite
def metric_gate_stacks(draw):
    """Gates of one target count, each on its own mix of bit kinds."""
    arity = draw(st.integers(1, 3))
    kinds = st.text("qh", min_size=arity, max_size=arity)
    return draw(st.lists(kinds.flatmap(metric_gates), min_size=1, max_size=12))


class TestStackedResidual:
    """A stack of gates gives each gate's residual, bit for bit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(metric_gate_stacks())
    def test_equals_residual_of_each_gate(self, gates):
        stack = np.stack([g for g, _ in gates])
        etas = np.stack([eta for _, eta in gates])
        want = [isometry_residual(g, eta) for g, eta in gates]
        assert np.array_equal(isometry_residual(stack, etas), want)
        # one metric for the whole stack
        want = [isometry_residual(g, etas[0]) for g, _ in gates]
        assert np.array_equal(isometry_residual(stack, etas[0]), want)

    def test_empty_stack(self):
        assert isometry_residual(np.zeros((0, 2, 2)), ETA_H).shape == (0,)

    @pytest.mark.parametrize("eta", [np.ones((2, 2)), np.ones((4, 2)), np.ones(4)])
    def test_metric_shape_must_match(self, eta):
        with pytest.raises(LqcError, match="shape mismatch"):
            isometry_residual(np.stack([np.eye(2)] * 3), eta)


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
        assert isometry_residual(gate, target_eta) <= EPS_ISO
        lifted = controlled(gate, 2)
        assert isometry_residual(lifted, metric_for_kinds(kinds)) <= EPS_ISO


class TestRandomLorentz:
    """Random elements of U(m, n) for the block metric diag(+1 x m, -1 x n)."""

    def test_unitary_case(self):
        u = random_isometry_for_signs(block_metric(2, 0), 3)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_isometry(self, m, n):
        u = random_isometry_for_signs(block_metric(m, n), 11)
        assert isometry_residual(u, block_metric(m, n)) <= 1e-12

    def test_deterministic(self):
        a = random_isometry_for_signs(block_metric(2, 2), 42)
        b = random_isometry_for_signs(block_metric(2, 2), 42)
        assert np.array_equal(a, b)

    def test_interleaved_signs(self):
        signs = [1, -1, 1, -1]
        u = random_isometry_for_signs(signs, 9)
        assert isometry_residual(u, np.array(signs)) <= 1e-12


class TestMatrixText:
    def test_roundtrip(self):
        mat = random_isometry_for_signs(block_metric(1, 1), 1)
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
        with pytest.raises(ParseError):
            parse_matrix_text("2 1 1\n1,0 0,0\n0,0 1,0\n")

    def test_wrong_row_count(self):
        with pytest.raises(ParseError):
            parse_matrix_text("dim 1 1\n1,0 0,0\n")

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            parse_matrix_text("dim 1 0\nnope\n")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1;0", "line 2, col 1: matrix entry '1;0' is not 're,im'"),
            ("1,x", "line 2, col 1: matrix entry '1,x' is not 're,im'"),
        ],
    )
    def test_entry_diagnostics(self, entry, message):
        with pytest.raises(ParseError) as exc:
            parse_matrix_text(f"dim 1 0\n{entry}\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            ("", (1, 1, "empty matrix file")),
            ("# only a comment\n", (1, 1, "empty matrix file")),
            ("\n  dom 1 1\n", (2, 3, "expected header 'dim m n'")),
            ("dim 1\n", (1, 1, "expected header 'dim m n'")),
            ("dim 1 x\n1,0\n", (1, 7, "metric counts must be integers")),
            ("dim 0 0\n", (1, 5, "bad metric signature (0, 0)")),
            ("dim 2 0\n1,0 0,0\n", (1, 1, "expected 2 matrix rows")),
            ("dim 2 0\n1,0 0,0\n  0,0\n", (3, 3, "expected 2 matrix entries")),
            ("dim 2 0\n1,0 0,0\n0,0  1,0,0\n", (3, 6, "matrix entry '1,0,0' is not 're,im'")),
            ("dim 2 0\n1,0 0,0 # ok\n0,0 ,1\n", (3, 5, "matrix entry ',1' is not 're,im'")),
            ("dim 1 0\n1,0\n\n  -1,0\n2,0\n", (4, 3, "more than 1 matrix rows")),
            ("dim x 1\n1,0\n", (1, 5, "metric counts must be integers")),
            ("dim 2 -1\n", (1, 7, "bad metric signature (2, -1)")),
            ("dim -1 2\n", (1, 5, "bad metric signature (-1, 2)")),
            ("dim -1 -1\n", (1, 5, "bad metric signature (-1, -1)")),
        ],
    )
    def test_each_fault_has_line_and_column(self, text, diagnostic):
        with pytest.raises(ParseError) as exc:
            parse_matrix_text(text)
        [d] = exc.value.diagnostics
        assert (d.line, d.column, d.message) == diagnostic

    def test_17_digit_fidelity(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back, _ = parse_matrix_text(format_matrix_text(mat, 2, 1))
        assert np.array_equal(back, mat)
