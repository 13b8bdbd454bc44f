import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import HYBIT_GATES, QUBIT_GATES, controlled, random_circuit, random_layout
from test_gates import metric_gates
from test_kernels import ARITY, DEFGATES, GATES, ONLY_ON, make_instruction
from lqc import circuit as circuit_module
from lqc.circuit import (
    Circuit,
    Instruction,
    ParseError,
    parse,
    serialize,
    to_matrix,
    validate_instruction,
)
from lqc.core import (
    EPS_ISO,
    BitKind,
    GuardError,
    IsometryError,
    LqcError,
    RegisterLayout,
    metric_for_kinds,
)
from lqc.gates import BUILTIN_ARITY, builtin, isometry_residual

class TestParse:
    def test_controlled_z(self):
        c = parse("qubits 1\nhybits 1\nCTRL q0 : Z h0\n")
        assert c.layout == RegisterLayout.of(1, 1)
        assert c.instructions == (Instruction("Z", (1,), (0,)),)

    def test_single_hadamard(self):
        c = parse("qubits 1\nH q0\n")
        assert c.instructions == (Instruction("H", (0,)),)

    def test_bit_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse("qubits 1\nZ q1\n")
        assert "out of range" in str(exc.value)

    def test_bit_out_of_range_is_a_diagnostic_per_bit(self):
        with pytest.raises(ParseError) as exc:
            parse("qubits 2\nhybits 1\nCTRL q2 : Z h0\nH q1\nCTRL q0 : Z h1\n")
        got = [(d.line, d.column, d.message) for d in exc.value.diagnostics]
        assert got == [
            (3, 6, "bit q2 out of range for declared register"),
            (5, 13, "bit h1 out of range for declared register"),
        ]

    def test_case_insensitive_keywords(self):
        c = parse("QUBITS 1\nhybits 1\nctrl Q0 : z H0\n")
        assert c.instructions == (Instruction("Z", (1,), (0,)),)

    def test_comments_and_blank_lines(self):
        c = parse("# a comment\nqubits 1\n\nH q0  # trailing\n")
        assert len(c.instructions) == 1

    def test_boost_param(self):
        c = parse("hybits 1\nBOOST 0.75 h0\n")
        assert c.instructions[0].param == 0.75

    def test_missing_param(self):
        with pytest.raises(ParseError) as exc:
            parse("hybits 1\nBOOST h0\n")
        assert "parameter" in str(exc.value)

    def test_unknown_gate(self):
        with pytest.raises(ParseError) as exc:
            parse("qubits 1\nFROB q0\n")
        assert "unknown gate" in str(exc.value)

    def test_duplicate_bit(self):
        with pytest.raises(ParseError) as exc:
            parse("qubits 2\nCTRL q0 : Z q0\n")
        assert "duplicate" in str(exc.value)

    def test_multiple_errors_reported(self):
        src = "qubits 1\nZ q4\nFROB q0\nH q0\n"
        with pytest.raises(ParseError) as exc:
            parse(src)
        diags = exc.value.diagnostics
        assert len(diags) == 2
        assert diags[0].line == 2 and diags[1].line == 3

    def test_diagnostic_has_column(self):
        with pytest.raises(ParseError) as exc:
            parse("qubits 1\nH nope\n")
        d = exc.value.diagnostics[0]
        assert d.line == 2 and d.column == 3

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError):
            parse("qubits 1\nqubits 2\n")

    def test_declaration_after_statement(self):
        with pytest.raises(ParseError) as exc:
            parse("qubits 1\nH q0\nhybits 1\n")
        assert "precede" in str(exc.value)

    def test_non_isometric_builtin_rejected(self):
        # X flips the hybit cone, so it must be refused on a hybit target
        with pytest.raises(ParseError) as exc:
            parse("hybits 1\nX h0\n")
        assert "metric" in str(exc.value)

    def test_metric_failures_keep_their_place(self):
        # metric failures of 1- and 2-target gates, between and after
        # failures of form; the text is what checking each statement in
        # full as it is read gives
        src = "\n".join([
            "qubits 2", "hybits 1",
            "DEFGATE W 1", "1.4142135623730951,0 0,1", "0,1 -1.4142135623730951,0",
            "DEFGATE SW 2",
            "1,0 0,0 0,0 0,0", "0,0 0,0 1,0 0,0", "0,0 1,0 0,0 0,0", "0,0 0,0 0,0 1,0",
            "FOO q0", "SW q0 q1", "SW q1 h0", "W h0", "W q1", "H h0",
            "CTRL q0 : X q5", "BOOST 0.5 q0", "CTRL h0 : W q0",
            "DEFGATE V 2", "1,0 0,0", "Z q0 q1", "CZ q0 h0",
        ]) + "\n"
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert str(exc.value) == "\n".join([
            "line 11, col 1: unknown gate 'FOO'",
            "line 13, col 1: gate SW is not metric-preserving on target kind(s) 'qh' (residual 2)",
            "line 15, col 1: gate W is not metric-preserving on target kind(s) 'q' (residual 2.83)",
            "line 16, col 1: gate H is not metric-preserving on target kind(s) 'h' (residual 1)",
            "line 17, col 13: bit q5 out of range for declared register",
            "line 18, col 1: gate BOOST is not metric-preserving on target kind(s) 'q' "
            "(residual 1.18)",
            "line 19, col 11: gate W is not metric-preserving on target kind(s) 'q' "
            "(residual 2.83)",
            "line 21, col 1: expected 4 matrix entries",
            "line 22, col 3: gate Z expects 1 target(s), got 2",
        ])

    def test_empty_source(self):
        c = parse("")
        assert c.layout.num_bits == 0
        assert c.instructions == ()


class TestPolarity:
    def test_qubit_zero_control_is_native(self):
        c = parse("qubits 2\nCTRL !q0 : Z q1\n")
        assert c.instructions == (Instruction("Z", (1,), (0,), ctrl_state=(0,)),)
        # equals Z on q1 iff q0 is 0
        expected = np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex)
        assert np.allclose(to_matrix(c), expected, atol=0)

    def test_hybit_zero_control_accepted(self):
        z = parse("qubits 1\nhybits 1\nCTRL !h0 : Z q0\n")
        # Z on q0 where h0 is 0: |q0 h0> = |10> flips sign
        assert np.array_equal(to_matrix(z), np.diag([1, 1, -1, 1]))
        c = parse("qubits 1\nhybits 2\nCTRL !h0 q0 : BOOST 0.7 h1\nCTRL !h1 : TAU h0\n")
        assert [i.ctrl_state for i in c.instructions] == [(0, 1), (0,)]
        eta = metric_for_kinds(c.layout.kinds)
        assert isometry_residual(to_matrix(c), eta) <= EPS_ISO

    def test_bang_on_target_rejected(self):
        with pytest.raises(ParseError):
            parse("qubits 1\nX !q0\n")

    def test_serializer_writes_bang(self):
        src = "qubits 2\nhybits 1\nCTRL !q0 !h0 : Z q1\nCTRL q0 !h0 : X q1\n"
        c = parse(src)
        assert serialize(c) == src
        assert parse(serialize(c)) == c

    def test_polarity_distinguishes_instructions(self):
        zero = parse("qubits 2\nCTRL !q0 : Z q1\n")
        one = parse("qubits 2\nCTRL q0 : Z q1\n")
        assert zero != one
        assert zero.instructions[0] != one.instructions[0]

    def test_left_out_polarity_means_all_ones(self):
        plain = Instruction("Z", (1,), (0,))
        explicit = Instruction("Z", (1,), (0,), ctrl_state=(1,))
        assert plain.ctrl_state == (1,)
        assert plain == explicit and hash(plain) == hash(explicit)

    def test_polarity_length_mismatch_rejected(self):
        instr = Instruction("Z", (1,), (0,), ctrl_state=(0, 1))
        with pytest.raises(LqcError, match="trigger value"):
            Circuit(RegisterLayout.of(2, 0), (instr,))

    def test_polarity_value_rejected(self):
        instr = Instruction("Z", (1,), (0,), ctrl_state=(2,))
        with pytest.raises(LqcError, match="0 or 1"):
            Circuit(RegisterLayout.of(2, 0), (instr,))


class TestDefgate:
    TAU_TEXT = (
        "hybits 1\n"
        "DEFGATE MYTAU 1\n"
        "1.4142135623730951,0 0,1\n"
        "0,1 -1.4142135623730951,0\n"
        "MYTAU h0\n"
    )

    def test_defgate_use(self):
        c = parse(self.TAU_TEXT)
        assert np.allclose(c.instructions[0].gate_matrix(), builtin("TAU"), atol=1e-15)

    def test_use_site_isometry(self):
        # the same matrix is legal on a hybit but not on a qubit
        bad = self.TAU_TEXT.replace("hybits 1", "qubits 1").replace("MYTAU h0", "MYTAU q0")
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert "metric" in str(exc.value)

    def test_redefinition_rejected(self):
        src = (
            "qubits 1\n"
            "DEFGATE G 1\n1,0 0,0\n0,0 1,0\n"
            "DEFGATE G 1\n1,0 0,0\n0,0 1,0\n"
        )
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert "already defined" in str(exc.value)

    def test_builtin_name_rejected(self):
        with pytest.raises(ParseError):
            parse("qubits 1\nDEFGATE H 1\n1,0 0,0\n0,0 1,0\n")

    def test_truncated_rows(self):
        with pytest.raises(ParseError) as exc:
            parse("qubits 1\nDEFGATE G 1\n1,0 0,0\n")
        assert "matrix rows" in str(exc.value)

    def test_refused_header_skips_its_rows(self):
        # each row would otherwise read as a statement: "unknown gate '1,0'"
        row = " ".join(["1,0"] * 2048)
        src = "qubits 11\nDEFGATE G 11\n" + f"{row}\n" * 3 + "G q0\n"
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert [d.message for d in exc.value.diagnostics] == [
            "arity 11 out of range 1..10",
            "unknown gate 'G'",
        ]

    @pytest.mark.parametrize(
        "block",
        [
            "DEFGATE H 1\n1,0 0,0\n0,0 1,0\n",  # builtin name
            "DEFGATE G 1\n1,0 0,0\n1,0\n0,0 1,0\n",  # short row
            "DEFGATE G 1\n1,0 nope\n0,0 1,0\n",  # bad entry
        ],
    )
    def test_refused_block_gives_one_diagnostic(self, block):
        with pytest.raises(ParseError) as exc:
            parse("qubits 1\n" + block + "H q0\n")
        assert len(exc.value.diagnostics) == 1


class TestSerialize:
    def test_empty_two_qubits(self):
        assert serialize(Circuit(RegisterLayout.of(2, 0))) == "qubits 2\n"

    def test_canonical_ctrl_form(self):
        c = Circuit(
            RegisterLayout.of(3, 0),
            (Instruction("Z", (2,), (0, 1)),),
        )
        assert serialize(c).splitlines()[-1] == "CTRL q0 q1 : Z q2"

    def test_positions_written_per_kind(self):
        c = Circuit(RegisterLayout.of(2, 1), (Instruction("BOOST", (2,), (0,), 0.5),))
        assert serialize(c).splitlines()[-1] == "CTRL q0 : BOOST 0.5 h0"

    def test_param_precision(self):
        chi = 0.12345678901234567
        c = Circuit(
            RegisterLayout.of(0, 1),
            (Instruction("BOOST", (0,), (), chi),),
        )
        back = parse(serialize(c))
        assert back.instructions[0].param == chi

    @pytest.mark.parametrize("kinds", ["hq", "qhq", "hqhq"])
    def test_non_canonical_register_refused(self, kinds):
        # the format declares only counts: "hq" would be read back as "qh",
        # with the X moved from the qubit at position 1 to position 0
        c = Circuit(RegisterLayout(kinds), (Instruction("X", (kinds.index("q"),)),))
        with pytest.raises(LqcError, match=kinds):
            serialize(c)

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        nq, nh = int(rng.integers(0, 4)), int(rng.integers(0, 3))
        if nq + nh == 0:
            nq = 1
        layout = RegisterLayout.of(nq, nh)
        c = random_circuit(rng, layout, int(rng.integers(0, 12)))
        assert parse(serialize(c)) == c

    @given(st.data())
    def test_roundtrip_with_polarity(self, data):
        # the file format holds canonical layouts: qubits first
        nq = data.draw(st.integers(0, 5))
        layout = RegisterLayout.of(nq, data.draw(st.integers(1 if nq == 0 else 0, 5 - nq)))
        kinds = [k.value for k in layout.kinds]
        instrs = []
        for _ in range(data.draw(st.integers(0, 8))):
            order = data.draw(st.permutations(range(len(kinds))))
            pool = QUBIT_GATES if kinds[order[0]] == "q" else HYBIT_GATES
            name = data.draw(st.sampled_from(pool + ("CZ",) if len(kinds) > 1 else pool))
            arity = BUILTIN_ARITY[name]
            ncontrols = data.draw(st.integers(0, len(kinds) - arity))
            controls = order[arity:arity + ncontrols]
            param = None
            if name in ("BOOST", "PHASE"):
                param = data.draw(st.floats(-3.0, 3.0, allow_subnormal=False))
            instrs.append(Instruction(
                name,
                tuple(order[:arity]),
                tuple(controls),
                param,
                ctrl_state=tuple(data.draw(st.integers(0, 1)) for _ in controls),
            ))
        c = Circuit(layout, tuple(instrs))
        assert parse(serialize(c)) == c

    def test_idempotent_after_one_pass(self):
        src = "QUBITS 2\n# c\nctrl q0 : z Q1\n"
        once = serialize(parse(src))
        assert serialize(parse(once)) == once

    def test_defgate_roundtrip(self):
        c = parse(TestDefgate.TAU_TEXT)
        again = parse(serialize(c))
        assert again == c

    @pytest.mark.parametrize("name", sorted(BUILTIN_ARITY))
    def test_every_builtin_roundtrips(self, name):
        # targets on whichever bit kind the gate preserves, then a controlled copy
        layout = RegisterLayout.of(3, 2)
        param = 0.375 if name in ("BOOST", "PHASE") else None
        arity = BUILTIN_ARITY[name]
        for kind in (BitKind.QUBIT, BitKind.HYBIT):
            eta = metric_for_kinds([kind] * arity)
            if isometry_residual(builtin(name, param), eta) <= 1e-10:
                break
        targets = layout.positions(kind)[:arity]
        control = (2,)
        c = Circuit(
            layout,
            (Instruction(name, targets, (), param), Instruction(name, targets, control, param)),
        )
        assert parse(serialize(c)) == c

    def test_cz_parses_with_two_targets(self):
        c = parse("qubits 2\nhybits 1\nCZ q0 h0\nCTRL q1 : CZ q0 h0\n")
        assert [len(i.targets) for i in c.instructions] == [2, 2]
        # the second CZ undoes the first where q1 is 1, leaving |q0 q1 h0> = |101>
        assert np.array_equal(to_matrix(c), np.diag([1, 1, 1, 1, 1, -1, 1, 1]))
        with pytest.raises(ParseError) as exc:
            parse("qubits 2\nCZ q0\n")
        assert "expects 2 target(s)" in str(exc.value)


class TestToMatrix:
    def test_empty_is_identity(self):
        c = Circuit(RegisterLayout.of(2, 0))
        assert np.array_equal(to_matrix(c), np.eye(4))

    def test_single_cz(self):
        c = parse("qubits 2\nCTRL q0 : Z q1\n")
        assert np.allclose(to_matrix(c), np.diag([1, 1, 1, -1]), atol=0)

    def test_double_control_gadget_circuit(self):
        # two controlled square roots plus a shared corrector equal a
        # doubly-controlled Z; the corrector is applied via DEFGATE
        w3 = np.diag([1, 1, 1, -1j, 1, -1j, 1, 1]).astype(complex)
        rows = "\n".join(
            " ".join(f"{e.real:g},{e.imag:g}" for e in row) for row in w3
        )
        src = (
            "qubits 3\n"
            f"DEFGATE WSD 3\n{rows}\n"
            "CTRL q1 : SZ q2\n"
            "CTRL q0 : SZ q2\n"
            "WSD q0 q1 q2\n"
        )
        got = to_matrix(parse(src))
        assert np.allclose(got, np.diag([1.0] * 7 + [-1.0]), atol=1e-12)

    def test_application_order(self):
        rng = np.random.default_rng(3)
        layout = RegisterLayout.of(2, 1)
        c1 = random_circuit(rng, layout, 5)
        c2 = random_circuit(rng, layout, 5)
        lhs = to_matrix(c1.concat(c2))
        rhs = to_matrix(c2) @ to_matrix(c1)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_isometric(self, seed):
        rng = np.random.default_rng(100 + seed)
        layout = random_layout(rng, max_bits=5)
        c = random_circuit(rng, layout, 10)
        eta = metric_for_kinds(layout.kinds)
        assert isometry_residual(to_matrix(c), eta) <= 1e-10

    def test_guard(self):
        c = Circuit(RegisterLayout.of(13, 0))
        with pytest.raises(GuardError):
            to_matrix(c)


class TestInstructionValidation:
    def test_non_isometric_raises_isometry_error(self):
        with pytest.raises(IsometryError):
            Circuit(RegisterLayout.of(0, 1), (Instruction("X", (0,)),))

    def test_overlapping_control_target(self):
        with pytest.raises(LqcError):
            Circuit(
                RegisterLayout.of(1, 1),
                (Instruction("Z", (0,), (0,)),),
            )

    def test_negative_bit_index(self):
        # would otherwise index the last tensor axis and serialize as "q-1"
        with pytest.raises(LqcError, match="out of range"):
            Circuit(RegisterLayout.of(2, 0), (Instruction("X", (-1,)),))

    @pytest.mark.parametrize("bit", [2, -1, 1.0, True, np.int64(0), "q0", None])
    @pytest.mark.parametrize("where", ["target", "control"])
    def test_bit_must_be_register_position(self, bit, where):
        instr = Instruction("X", (bit,)) if where == "target" else Instruction("X", (0,), (bit,))
        with pytest.raises(LqcError, match="out of range"):
            Circuit(RegisterLayout.of(2, 0), (instr,))

    def test_defgate_arity_bound(self):
        # parse refuses a DEFGATE on 11 bits, so serialize must never write one
        instr = Instruction("G", tuple(range(11)), matrix=np.eye(2, dtype=complex))
        with pytest.raises(LqcError, match="arity"):
            Circuit(RegisterLayout.of(11, 0), (instr,))

    def test_gate_arity_mismatch(self):
        with pytest.raises(LqcError):
            Circuit(
                RegisterLayout.of(2, 0),
                (Instruction("H", (0, 1)),),
            )

    def test_list_bits_become_tuples(self):
        Circuit(RegisterLayout.of(1, 0), (Instruction("X", [0]),))
        instr = Instruction("X", [1], [0])
        assert (instr.targets, instr.controls, instr.ctrl_state) == ((1,), (0,), (1,))
        assert hash(instr) == hash(Instruction("X", (1,), (0,)))
        c = Circuit(RegisterLayout.of(2, 0), (Instruction("X", [0]), instr))
        assert c.instructions == (Instruction("X", (0,)), Instruction("X", (1,), (0,)))
        with pytest.raises(LqcError, match="out of range"):
            Circuit(RegisterLayout.of(2, 0), (Instruction("X", [0.0]),))

    def test_list_matrix_becomes_a_complex_array(self):
        c = Circuit(RegisterLayout.of(1, 0), (Instruction("U", (0,), matrix=[[0, 1], [1, 0]]),))
        matrix = c.instructions[0].matrix
        assert matrix.dtype == complex and not matrix.flags.writeable
        assert np.array_equal(matrix, builtin("X"))

    @pytest.mark.parametrize(
        "fields",
        [
            {"targets": 0},
            {"targets": (0,), "controls": 1},
            {"targets": (0,), "controls": (1,), "ctrl_state": 0},
            {"targets": (0,), "matrix": [[0, 1], [1]]},
            {"targets": (0,), "matrix": [["a", "b"], ["c", "d"]]},
        ],
        ids=["int-targets", "int-controls", "int-ctrl-state", "ragged-matrix", "text-matrix"],
    )
    def test_malformed_fields_raise_lqc_error(self, fields):
        with pytest.raises(LqcError, match="malformed instruction 'U'"):
            Instruction("U", **fields)


def check_in_turn(layout, instructions):
    """(type, message) of the error that checking each instruction in full,
    one after the other, raises first; None when every one passes."""
    for instr in instructions:
        try:
            validate_instruction(layout, instr)
        except LqcError as exc:
            return type(exc), str(exc)
        kinds = "".join(layout.kinds[p].value for p in instr.targets)
        resid = isometry_residual(instr.gate_matrix(), metric_for_kinds(kinds))
        if resid > EPS_ISO:
            return IsometryError, (
                f"gate {instr.gate} is not metric-preserving on target kind(s) "
                f"{kinds!r} (residual {resid:.3g})"
            )
    return None


@st.composite
def metric_circuits(draw):
    """A 4-bit register and DEFGATEs on 1-3 of its bits, each built for a
    mix of bit kinds that may not be that of its targets, with builtins
    and an ill-formed instruction (a bit out of range) mixed in."""
    layout = RegisterLayout(tuple(draw(st.text("qh", min_size=4, max_size=4))))
    instrs = []
    for _ in range(draw(st.integers(0, 10))):
        choice = draw(st.sampled_from(["defgate", "defgate", "builtin", "ill-formed"]))
        if choice == "ill-formed":
            instrs.append(Instruction("Z", (4,)))
            continue
        if choice == "builtin":
            name = draw(st.sampled_from(["H", "X", "TAU", "CZ"]))
            instrs.append(Instruction(name, (0, 1)[:BUILTIN_ARITY[name]]))
            continue
        arity = draw(st.integers(1, 3))
        targets = tuple(draw(st.permutations(range(4)))[:arity])
        built_for = draw(st.sampled_from([
            "".join(layout.kinds[p].value for p in targets),
            draw(st.text("qh", min_size=arity, max_size=arity)),
        ]))
        gate, _ = draw(metric_gates(built_for))
        instrs.append(Instruction("G", targets, matrix=gate))
    return layout, tuple(instrs)


class TestStackedMetricCheck:
    """The metric of every instruction is checked in one stacked pass, with
    the outcome of checking each instruction in full, in turn."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(metric_circuits())
    def test_refuses_as_the_check_in_turn(self, drawn):
        layout, instrs = drawn
        want = check_in_turn(layout, instrs)
        if want is None:
            Circuit(layout, instrs)
            return
        with pytest.raises(LqcError) as exc:
            Circuit(layout, instrs)
        assert (type(exc.value), str(exc.value)) == want


class TestValidateOnce:
    """Each instruction is checked once where it enters a Circuit: its form
    by validate_instruction, its metric in the one stacked isometry_residual
    call of its target count."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = {"form": [], "metric": []}
        form, metric = circuit_module.validate_instruction, circuit_module.isometry_residual

        def form_spy(layout, instr):
            seen["form"].append(instr)
            return form(layout, instr)

        def metric_spy(stack, eta):
            seen["metric"].append(np.array(stack))
            return metric(stack, eta)

        monkeypatch.setattr(circuit_module, "validate_instruction", form_spy)
        monkeypatch.setattr(circuit_module, "isometry_residual", metric_spy)
        return seen

    @staticmethod
    def assert_checked_once(seen, instructions):
        assert seen["form"] == list(instructions)
        want: dict[int, list] = {}
        for instr in instructions:
            want.setdefault(len(instr.targets), []).append(instr.gate_matrix())
        stacks = seen["metric"]
        assert len(stacks) == len(want)
        for stack in stacks:
            assert np.array_equal(stack, want[len(stack[0]).bit_length() - 1])

    def test_constructor_checks_each_instruction(self, checked):
        layout = RegisterLayout("qhqh")
        instrs = random_circuit(np.random.default_rng(3), layout, 25).instructions
        instrs += (Instruction("CZ", (1, 2)), Instruction("G", (3,), matrix=np.diag([1.0, 1j])))
        checked["form"].clear()
        checked["metric"].clear()
        c = Circuit(layout, instrs)
        self.assert_checked_once(checked, c.instructions)

    def test_parse_checks_each_instruction_once(self, checked):
        layout = RegisterLayout.of(2, 2)
        c = random_circuit(np.random.default_rng(4), layout, 30)
        gate = np.diag([1.0, 1j])
        c = c.concat(Circuit(layout, (Instruction("G", (2,), matrix=gate), Instruction("CZ", (0, 3)))))
        checked["form"].clear()
        checked["metric"].clear()
        parsed = parse(serialize(c))
        assert parsed == c
        self.assert_checked_once(checked, c.instructions)

    def test_concat_checks_nothing(self, checked):
        layout = RegisterLayout("qhqh")
        rng = np.random.default_rng(5)
        a, b = random_circuit(rng, layout, 10), random_circuit(rng, layout, 12)
        checked["form"].clear()
        checked["metric"].clear()
        joined = a.concat(b)
        assert checked == {"form": [], "metric": []}
        assert joined == Circuit(layout, a.instructions + b.instructions)
        assert type(joined.instructions) is tuple
        checked["form"].clear()
        checked["metric"].clear()
        repeated = a.concat(b, times=3)
        assert checked == {"form": [], "metric": []}
        assert repeated.instructions == a.instructions + b.instructions * 3
        assert a.concat(b, times=0) == a

    def test_compile_checks_each_emitted_instruction_once(self, checked):
        from lqc.core import metric_vector
        from lqc.gates import random_isometry_for_signs
        from lqc.synthesis import compile

        layout = RegisterLayout("qhh")
        A = random_isometry_for_signs(metric_vector(layout), seed=2)
        result = compile(A, layout)
        assert len(result.circuit.instructions) > 0
        self.assert_checked_once(checked, result.circuit.instructions)


class TestFrozen:
    """A Circuit cannot change after validation, so `run` and `to_matrix`
    only ever see checked instructions."""

    def test_instructions_cannot_be_replaced(self):
        # an H on a hybit breaks the metric; assignment would get it past
        # validation and into the simulator
        c = parse("hybits 1\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.instructions = (Instruction("H", (0,)),)
        assert c.instructions == ()

    def test_defs_are_read_only(self):
        # a parsed DEFGATE lives only in its instruction, as a read-only array
        c = parse(TestDefgate.TAU_TEXT)
        assert not hasattr(c, "defs")
        with pytest.raises(ValueError):
            c.instructions[0].matrix[0, 0] = 2.0

    def test_constructor_freezes_defs(self):
        gate = np.diag([1.0, 1j])
        c = Circuit(RegisterLayout.of(1, 0), (Instruction("G", (0,), matrix=gate),))
        assert c.instructions[0].matrix is gate
        assert not gate.flags.writeable


class TestOneHomePerMatrix:
    """A DEFGATE matrix lives only in the instructions that use it, so the
    text that `serialize` writes runs what the circuit runs, and a circuit
    holds nothing that the text cannot write back."""

    G = np.diag([1.0, 1j])
    LAYOUT = RegisterLayout.of(1, 0)

    def one(self, name, matrix=None, param=None):
        return Circuit(self.LAYOUT, (Instruction(name, (0,), (), param, matrix),))

    def test_no_second_copy_to_disagree_with(self):
        # a U0 that runs H cannot be given a definition that writes X
        instr = Instruction("U0", (0,), matrix=builtin("H"))
        with pytest.raises(TypeError):
            Circuit(self.LAYOUT, (instr,), {"U0": (1, builtin("X"))})
        c = Circuit(self.LAYOUT, (instr,))
        back = parse(serialize(c))
        assert np.array_equal(back.instructions[0].matrix, builtin("H"))
        assert np.array_equal(to_matrix(back), to_matrix(c))

    def test_defgate_instruction_writes_its_own_block(self):
        c = self.one("G", self.G)
        assert serialize(c) == "qubits 1\nDEFGATE G 1\n1,0 0,0\n0,0 0,1\nG q0\n"
        assert parse(serialize(c)) == c

    def test_name_with_two_matrices(self):
        a, b = self.one("G", self.G), self.one("G", np.diag([1.0, -1j]))
        assert a != b
        # legal in memory, but the text could define only one of them
        both = a.concat(b)
        with pytest.raises(LqcError, match="two matrices"):
            serialize(both)
        assert serialize(a.concat(a)).count("DEFGATE") == 1

    def test_defgates_written_in_order_of_first_use(self):
        f = Instruction("F", (0,), matrix=np.diag([1.0, -1.0 + 0j]))
        g = Instruction("G", (0,), matrix=self.G)
        text = serialize(Circuit(self.LAYOUT, (g, f, g, f)))
        assert [ln for ln in text.splitlines() if ln.startswith("DEFGATE")] == [
            "DEFGATE G 1", "DEFGATE F 1",
        ]

    def test_builtin_name_carries_no_matrix(self):
        # H running X would be written as H and read back as H
        with pytest.raises(LqcError, match="cannot carry a matrix"):
            self.one("H", np.array(builtin("X")))

    @pytest.mark.parametrize(
        "name", ["h", "Tau", "G1a", "CTRL", "DEFGATE", "QUBITS", "Q0", "H12", "1G", "G-1", ""]
    )
    def test_name_that_does_not_read_back(self, name):
        matrix = None if name.upper() in BUILTIN_ARITY else self.G
        with pytest.raises(LqcError, match="does not read back"):
            self.one(name, matrix)

    def test_defgate_takes_no_parameter(self):
        with pytest.raises(LqcError, match="no parameter"):
            self.one("G", self.G, param=0.5)

    def test_parse_keeps_no_unused_defgate(self):
        c = parse("qubits 1\nDEFGATE G 1\n1,0 0,0\n0,0 1,0\nH q0\n")
        assert serialize(c) == "qubits 1\nH q0\n"

    def test_non_finite_parameter_refused(self):
        with pytest.raises(IsometryError, match="residual inf"):
            self.one("PHASE", param=float("nan"))


# the layouts the text can write: qubits first, here 1 to 4 bits
TEXT_LAYOUTS = st.integers(1, 4).flatmap(
    lambda n: st.integers(0, n).map(lambda nq: RegisterLayout.of(nq, n - nq))
)


@st.composite
def text_circuits(draw):
    """Circuits on qubits-first layouts: random_circuit instructions, then
    every builtin and the DEFGATEs of test_kernels, with controls of either
    polarity. The angles of a gate are often one of two fixed sets, so that
    a DEFGATE name recurs with one matrix as well as with two."""
    layout = draw(TEXT_LAYOUTS)
    kinds = [k.value for k in layout.kinds]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instrs = list(random_circuit(rng, layout, draw(st.integers(0, 4))).instructions)
    for _ in range(draw(st.integers(0, 8))):
        # DEFGATEs drawn about half of the time
        name = draw(st.one_of(st.sampled_from(DEFGATES), st.sampled_from(GATES)))
        allowed = [p for p, k in enumerate(kinds) if ONLY_ON.get(name, k) == k]
        if len(allowed) < ARITY[name]:
            continue
        targets = draw(st.permutations(allowed))[:ARITY[name]]
        rest = [p for p in range(len(kinds)) if p not in targets]
        controls = draw(st.lists(st.sampled_from(rest), unique=True)) if rest else []
        ctrl_state = [draw(st.integers(0, 1)) for _ in controls]
        u = draw(st.one_of(
            st.sampled_from([(0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8)]),
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        ))
        instrs.append(make_instruction(layout, name, targets, controls, ctrl_state, u))
    return Circuit(layout, tuple(instrs))


class TestRoundTripProperty:
    @given(text_circuits())
    def test_serialize_refuses_or_round_trips(self, c):
        matrices: dict[str, list] = {}
        for instr in c.instructions:
            if instr.matrix is not None:
                matrices.setdefault(instr.gate, []).append(instr.matrix)
        ambiguous = any(
            not np.array_equal(ms[0], m) for ms in matrices.values() for m in ms[1:]
        )
        if ambiguous:
            with pytest.raises(LqcError, match="two matrices"):
                serialize(c)
            return
        back = parse(serialize(c))
        assert back == c
        assert np.array_equal(to_matrix(back), to_matrix(c))
