import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import HYBIT_GATES, QUBIT_GATES, bit_ref, random_circuit, random_layout
from lqc import circuit as circuit_module
from lqc.circuit import (
    BitRef,
    Circuit,
    Instruction,
    ParseError,
    parse,
    serialize,
    to_matrix,
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
from lqc.gates import BUILTIN_ARITY, builtin, controlled, isometry_residual

Q0 = BitRef(BitKind.QUBIT, 0)
Q1 = BitRef(BitKind.QUBIT, 1)
H0 = BitRef(BitKind.HYBIT, 0)


class TestParse:
    def test_controlled_z(self):
        c = parse("qubits 1\nhybits 1\nCTRL q0 : Z h0\n")
        assert c.layout == RegisterLayout.of(1, 1)
        assert c.instructions == (Instruction("Z", (H0,), (Q0,)),)

    def test_single_hadamard(self):
        c = parse("qubits 1\nH q0\n")
        assert c.instructions == (Instruction("H", (Q0,)),)

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
        assert c.instructions == (Instruction("Z", (H0,), (Q0,)),)

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

    def test_empty_source(self):
        c = parse("")
        assert c.layout.num_bits == 0
        assert c.instructions == ()


class TestPolarity:
    def test_qubit_zero_control_is_native(self):
        c = parse("qubits 2\nCTRL !q0 : Z q1\n")
        assert c.instructions == (Instruction("Z", (Q1,), (Q0,), ctrl_state=(0,)),)
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
        plain = Instruction("Z", (Q1,), (Q0,))
        explicit = Instruction("Z", (Q1,), (Q0,), ctrl_state=(1,))
        assert plain.ctrl_state == (1,)
        assert plain == explicit and hash(plain) == hash(explicit)

    def test_polarity_length_mismatch_rejected(self):
        instr = Instruction("Z", (Q1,), (Q0,), ctrl_state=(0, 1))
        with pytest.raises(LqcError, match="trigger value"):
            Circuit(RegisterLayout.of(2, 0), (instr,))

    def test_polarity_value_rejected(self):
        instr = Instruction("Z", (Q1,), (Q0,), ctrl_state=(2,))
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


class TestSerialize:
    def test_empty_two_qubits(self):
        assert serialize(Circuit(RegisterLayout.of(2, 0))) == "qubits 2\n"

    def test_canonical_ctrl_form(self):
        c = Circuit(
            RegisterLayout.of(3, 0),
            (Instruction("Z", (BitRef(BitKind.QUBIT, 2),), (Q0, Q1)),),
        )
        assert serialize(c).splitlines()[-1] == "CTRL q0 q1 : Z q2"

    def test_param_precision(self):
        chi = 0.12345678901234567
        c = Circuit(
            RegisterLayout.of(0, 1),
            (Instruction("BOOST", (H0,), (), chi),),
        )
        back = parse(serialize(c))
        assert back.instructions[0].param == chi

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
                tuple(bit_ref(layout, p) for p in order[:arity]),
                tuple(bit_ref(layout, p) for p in controls),
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
        targets = tuple(BitRef(kind, i) for i in range(arity))
        control = (BitRef(BitKind.QUBIT, 2),)
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
            Circuit(RegisterLayout.of(0, 1), (Instruction("X", (H0,)),))

    def test_overlapping_control_target(self):
        with pytest.raises(LqcError):
            Circuit(
                RegisterLayout.of(1, 1),
                (Instruction("Z", (Q0,), (Q0,)),),
            )

    def test_negative_bit_index(self):
        # would otherwise resolve to the last qubit and serialize as "q-1"
        with pytest.raises(LqcError, match="out of range"):
            Circuit(RegisterLayout.of(2, 0), (Instruction("X", (BitRef(BitKind.QUBIT, -1),)),))

    def test_gate_arity_mismatch(self):
        with pytest.raises(LqcError):
            Circuit(
                RegisterLayout.of(2, 0),
                (Instruction("H", (Q0, Q1)),),
            )


class TestValidateOnce:
    """Each instruction passes validate_instruction once, where it enters a
    Circuit."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = []
        original = circuit_module.validate_instruction

        def counting(layout, instr):
            seen.append(instr)
            return original(layout, instr)

        monkeypatch.setattr(circuit_module, "validate_instruction", counting)
        return seen

    def test_constructor_checks_each_instruction(self, checked):
        layout = RegisterLayout("qhqh")
        c = random_circuit(np.random.default_rng(3), layout, 25)
        assert checked == list(c.instructions)

    def test_parse_checks_each_instruction_once(self, checked):
        layout = RegisterLayout.of(2, 2)
        c = random_circuit(np.random.default_rng(4), layout, 30)
        gate = np.diag([1.0, 1j])
        c = c.concat(Circuit(layout, (Instruction("G", (H0,), matrix=gate),), {"G": (1, gate)}))
        checked.clear()
        parsed = parse(serialize(c))
        assert parsed == c
        assert checked == list(c.instructions)

    def test_concat_checks_nothing(self, checked):
        layout = RegisterLayout("qhqh")
        rng = np.random.default_rng(5)
        a, b = random_circuit(rng, layout, 10), random_circuit(rng, layout, 12)
        checked.clear()
        joined = a.concat(b)
        assert checked == []
        assert joined == Circuit(layout, a.instructions + b.instructions)
        assert type(joined.instructions) is tuple

    def test_compile_checks_each_emitted_instruction_once(self, checked):
        from lqc.core import metric_vector
        from lqc.gates import random_isometry_for_signs
        from lqc.synthesis import compile

        layout = RegisterLayout("qhh")
        A = random_isometry_for_signs(metric_vector(layout), seed=2)
        result = compile(A, layout)
        assert len(result.circuit.instructions) > 0
        assert checked == list(result.circuit.instructions)


class TestFrozen:
    """A Circuit cannot change after validation, so `run` and `to_matrix`
    only ever see checked instructions."""

    def test_instructions_cannot_be_replaced(self):
        # an H on a hybit breaks the metric; assignment would get it past
        # validation and into the simulator
        c = parse("hybits 1\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.instructions = (Instruction("H", (H0,)),)
        assert c.instructions == ()

    def test_defs_are_read_only(self):
        c = parse(TestDefgate.TAU_TEXT)
        with pytest.raises(TypeError):
            c.defs["G"] = (1, np.eye(2))
        with pytest.raises(ValueError):
            c.defs["MYTAU"][1][0, 0] = 2.0
        assert c.instructions[0].matrix is c.defs["MYTAU"][1]

    def test_constructor_freezes_defs(self):
        gate = np.diag([1.0, 1j])
        defs = {"G": (1, gate)}
        c = Circuit(RegisterLayout.of(1, 0), (Instruction("G", (Q0,), matrix=gate),), defs)
        defs["H2"] = (1, np.eye(2))
        assert list(c.defs) == ["G"]
        assert not gate.flags.writeable
