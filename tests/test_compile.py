import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import controlled, perfbench_modules
from lqc.circuit import to_matrix
from lqc.core import (
    EPS_ISO,
    EPS_RECON,
    BitKind,
    IsometryError,
    LqcError,
    RegisterLayout,
    metric_vector,
)
from lqc.gates import builtin, isometry_residual, random_isometry_for_signs
from lqc.synthesis import compile, compiler, format_report, projective_distance, twolevel
from lqc.synthesis.words import word_search


class TestExactMode:
    def test_controlled_z_trivial(self):
        layout = RegisterLayout.of(2, 0)
        A = controlled(builtin("Z"), 1)
        res = compile(A, layout)
        assert len(res.circuit.instructions) == 1
        assert res.total_error < 1e-12
        assert res.budget_met
        assert [s.name for s in res.stages] == ["factorize", "lower"]

    def test_identity(self):
        layout = RegisterLayout.of(2, 0)
        res = compile(np.eye(4), layout)
        assert len(res.circuit.instructions) == 0
        assert res.total_error == 0.0

    @pytest.mark.parametrize("kinds", ["qq", "qh", "qqh"])
    def test_random_isometries(self, kinds):
        layout = RegisterLayout(kinds)
        s = metric_vector(layout).astype(float)
        for seed in range(3):
            A = random_isometry_for_signs(s, 600 + seed)
            res = compile(A, layout)
            assert res.total_error < 1e-6
            assert res.budget_met
            assert np.max(np.abs(to_matrix(res.circuit) - A)) < 1e-6

    # 4- and 5-bit registers with hybits: compile, reconstruct within
    # EPS_RECON and pass the `lqc verify` metric check on the full register.
    # The marked cases compile, but their residuals miss EPS_ISO (ROADMAP
    # item 1); each case carries its own mark, so one that starts to pass
    # fails as an XPASS until its mark is removed.
    @pytest.mark.parametrize(
        "kinds,seed",
        [
            *[(kinds, seed) for kinds in ("qqqh", "qhhh", "qqqqh") for seed in (600, 601)],
            ("qqhhh", 600),
            *[
                pytest.param(kinds, seed, marks=pytest.mark.xfail(raises=AssertionError))
                for kinds, seed in [
                    ("qqqhh", 600), ("qqqhh", 601), ("qqhhh", 601), ("hhhhh", 600), ("hhhhh", 601)
                ]
            ],
        ],
    )
    def test_hybit_registers_pass_verify(self, kinds, seed):
        layout = RegisterLayout(kinds)
        s = metric_vector(layout).astype(float)
        A = random_isometry_for_signs(s, seed)
        M = to_matrix(compile(A, layout).circuit)
        assert np.max(np.abs(M - A)) <= EPS_RECON
        assert isometry_residual(M, s) <= EPS_ISO

    @pytest.mark.parametrize("kinds", ["qqqqq", "qqqqh"])
    def test_one_gate_per_factor(self, kinds):
        # d(d-1)/2 = 496 factors, each one bit apart, each one gate; the
        # diagonal residue is absorbed into the factors
        layout = RegisterLayout(kinds)
        A = random_isometry_for_signs(metric_vector(layout).astype(float), 600)
        circuit = compile(A, layout).circuit
        assert len(circuit.instructions) == 496
        assert all(len(i.controls) == 4 for i in circuit.instructions)

    # the rule that lets approximate mode skip word search on registers of
    # two or more bits: there is no bare gate for a word to replace
    @pytest.mark.parametrize(
        "kinds", ["".join(k) for n in range(1, 5) for k in itertools.product("qh", repeat=n)]
    )
    @pytest.mark.parametrize("seed", [600, 601])
    def test_each_gate_controlled_on_every_other_bit(self, kinds, seed):
        layout = RegisterLayout(kinds)
        A = random_isometry_for_signs(metric_vector(layout).astype(float), seed)
        circuit = compile(A, layout).circuit
        assert circuit.instructions
        # on one bit: one target and no control
        for instr in circuit.instructions:
            assert len(instr.targets) == 1
            assert sorted(instr.controls + instr.targets) == list(range(layout.num_bits))

    # 7 bits, on the benchmark's generator: `random_isometry_for_signs` at 7
    # bits with a hybit is no isometry (residuals of 1e-7 and more). With two
    # hybits or more synthesis fails (ROADMAP items 9 and 19): `qqqqqhh`
    # misses EPS_ISO (residual 4.7e-9), and on `qqqqhhh` `lower` raises, since
    # the emitted gate U13568 has a residual of 3.0e-10 on its hybit target.
    @pytest.mark.slow
    @pytest.mark.parametrize("kinds", [
        "qqqqqqq",
        "qqqqqqh",
        pytest.param("qqqqqhh", marks=pytest.mark.xfail(strict=True, raises=AssertionError)),
        pytest.param("qqqqhhh", marks=pytest.mark.xfail(strict=True, raises=IsometryError)),
    ])
    def test_seven_bits(self, kinds):
        [gen] = perfbench_modules("gen")
        res = compile(gen.random_isometry(kinds, np.random.default_rng(100)), RegisterLayout(kinds))
        assert res.budget_met
        assert len(res.circuit.instructions) == 128 * 127 // 2

    def test_2q1h_spec_example(self):
        layout = RegisterLayout("qqh")
        s = metric_vector(layout).astype(float)
        A = random_isometry_for_signs(s, 777)
        res = compile(A, layout)
        assert res.total_error <= 1e-6

    def test_non_isometry_rejected(self):
        layout = RegisterLayout.of(2, 0)
        with pytest.raises(IsometryError):
            compile(np.diag([2.0, 1.0, 1.0, 1.0]), layout)

    def test_shape_mismatch(self):
        layout = RegisterLayout.of(2, 0)
        with pytest.raises(LqcError):
            compile(np.eye(8), layout)


class TestSingleReconstruction:
    """compile takes its "factorize" error from the one O(d^3) check in
    two_level_factorize and rebuilds no dense product of its own."""

    def test_compile_reuses_the_factorization_check(self, monkeypatch):
        checked = []

        def recording(A, signs):
            checked.append(twolevel.two_level_factorize(A, signs))
            return checked[-1]

        monkeypatch.setattr(compiler, "two_level_factorize", recording)
        layout = RegisterLayout("qqqh")
        A = random_isometry_for_signs(metric_vector(layout).astype(float), 600)
        res = compile(A, layout)
        assert len(checked) == 1
        assert res.stages[0].name == "factorize"
        assert res.stages[0].gate_count == len(checked[0])
        assert res.stages[0].max_error == checked[0].error
        assert 0.0 < checked[0].error <= EPS_RECON


class TestApproxMode:
    def test_h_tensor_i(self):
        layout = RegisterLayout.of(2, 0)
        A = np.kron(builtin("H"), np.eye(2))
        res = compile(A, layout, tol=0.05)
        assert [s.name for s in res.stages] == ["factorize", "lower", "words"]
        assert res.total_error <= 0.05
        assert res.budget_met
        # the words stage rewrites gates into grammar generators only
        for instr in res.circuit.instructions:
            if not instr.controls:
                assert instr.gate in ("H", "T", "TAU")

    def test_budget_flag_not_fatal(self):
        # a generic rotation at shallow depth misses tol but still compiles
        layout = RegisterLayout.of(1, 0)
        A = np.array(
            [[np.exp(0.5j), 0], [0, np.exp(-0.5j)]], dtype=complex
        ) @ builtin("H") @ np.array([[np.exp(-0.5j), 0], [0, np.exp(0.5j)]])
        res = compile(A, layout, tol=1e-4)
        assert isinstance(res.budget_met, bool)
        d = projective_distance(to_matrix(res.circuit), A)
        assert abs(d - res.total_error) < 1e-12

    def test_bad_tol(self):
        layout = RegisterLayout.of(1, 0)
        with pytest.raises(LqcError):
            compile(np.eye(2), layout, tol=-1.0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan])
    @pytest.mark.parametrize("kinds", ["q", "qh"])
    def test_bad_tol_refused_before_factorizing(self, monkeypatch, kinds, tol):
        def unreachable(A, signs):
            raise AssertionError("factorized under a refused tolerance")

        monkeypatch.setattr(compiler, "two_level_factorize", unreachable)
        layout = RegisterLayout(kinds)
        with pytest.raises(LqcError, match="tolerance must be positive"):
            compile(np.eye(layout.dimension), layout, tol=tol)

    def test_hybit_words(self):
        layout = RegisterLayout("h")
        A = builtin("T") @ builtin("TAU")
        res = compile(A, layout, tol=0.01)
        assert res.total_error < 1e-10
        gates = [i.gate for i in res.circuit.instructions]
        assert set(gates) <= {"T", "TAU"}

    def test_words_only_for_one_bit_registers(self, monkeypatch):
        # lowering a register of two or more bits emits only controlled
        # gates, so approximate mode has nothing to substitute there
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return word_search(*args, **kwargs)

        monkeypatch.setattr(compiler, "word_search", counting)
        layout = RegisterLayout.of(2, 0)
        A = random_isometry_for_signs(metric_vector(layout).astype(float), 5)
        res = compile(A, layout, tol=0.05)
        assert calls == []
        assert res.circuit == compile(A, layout).circuit
        assert all(instr.controls for instr in res.circuit.instructions)
        assert res.stages[-1].max_error == 0.0
        assert res.total_error <= 1e-12 and res.budget_met

        res = compile(builtin("T") @ builtin("TAU"), RegisterLayout("h"), tol=0.01)
        assert calls == [BitKind.HYBIT]
        assert {i.gate for i in res.circuit.instructions} <= {"T", "TAU"}


class TestReport:
    def test_format(self):
        layout = RegisterLayout.of(2, 0)
        res = compile(controlled(builtin("Z"), 1), layout)
        text = format_report(res)
        lines = text.strip().split("\n")
        assert lines[0].startswith("factorize\t")
        assert lines[-1].startswith("total\t")
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 3
            int(parts[1])
            float(parts[2])


ALL_KINDS = ["".join(k) for n in range(2, 5) for k in itertools.product("qh", repeat=n)]


def directly_lowerable(layout, f):
    """The pairs a factor may join: one bit apart, two hybits apart, or any
    pair with a diagonal block."""
    diff = f.i ^ f.j
    hybits = sum(layout.bit_weight(p) for p in layout.positions(BitKind.HYBIT))
    diagonal = f.V[0, 1] == 0 and f.V[1, 0] == 0
    return diagonal or diff.bit_count() == 1 or (diff.bit_count() == 2 and diff & hybits == diff)


class TestDirectlyLowerableFactors:
    """The elimination only joins pairs that lower without relabelling."""

    @pytest.mark.parametrize("kinds", ALL_KINDS)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5)
    def test_factors_lower_directly_and_compile_matches(self, kinds, seed):
        layout = RegisterLayout(kinds)
        s = metric_vector(layout).astype(float)
        d = layout.dimension
        A = random_isometry_for_signs(s, seed)
        factors = twolevel.two_level_factorize(A, s)
        assert len(factors) <= d * (d - 1) // 2
        assert all(directly_lowerable(layout, f) for f in factors)
        circuit = compile(A, layout).circuit
        assert np.max(np.abs(to_matrix(circuit) - A)) <= EPS_RECON
