import io
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    random_circuit, random_layout, random_state_amps, random_unitary, reference_lines,
    reference_run, sim_shaped_circuit,
)
from lqc import cli, simulator
from lqc.circuit import Circuit, Instruction, parse, serialize, to_matrix
from lqc.core import (
    EPS_PROB_SUM,
    BitKind,
    GuardError,
    LqcError,
    RegisterLayout,
    StateVector,
    basis_state,
    metric_vector,
    pattern_masses,
    pseudo_norm,
)
from lqc.simulator import (
    FORMAT_BLOCK,
    NegligibleMassWarning,
    OutcomeDistribution,
    SampleResult,
    ZeroObservableMassError,
    format_counts,
    format_distribution,
    observe,
    run,
    sample,
)


def written(write, value) -> str:
    """The text that format_distribution or format_counts writes for `value`."""
    out = io.StringIO()
    write(value, out)
    return out.getvalue()


def run_one(state, instr):
    """The state after one instruction, which enters the kernel as every
    instruction does: in a Circuit."""
    return run(Circuit(state.layout, (instr,)), state)


class TestApply:
    def test_hadamard(self):
        state = basis_state(RegisterLayout.of(1, 0), [0])
        state = run_one(state, Instruction("H", (0,)))
        assert np.allclose(state.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_boost_column_action(self):
        chi = 0.9
        state = basis_state(RegisterLayout.of(0, 1), [0])
        state = run_one(state, Instruction("BOOST", (0,), (), chi))
        assert np.allclose(state.amps, [np.cosh(chi), np.sinh(chi)], atol=1e-15)

    def test_controlled_boost(self):
        chi = 0.6
        layout = RegisterLayout.of(1, 1)
        state = basis_state(layout, [1, 0])
        state = run_one(state, Instruction("BOOST", (1,), (0,), chi))
        assert np.allclose(state.amps, [0, 0, np.cosh(chi), np.sinh(chi)], atol=1e-15)

    def test_control_off_does_nothing(self):
        layout = RegisterLayout.of(1, 1)
        state = basis_state(layout, [0, 0])
        state = run_one(state, Instruction("BOOST", (1,), (0,), 1.0))
        assert np.allclose(state.amps, [1, 0, 0, 0], atol=0)

    def test_refuses_non_isometric(self):
        state = basis_state(RegisterLayout.of(0, 1), [0])
        with pytest.raises(LqcError):
            run_one(state, Instruction("X", (0,)))

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_dense_matrix(self, seed):
        rng = np.random.default_rng(seed)
        layout = random_layout(rng, max_bits=6)
        circ = random_circuit(rng, layout, 12)
        amps = random_state_amps(rng, layout.dimension)
        expected = to_matrix(circ) @ amps
        got = run(circ, StateVector(layout, amps.copy()))
        assert np.allclose(got.amps, expected, atol=1e-12)


class TestRun:
    def test_empty_circuit(self):
        layout = RegisterLayout.of(2, 0)
        state = basis_state(layout, [1, 0])
        out = run(Circuit(layout), state)
        assert np.array_equal(out.amps, state.amps)

    def test_initial_not_mutated(self):
        layout = RegisterLayout.of(1, 0)
        state = basis_state(layout, [0])
        run(parse("qubits 1\nH q0\n"), state)
        assert np.array_equal(state.amps, [1, 0])

    def test_double_controlled_sign_flip(self):
        circ = parse("qubits 3\nCTRL q0 q1 : Z q2\n")
        out = run(circ, basis_state(circ.layout, [1, 1, 1]))
        expected = np.zeros(8)
        expected[7] = -1.0
        assert np.allclose(out.amps, expected, atol=0)

    def test_layout_mismatch(self):
        with pytest.raises(LqcError):
            run(Circuit(RegisterLayout.of(2, 0)), basis_state(RegisterLayout.of(1, 0), [0]))

    @pytest.mark.parametrize("seed", range(20))
    def test_pseudo_norm_conserved(self, seed):
        rng = np.random.default_rng(1000 + seed)
        layout = random_layout(rng, max_bits=8)
        circ = random_circuit(rng, layout, 30)
        state = StateVector(layout, random_state_amps(rng, layout.dimension))
        before = pseudo_norm(state)
        after = pseudo_norm(run(circ, state))
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


class TestInstructionIdentity:
    """`apply_all` works out each distinct instruction object once per call
    and keeps it by identity. `Instruction.__eq__` ignores `matrix`, and the
    Pauli frame makes a fresh Y pass instruction, so neither equality nor an
    id left without its object may pick the plan."""

    @staticmethod
    def lifted(gate):
        """The 3-qubit matrix of `gate` on q2 controlled by q1 (q0 the most
        significant index bit)."""
        return np.kron(np.eye(2), np.kron(np.diag([1, 0]), np.eye(2))
                       + np.kron(np.diag([0, 1]), gate))

    def test_equal_defgates_with_different_matrices(self):
        rng = np.random.default_rng(5)
        u, v = random_unitary(rng, 2), random_unitary(rng, 2)
        a = Instruction("G", (2,), (1,), matrix=u)
        b = Instruction("G", (2,), (1,), matrix=v)
        assert a == b and not np.array_equal(a.matrix, b.matrix)
        h = [Instruction("H", (p,)) for p in range(3)]
        circuit = Circuit(RegisterLayout.of(3, 0), (*h, a, b, a, b, b))
        got = run(circuit).amps
        assert got.tobytes() == reference_run(circuit).amps.tobytes()
        H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        A, B = self.lifted(u), self.lifted(v)
        want = B @ B @ A @ B @ A @ np.kron(np.kron(H, H), H)
        assert np.allclose(to_matrix(circuit), want, atol=1e-13)
        assert np.allclose(got, want[:, 0], atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_many_uncontrolled_y_between_controlled_gates(self, seed):
        # one Y object used again and again, fresh ones, and controlled lines
        # on flipped bits: every Y pass is a fresh diagonal instruction
        rng = np.random.default_rng(seed)
        layout = RegisterLayout.of(5, 1)
        again = Instruction("Y", (int(rng.integers(5)),))
        controlled = [Instruction("H", (1,), (0,)), Instruction("TAU", (5,), (1,)),
                      Instruction("X", (3,), (2, 4), ctrl_state=(0, 1)),
                      Instruction("Y", (0,), (3,))]
        instrs = [Instruction("H", (p,)) for p in range(0, 5, 2)]
        for _ in range(40):
            pick = rng.random()
            if pick < 0.3:
                instrs.append(again)
            elif pick < 0.6:
                instrs.append(Instruction("Y", (int(rng.integers(5)),)))
            else:
                instrs.append(controlled[int(rng.integers(len(controlled)))])
        circuit = Circuit(layout, tuple(instrs))
        initial = StateVector(layout, random_state_amps(rng, layout.dimension))
        for start in (None, basis_state(layout, [1, 0, 1, 1, 0, 0]), initial):
            got = run(circuit, start).amps + 0.0
            assert got.tobytes() == (reference_run(circuit, start).amps + 0.0).tobytes()


class TestStateLayout:
    """`run` returns its tensor in the memory order it ran in; `amps` lays
    it out in register index order on first access."""

    def test_amps_are_contiguous_in_register_order(self):
        circuit = sim_shaped_circuit(8, 8, 2)
        state = run(circuit)
        assert not state.tensor.flags.c_contiguous
        amps = state.amps
        assert amps.flags.c_contiguous
        assert (amps + 0.0).tobytes() == (reference_run(circuit).amps + 0.0).tobytes()

    def test_writes_through_amps_are_observed(self):
        state = run(sim_shaped_circuit(9, 6, 2))
        amps = state.amps
        amps[:] = 0.0
        amps[0b101101 << 2] = 1.0
        dist = observe(state)
        assert dist.observable_mass == 1.0
        assert dist.probabilities == {"101101": 1.0}

    def test_copy_is_independent(self):
        state = run(sim_shaped_circuit(10, 6, 2))
        before = state.amps.copy()
        twin = state.copy()
        twin.amps[:] = 0.0
        twin.tensor[(0,) * 8] = 1.0
        assert state.amps.tobytes() == before.tobytes()
        state.amps[:] = 0.0
        assert twin.amps[0] == 1.0

    def test_run_result_as_initial_continues_the_circuit(self):
        first, second = sim_shaped_circuit(11, 7, 2), sim_shaped_circuit(12, 7, 2)
        chained = run(second, run(first)).amps + 0.0
        whole = run(first.concat(second)).amps + 0.0
        assert chained.tobytes() == whole.tobytes()


class TestPeakMemory:
    """tracemalloc peaks on 16-bit circuits: the state, its visible
    probabilities and one kernel pass's chunks (the margin of test_kernels'
    tile test). So neither `run` nor `observe` copies the state back into
    register order or squares all of it, a multi-target pass runs in tiles,
    and `lqc sample` holds no state while it draws."""

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def bound(circuit):
        layout = circuit.layout
        return layout.dimension * 16 + (1 << layout.num_qubits) * 8 + 5 * simulator.TILE * 16

    def test_run_holds_one_state(self):
        circuit = sim_shaped_circuit(7, 14, 2, lines=60)
        state_bytes = circuit.layout.dimension * 16
        assert self.peak(lambda: run(circuit)) <= state_bytes + 5 * simulator.TILE * 16

    def test_observe_holds_the_state_and_its_magnitudes(self):
        circuit = sim_shaped_circuit(7, 14, 2, lines=60)
        assert self.peak(lambda: observe(run(circuit))) <= self.bound(circuit)

    def test_sample_command_holds_no_state_while_it_draws(self, tmp_path, capsys):
        circuit = sim_shaped_circuit(7, 14, 2, lines=60)
        path = tmp_path / "c.lqc"
        path.write_text(serialize(circuit))
        argv = ["sample", str(path), "--shots", "1000", "--seed", "1"]
        assert self.peak(lambda: cli.main(argv)) <= self.bound(circuit)
        assert len(capsys.readouterr().out.splitlines()) > 100

    def test_multi_target_passes_run_in_tiles(self):
        circuit = sim_shaped_circuit(7, 14, 2, lines=60)
        u2 = random_unitary(np.random.default_rng(3), 4)
        extra = (Instruction("CZ", (2, 9)), Instruction("U2", (12, 4), matrix=u2))
        circuit = Circuit(circuit.layout, circuit.instructions + extra)
        assert self.peak(lambda: observe(run(circuit))) <= self.bound(circuit)


    def test_plans_of_distinct_instructions_leave_after_their_pass(self):
        # 4000 distinct instruction objects on 8 bits: the pass loop keeps
        # the plan of an object that occurs once only until its pass is
        # made, so the peak grows by the loop's count of objects, not by a
        # plan, its indices and its slices per instruction (about 650 bytes)
        rng = np.random.default_rng(1)
        instrs = []
        for n in range(4000):
            t = int(rng.integers(8))
            controls = ((t + 1 + int(rng.integers(7))) % 8,) if n % 3 else ()
            instrs.append(Instruction(("H", "T", "X", "Y")[n % 4], (t,), controls))
        circuit = Circuit(RegisterLayout.of(8, 0), tuple(instrs))
        assert self.peak(lambda: run(circuit)) <= 256 * len(instrs)


class TestObserve:
    def test_simplest_register_formula(self):
        layout = RegisterLayout.of(1, 1)
        a = np.array([0.5, 0.3j, 0.7, 0.2])
        dist = observe(StateVector(layout, a))
        denom = 0.25 + 0.49
        assert dist.observable_mass == pytest.approx(denom, abs=1e-15)
        assert dist.probabilities["0"] == pytest.approx(0.25 / denom, abs=1e-15)
        assert dist.probabilities["1"] == pytest.approx(0.49 / denom, abs=1e-15)

    def test_basis_zero(self):
        dist = observe(basis_state(RegisterLayout.of(2, 1), [0, 0, 0]))
        assert dist.probabilities == {"00": 1.0}
        assert dist.observable_mass == 1.0

    def test_uniform(self):
        layout = RegisterLayout.of(1, 1)
        dist = observe(StateVector(layout, np.full(4, 0.5)))
        assert dist.probabilities["0"] == pytest.approx(0.5)
        assert dist.probabilities["1"] == pytest.approx(0.5)

    def test_quantum_limit(self):
        # with no hybits this is ordinary quantum measurement
        rng = np.random.default_rng(5)
        layout = RegisterLayout.of(3, 0)
        amps = random_state_amps(rng, 8)
        amps /= np.linalg.norm(amps)
        dist = observe(StateVector(layout, amps))
        assert dist.observable_mass == pytest.approx(1.0, abs=1e-12)
        for j in range(8):
            key = format(j, "03b")
            assert dist.probabilities[key] == pytest.approx(abs(amps[j]) ** 2, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        layout = RegisterLayout(("q", "h", "q"))
        dist = observe(StateVector(layout, random_state_amps(rng, 8)))
        assert sum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_is_signaled_not_raised(self):
        layout = RegisterLayout.of(0, 1)
        dist = observe(StateVector(layout, np.array([0.0, 1.0])))
        assert dist.observable_mass == 0.0
        assert dist.probabilities == {}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    @pytest.mark.parametrize("at", [0, 3])
    def test_non_finite_state_is_a_guard_error(self, bad, at):
        # at 3 no amplitude is observable: the check comes before the
        # zero-mass return; 1e200 is finite but its square overflows
        amps = np.zeros(4, complex)
        amps[at] = bad
        with pytest.raises(GuardError, match="not finite"):
            observe(StateVector(RegisterLayout.of(0, 2), amps))

    def test_negligible_mass_warning(self):
        layout = RegisterLayout.of(0, 2)
        amps = np.zeros(4)
        amps[0] = 1e-8   # observable but vanishing
        amps[3] = 1.0    # positive-metric yet unobservable
        with pytest.warns(NegligibleMassWarning):
            observe(StateVector(layout, amps))


def scrambled(amps, nbits, rng):
    """The tensor of `amps` in a random memory order with random axes stored
    reversed: the same amplitudes by register index, another layout."""
    perm = rng.permutation(nbits)
    flips = tuple(p for p in range(nbits) if rng.random() < 0.5)
    stored = np.ascontiguousarray(np.flip(amps.reshape((2,) * nbits), flips).transpose(perm))
    return np.flip(stored.transpose(np.argsort(perm)), flips)


def register_order_distribution(layout, amps):
    """probs and observable mass from the squares of the amplitudes taken in
    register index order: the formula `observe` must match bit for bit."""
    mag2 = (amps.real**2 + amps.imag**2).reshape((2,) * layout.num_bits)
    idx = [slice(None)] * layout.num_bits
    for p in layout.positions(BitKind.HYBIT):
        idx[p] = 0
    visible = np.ascontiguousarray(mag2[(*idx, ...)]).reshape(-1)
    mass = float(visible.sum())
    return visible / mass, mass


OBSERVE_LAYOUTS = ["hhqqqq", "qqhqhq", "qqqqhh", "hhhh", "qqqqq", "hqqqqqqqqqqqqqqh"]


class TestObserveLayouts:
    @pytest.mark.parametrize("kinds", OBSERVE_LAYOUTS)
    def test_scrambled_tensor_matches_register_order_squares(self, kinds):
        layout = RegisterLayout(tuple(kinds))
        rng = np.random.default_rng(len(kinds))
        for _ in range(4):
            amps = random_state_amps(rng, layout.dimension)
            for tensor in (amps, scrambled(amps, layout.num_bits, rng)):
                dist = observe(StateVector(layout, tensor))
                probs, mass = register_order_distribution(layout, amps)
                assert dist.probs.tobytes() == probs.tobytes()
                assert dist.observable_mass == mass

    @pytest.mark.parametrize("kinds", OBSERVE_LAYOUTS)
    def test_framed_run_matches_register_order_squares(self, kinds):
        layout = RegisterLayout(tuple(kinds))
        rng = np.random.default_rng(10 + len(kinds))
        for _ in range(4):
            circuit = random_circuit(rng, layout, 30)
            qubits = layout.positions(BitKind.QUBIT)
            flips = tuple(Instruction("X", (p,)) for p in qubits if rng.random() < 0.6)
            circuit = Circuit(layout, circuit.instructions + flips)
            initial = StateVector(layout, random_state_amps(rng, layout.dimension))
            state = run(circuit, initial)
            amps = np.ascontiguousarray(state.tensor).reshape(-1)
            dist = observe(state)
            probs, mass = register_order_distribution(layout, amps)
            assert dist.probs.tobytes() == probs.tobytes()
            assert dist.observable_mass == mass

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kinds", OBSERVE_LAYOUTS)
    def test_overflow_is_a_guard_error(self, kinds):
        layout = RegisterLayout(tuple(kinds))
        rng = np.random.default_rng(20)
        amps = random_state_amps(rng, layout.dimension)
        amps[rng.integers(layout.dimension)] = 1e200
        with pytest.raises(GuardError, match="not finite"):
            observe(StateVector(layout, scrambled(amps, layout.num_bits, rng)))

    @pytest.mark.parametrize("kinds", [k for k in OBSERVE_LAYOUTS if "h" in k])
    def test_tiny_observable_mass_warns(self, kinds):
        layout = RegisterLayout(tuple(kinds))
        rng = np.random.default_rng(30)
        hidden = layout.positions(BitKind.HYBIT)[-1]
        amps = random_state_amps(rng, layout.dimension).reshape((2,) * layout.num_bits)
        # the half where the last hybit reads 0 holds the observable slice;
        # scaled by 1e-8, it leaves the positive mass where that hybit and
        # one other read 1
        idx = [slice(None)] * layout.num_bits
        idx[hidden] = 0
        amps[tuple(idx)] *= 1e-8
        with pytest.warns(NegligibleMassWarning):
            observe(StateVector(layout, scrambled(amps.reshape(-1), layout.num_bits, rng)))

    @pytest.mark.parametrize("kinds", OBSERVE_LAYOUTS)
    def test_pseudo_norm_matches_the_metric_formula(self, kinds):
        layout = RegisterLayout(tuple(kinds))
        rng = np.random.default_rng(40 + len(kinds))
        for _ in range(4):
            amps = random_state_amps(rng, layout.dimension)
            mag2 = amps.real**2 + amps.imag**2
            want = float(np.dot(metric_vector(layout).astype(np.float64), mag2))
            got = pseudo_norm(StateVector(layout, scrambled(amps, layout.num_bits, rng)))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * mag2.sum())


def pattern_squares(layout, amps):
    """re*re + im*im of `amps`, taken in register index order, summed over
    each hybit pattern: the masses `pattern_masses` must give."""
    mag2 = (amps.real**2 + amps.imag**2).reshape((2,) * layout.num_bits)
    order = (*layout.positions(BitKind.HYBIT), *layout.positions(BitKind.QUBIT))
    return mag2.transpose(order).reshape(1 << layout.num_hybits, -1).sum(axis=1)


class TestPatternMasses:
    """`pattern_masses` sums each amplitude's interleaved real and imaginary
    parts in one einsum where the tensor's last memory axis has unit
    stride, and the two parts in one einsum each where no axis has."""

    @staticmethod
    def einsums(monkeypatch):
        calls = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            calls.append(args[0].dtype)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        return calls

    @staticmethod
    def framed_states(nh, rng):
        """`run` states on 7 qubits and `nh` hybits in a random order, some
        qubits left flipped by the Pauli frame, from |0...0> and from a
        random state."""
        layout = RegisterLayout(tuple(rng.permutation(["q"] * 7 + ["h"] * nh)))
        for initial in (None, StateVector(layout, random_state_amps(rng, layout.dimension))):
            circuit = random_circuit(rng, layout, 30)
            flips = tuple(Instruction("X", (p,)) for p in layout.positions(BitKind.QUBIT)
                          if rng.random() < 0.6)
            yield run(Circuit(layout, circuit.instructions + flips), initial)

    @pytest.mark.parametrize("nh", range(4))
    def test_run_states_take_one_einsum(self, nh, monkeypatch):
        rng = np.random.default_rng(60 + nh)
        for _ in range(3):
            for state in self.framed_states(nh, rng):
                assert any(s < 0 for s in state.tensor.strides)
                want = pattern_squares(state.layout, state.amps)
                calls = self.einsums(monkeypatch)
                got = pattern_masses(state)
                monkeypatch.undo()
                assert calls == [np.float64]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kinds", ["qq", "qhqh", "hhqqqh", "qqqqqqqq"])
    @pytest.mark.parametrize("step", [2, -2])
    def test_strided_tensors_take_two_einsums(self, kinds, step, monkeypatch):
        layout = RegisterLayout(tuple(kinds))
        big = random_state_amps(np.random.default_rng(len(kinds)), 2 * layout.dimension)
        state = StateVector(layout, big[::step])
        assert all(abs(s) != big.itemsize for s in state.tensor.strides)
        calls = self.einsums(monkeypatch)
        got = pattern_masses(state)
        monkeypatch.undo()
        assert len(calls) == 2
        np.testing.assert_allclose(got, pattern_squares(layout, big[::step]), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kinds", ["q", "h", "qhqh", "hhqqqh"])
    def test_all_zero_state(self, kinds):
        layout = RegisterLayout(tuple(kinds))
        zero = np.zeros(2 * layout.dimension, complex)
        for amps in (zero[:layout.dimension], zero[::2]):
            got = pattern_masses(StateVector(layout, amps))
            assert got.tolist() == [0.0] * (1 << layout.num_hybits)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad, want", [(1e200, np.inf), (np.inf, np.inf), (np.nan, np.nan)])
    @pytest.mark.parametrize("step", [1, 2])
    def test_overflow_gives_non_finite_masses_without_warnings(self, bad, want, step):
        layout = RegisterLayout(tuple("qhqh"))
        big = random_state_amps(np.random.default_rng(5), step * layout.dimension)
        big[step * 5] = bad * (1 - 1j)  # index 5 = 0101: both hybits 1, pattern 3
        got = pattern_masses(StateVector(layout, big[::step]))
        assert np.isfinite(got[:3]).all()
        np.testing.assert_equal(got[3], want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_run_state(self):
        # each BOOST 7 clears the isometry check, but 120 of them overflow;
        # test_cli's test_non_finite_state_exit_4 runs the same circuit
        # through `lqc run` and `lqc sample`, which exit 4
        state = run(parse("qubits 1\nhybits 1\nH q0\n" + "BOOST 7 h0\n" * 120))
        assert not np.isfinite(pattern_masses(state)).all()

    def test_one_pass_copies_nothing(self):
        # a 16-bit `run` state is 1 MiB; the masses take a few KiB
        state = run(sim_shaped_circuit(7, 14, 2, lines=60))
        tracemalloc.start()
        try:
            pattern_masses(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.layout.dimension * 16 // 8


class TestOutcomeDistributionChecks:
    """The refusals of `OutcomeDistribution` and their precedence: non-finite
    entries, then negative ones, then a sum off 1, with no numpy warning on
    the way."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("probs, message", [
        ([np.nan, 0.0], "probabilities must be finite"),
        ([np.nan, 1.0], "probabilities must be finite"),
        ([np.inf, 0.0], "probabilities must be finite"),
        ([-np.inf, 1.0], "probabilities must be finite"),
        ([-np.inf, np.inf], "probabilities must be finite"),
        ([-0.5, 1.5], "probabilities must be nonnegative"),
        ([-1e-300, 1.0], "probabilities must be nonnegative"),
        ([-1.0, 1.0], "probabilities must be nonnegative"),
        ([0.5, 0.5 + 2 * EPS_PROB_SUM], "probabilities sum to 1.0000000020000002, not 1"),
        ([0.5, 0.5 - 2 * EPS_PROB_SUM], "probabilities sum to 0.9999999980000001, not 1"),
        # finite entries whose sum overflows
        ([np.finfo(float).max] * 2, "probabilities sum to inf, not 1"),
        # the finite check comes first
        ([np.nan, -1.0, 2.0, 0.0], "probabilities must be finite"),
        ([-1.0, np.nan], "probabilities must be finite"),
        ([-1.0, np.inf], "probabilities must be finite"),
        # even the smallest register, of no qubits, has one outcome
        ([], "probabilities must be a vector over 2^n qubit indices"),
    ])
    def test_refused(self, probs, message):
        with pytest.raises(LqcError) as caught:
            OutcomeDistribution(np.array(probs), 1.0)
        assert str(caught.value) == message

    @pytest.mark.parametrize("probs", [
        [-0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [-0.0, -0.0], [0.5, 0.5 + 0.9 * EPS_PROB_SUM],
    ])
    def test_accepted(self, probs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = OutcomeDistribution(np.array(probs), 1.0)
        assert dist.probs.tobytes() == np.array(probs).tobytes()


class TestSample:
    def test_deterministic_state(self):
        res = sample(observe(basis_state(RegisterLayout.of(2, 0), [1, 0])), 50, seed=1)
        assert res.counts == {"10": 50}

    def test_same_seed_same_result(self):
        layout = RegisterLayout.of(1, 0)
        state = StateVector(layout, np.array([1, 1]) / np.sqrt(2))
        a = sample(observe(state), 1000, seed=9)
        b = sample(observe(state), 1000, seed=9)
        assert a.counts == b.counts

    def test_binomial_bound(self):
        layout = RegisterLayout.of(1, 0)
        state = StateVector(layout, np.array([1, 1]) / np.sqrt(2))
        shots = 100_000
        res = sample(observe(state), shots, seed=123)
        sigma = np.sqrt(shots * 0.25)
        assert abs(res.counts["0"] - shots / 2) <= 5 * sigma

    def test_zero_shots(self):
        res = sample(observe(basis_state(RegisterLayout.of(1, 0), [0])), 0, seed=0)
        assert res.counts == {}

    def test_state_instead_of_distribution_raises(self):
        # sample takes what observe returns; a state is named in the error
        with pytest.raises(LqcError, match="OutcomeDistribution.*StateVector"):
            sample(basis_state(RegisterLayout.of(1, 0), [0]), 10, seed=0)

    def test_zero_mass_raises(self):
        layout = RegisterLayout.of(0, 1)
        with pytest.raises(ZeroObservableMassError):
            sample(observe(StateVector(layout, np.array([0.0, 1.0]))), 10, seed=0)


def sorted_dict_sample(probabilities, shots, seed):
    """The former sampler: inverse CDF over the sorted list of outcomes."""
    outcomes = sorted(probabilities)
    cdf = np.cumsum([probabilities[o] for o in outcomes])
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(seed))
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    return Counter(outcomes[i] for i in draws)


class TestSampleDraws:
    @pytest.mark.parametrize("seed", range(8))
    def test_counts_match_sorted_dict_sampler(self, seed):
        rng = np.random.default_rng(200 + seed)
        layout = random_layout(rng, max_bits=8)
        amps = random_state_amps(rng, layout.dimension)
        amps[rng.random(layout.dimension) < 0.4] = 0.0
        amps[0] = 1.0  # keeps some observable mass
        state = StateVector(layout, amps)
        want = sorted_dict_sample(observe(state).probabilities, 5000, seed)
        assert sample(observe(state), 5000, seed).counts == want

    def test_zero_probability_never_drawn(self):
        # the last qubit stays 0, so every odd index, the last one included,
        # has probability zero
        state = run(parse("qubits 3\nH q0\nH q1\n"))
        res = sample(observe(state), 20000, seed=3)
        assert set(res.counts) == {"000", "010", "100", "110"}
        assert res.histogram[1::2].sum() == 0

    def test_extreme_draws_stay_on_possible_outcomes(self, monkeypatch):
        # outcomes 3..12 have probability 0.1 each, whose sum is
        # 0.9999999999999999 in doubles; the draws 0 and 1 - 2^-53 must land
        # on the first and the last of them, not on a zero-probability
        # outcome before or after
        amps = np.zeros(16)
        amps[3:13] = 1.0
        state = StateVector(RegisterLayout.of(4, 0), amps)
        assert np.cumsum(observe(state).probs)[12] < 1.0

        class ExtremeDraws:
            def __init__(self, bit_generator):
                pass

            def random(self, n):
                return np.resize([0.0, np.nextafter(1.0, 0.0)], n)

        monkeypatch.setattr(np.random, "Generator", ExtremeDraws)
        assert sample(observe(state), 4, seed=0).counts == {"0011": 2, "1100": 2}


class TestDistributionFormat:
    def test_layout(self):
        dist = OutcomeDistribution(np.array([0.25, 0.75]), 0.5)
        text = written(format_distribution, dist)
        lines = text.splitlines()
        assert lines[0] == "# observable_mass = 0.5"
        assert lines[1] == "0\t0.25"
        assert lines[2] == "1\t0.75"

    def test_sorted_keys(self):
        dist = OutcomeDistribution(np.array([0.5, 0.0, 0.0, 0.5]), 1.0)
        lines = written(format_distribution, dist).splitlines()
        assert lines[1].startswith("00") and lines[2].startswith("11")
        assert len(lines) == 3  # zero-probability outcomes are not printed

    def test_many_outcomes_match_line_by_line(self):
        # more outcomes than one formatting block, some of them zero
        rng = np.random.default_rng(4)
        probs = rng.random(1 << 15)
        probs[rng.random(1 << 15) < 0.3] = 0.0
        probs /= probs.sum()
        want = "# observable_mass = 2.5\n" + "".join(reference_lines(probs, "%.17g"))
        text = written(format_distribution, OutcomeDistribution(probs, 2.5))
        assert text == want

        hist = rng.integers(0, 3, 1 << 15)
        want = "".join(reference_lines(hist, "%d"))
        assert written(format_counts, SampleResult(hist, int(hist.sum()), 0)) == want

    @pytest.mark.parametrize("nq", [0, 1, 6])
    @pytest.mark.parametrize("support", ["full", "sparse"])
    def test_lines_match_per_line_format(self, nq, support):
        # the bitstrings are written into each block's template by numpy;
        # every line must still read as one `%`-format of its own
        rng = np.random.default_rng(nq)
        probs = rng.random(1 << nq)
        hist = rng.integers(1, 50, 1 << nq)
        if support == "sparse":
            keep = np.arange(1 << nq) % 3 == 0
            probs, hist = probs * keep, hist * keep
        probs /= probs.sum()

        want = "".join(reference_lines(probs, "%.17g"))
        text = written(format_distribution, OutcomeDistribution(probs, 0.75))
        assert text == "# observable_mass = 0.75\n" + want
        want = "".join(reference_lines(hist, "%d"))
        assert written(format_counts, SampleResult(hist, int(hist.sum()), 0)) == want

    @staticmethod
    def _weights(case, rng):
        """Nonnegative weights over 2^nq outcomes with a given pattern of
        distinct values."""
        def spread(n, k):
            # n entries taking exactly k distinct values, in random order
            return rng.permutation(np.resize(rng.random(k) + 0.5, n))

        if case == "one":
            return np.full(1 << 10, 0.3)
        if case == "three":
            return spread(1 << 10, 3)
        if case == "forty_percent":
            return spread(1 << 10, 410)
        if case == "half":
            return spread(1 << 10, 1 << 9)
        if case == "all":
            return rng.random(1 << 10) + 0.5
        if case == "blocks":
            # more lines than one FORMAT_BLOCK, and zeros between them
            w = spread(3 * FORMAT_BLOCK, 5)
            w[rng.random(w.size) < 0.2] = 0.0
            return np.concatenate([w, np.zeros((1 << 16) - w.size)])
        if case == "nq0":
            return np.array([2.0])
        if case == "sparse":
            return spread(1 << 8, 3) * (np.arange(1 << 8) % 3 == 0)
        raise ValueError(case)

    @pytest.mark.parametrize(
        "case", ["one", "three", "forty_percent", "half", "all", "ulp", "blocks", "nq0", "sparse"]
    )
    def test_matches_per_line_reference(self, case):
        # distributions with repeated values print each repeat from one
        # formatted text; every line must read as its own per-line format
        rng = np.random.default_rng(11)
        w = self._weights("three" if case == "ulp" else case, rng)
        probs = w / w.sum()
        if case == "ulp":
            # pairs one ulp apart, which print differently at 17 digits
            probs[1::2] = np.nextafter(probs[1::2], 1.0)
            assert len(set("%.17g" % p for p in probs)) == 6

        # compared as lists of lines: a failing diff of long strings is slow
        want = ["# observable_mass = 0.75\n"]
        want += reference_lines(probs, "%.17g")
        text = written(format_distribution, OutcomeDistribution(probs, 0.75))
        assert text.splitlines(keepends=True) == want

        # a histogram with the same pattern of repeats
        hist = np.unique(w, return_inverse=True)[1] * (w != 0)
        hist += w != 0
        want = reference_lines(hist, "%d")
        text = written(format_counts, SampleResult(hist, int(hist.sum()), 0))
        assert text.splitlines(keepends=True) == want

    @pytest.mark.parametrize("probs, match", [
        ([0.4, 0.0], "sum to"),
        ([0.5, 0.25, 0.25], "2\\^n qubit indices"),
    ])
    def test_probability_check(self, probs, match):
        with pytest.raises(LqcError, match=match):
            OutcomeDistribution(np.array(probs), 1.0)

    def test_negative_probabilities_rejected(self):
        with pytest.raises(LqcError, match="nonnegative"):
            OutcomeDistribution(np.array([-1.0, 2.0]), 1.0)
        # a zero amplitude of either sign squares to +0.0, yet -0.0 is no
        # negative probability and prints as any zero does: not at all
        dist = OutcomeDistribution(np.array([-0.0, 1.0]), 1.0)
        assert written(format_distribution, dist) == "# observable_mass = 1\n1\t1\n"

    @pytest.mark.parametrize("nq", [0, 1, 9, 24])
    def test_digits_match_the_shift_form(self, nq):
        # each index's digits, looked up by its bytes, against the bits
        # shifted out of it one by one; at 24 bits (the register guard) over
        # more lines than one block
        rng = np.random.default_rng(nq)
        if nq < 24:
            support = np.arange(1 << nq)
        else:
            inner = rng.choice(np.arange(1, (1 << nq) - 1), size=2 * FORMAT_BLOCK + 5, replace=False)
            support = np.sort(np.concatenate([[0, (1 << nq) - 1], inner]))
        args = rng.integers(0, 1000, support.size)
        digits = (support[:, None] >> np.arange(nq - 1, -1, -1)) & 1
        want = "".join("".join(map(str, row)) + "\t%d\n" % a for row, a in zip(digits.tolist(), args))
        out = io.StringIO()
        simulator._write_lines(out, 1 << nq, support, args, "d", 3)
        assert out.getvalue().splitlines(keepends=True) == want.splitlines(keepends=True)

    @staticmethod
    def _lines_case(data):
        """A support over 2^nq outcomes (every index, or a random subset)
        and a generator that draws its values."""
        nq = data.draw(st.sampled_from(range(13)), label="nq")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="full"):
            support = np.arange(1 << nq)
        else:
            support = np.flatnonzero(rng.random(1 << nq) < data.draw(st.floats(0, 1), label="density"))
        return nq, support, rng

    # the shortest and the longest `%.17g` texts of positive doubles, and the
    # smallest double whose exponent has 2 digits beside the one below it
    G17_EXTREMES = (1.0, 0.5, 2.2250738585072014e-308, 4.9406564584124654e-324,
                    1e-99, 9.9999999999999982e-100)

    @given(data=st.data())
    @settings(max_examples=150)
    def test_probability_lines_match_per_line_reference(self, data):
        nq, support, rng = self._lines_case(data)
        if data.draw(st.booleans(), label="distinct"):
            # magnitudes from 10^low to 1, every value its own line
            low = data.draw(st.sampled_from([-320, -99, -5]), label="low")
            values = rng.random(support.size) * 10.0 ** rng.integers(low, 1, support.size)
            assume(np.unique(values).size == support.size and values.all())
        else:
            positive = st.floats(5e-324, 1.0) | st.sampled_from(self.G17_EXTREMES)
            pool = data.draw(st.lists(positive, min_size=1, max_size=8), label="pool")
            if data.draw(st.booleans(), label="ulp"):
                # each value beside its neighbour one ulp up, which prints differently
                pool += np.nextafter(pool, 2.0).tolist()
            values = np.array(pool)[rng.integers(len(pool), size=support.size)]
        probs = np.zeros(1 << nq)
        probs[support] = values
        # format_distribution reads only these two fields, so values that
        # do not sum to 1 can reach it
        dist = SimpleNamespace(probs=probs, observable_mass=0.5)
        text = written(format_distribution, dist)
        assert text.splitlines(keepends=True) == ["# observable_mass = 0.5\n"] + reference_lines(
            probs, "%.17g")

    @given(data=st.data())
    @settings(max_examples=150)
    def test_count_lines_match_per_line_reference(self, data):
        nq, support, rng = self._lines_case(data)
        if data.draw(st.booleans(), label="distinct"):
            values = rng.choice(1 << 24, size=support.size, replace=False) + 1
        else:
            # 1 to 8 digits: up to the counts of 2^24 shots
            count = st.integers(1, 1 << 24) | st.sampled_from([1, 9, 10, 1 << 24])
            pool = data.draw(st.lists(count, min_size=1, max_size=8), label="pool")
            values = np.array(pool)[rng.integers(len(pool), size=support.size)]
        hist = np.zeros(1 << nq, dtype=np.int64)
        hist[support] = values
        text = written(format_counts, SampleResult(hist, int(hist.sum()), 0))
        assert text.splitlines(keepends=True) == reference_lines(hist, "%d")

    @pytest.mark.parametrize("repeats", [True, False])
    def test_no_write_holds_more_than_one_block(self, repeats):
        # the whole text is never held: each write is at most one block of
        # lines, whether the values repeat or are all distinct
        lines = 3 * FORMAT_BLOCK + 5
        rng = np.random.default_rng(6)
        support = np.sort(rng.choice(1 << 16, size=lines, replace=False))
        probs = np.zeros(1 << 16)
        hist = np.zeros(1 << 16, dtype=np.int64)
        if repeats:
            probs[support] = np.resize([1.0, 2.0, 3.0], lines)
            hist[support] = np.resize([4, 5, 6], lines)
        else:
            probs[support] = rng.random(lines) + 0.5
            hist[support] = rng.permutation(lines) + 1
        probs /= probs.sum()

        class Writes(list):
            write = list.append

        for write, value, header in [
            (format_distribution, OutcomeDistribution(probs, 1.0), 1),
            (format_counts, SampleResult(hist, int(hist.sum()), 0), 0),
        ]:
            out = Writes()
            write(value, out)
            per_write = [text.count("\n") for text in out]
            assert sum(per_write) == lines + header
            assert max(per_write) <= FORMAT_BLOCK

    def test_repeated_values_hold_no_more_than_distinct_ones(self):
        # 2^18 probabilities, every one distinct or all but one repeat: a
        # table of every distinct value's line would hold the whole text at
        # once, where distinct values are formatted a block at a time
        rng = np.random.default_rng(18)
        distinct = rng.random(1 << 18) + 0.5
        distinct /= distinct.sum()
        repeat = distinct.copy()
        repeat[1] = repeat[0]

        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        peaks = []
        for probs in (repeat, distinct):
            dist = SimpleNamespace(probs=probs, observable_mass=0.5)
            peaks.append(TestPeakMemory.peak(lambda: format_distribution(dist, Sink())))
        assert peaks[0] <= 1.25 * peaks[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        # nan - 1 compares False against any bound, so the sum check alone
        # lets NaN through
        with pytest.raises(LqcError, match="finite"):
            OutcomeDistribution(np.array([bad, 0.0]), 1.0)
        with pytest.raises(LqcError, match="finite"):
            OutcomeDistribution(np.array([bad, 1.0]), 1.0)
