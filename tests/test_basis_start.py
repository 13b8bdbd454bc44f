"""`run` from a basis state tracks its support, a short list of cubes
outside which every amplitude is zero: it skips a pass whose control block
meets no cube, and runs the others on the view of the tensor narrowed to
the bounding cube of the cubes they meet. It also lays its tensor out with
the most-worked bits on the leading memory axes, and keeps uncontrolled X
and Y in a Pauli frame instead of applying them. These tests hold it bit for
bit to `reference_run`, the loop over the whole C-ordered tensor, at the
real BLAS_DENSE_MAX and with it forced to either kernel, and count the
amplitudes its passes touch."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    HYBIT_GATES, QUBIT_GATES, cartan_target, random_state_amps, random_unitary, reference_run,
    sim_shaped_circuit,
)
from lqc import simulator
from lqc.circuit import Circuit, Instruction, parse, to_matrix
from lqc.core import BitKind, RegisterLayout, StateVector, basis_state
from lqc.search import SearchSpec, choose_k, q_circuit, run_search, search_layout
from lqc.simulator import NegligibleMassWarning, observe, run

# BLAS_DENSE_MAX settings: the real one, and one that forces each dense kernel
LIMITS = {"real": simulator.BLAS_DENSE_MAX, "slices": 0, "matmul": np.inf}


def random_gates(rng, layout, count):
    """Instructions of every form `run` tells apart: one or two targets,
    builtins, CZ and DEFGATEs, with 0-3 controls of random trigger values on
    any bit, so that some controls sit on bits no gate has touched yet."""
    nbits = layout.num_bits
    instrs = []
    for _ in range(count):
        form = rng.choice(["builtin", "builtin", "builtin", "cz", "defgate1", "defgate2"])
        arity = 2 if form in ("cz", "defgate2") and nbits >= 2 else 1
        order = [int(p) for p in rng.permutation(nbits)]
        targets = order[:arity]
        controls = order[arity:arity + int(rng.integers(0, min(3, nbits - arity) + 1))]
        ctrl_state = tuple(int(v) for v in rng.integers(0, 2, size=len(controls)))
        kinds = [layout.kinds[p].value for p in targets]
        name, param, matrix = f"G{len(instrs)}", None, None
        if arity == 2 and form == "cz":
            name = "CZ"
        elif arity == 2:
            phases = np.exp(2j * np.pi * np.array([0.0, *rng.random(3)]))
            matrix = phases[:, None] * np.kron(cartan_target(kinds[0], rng),
                                               cartan_target(kinds[1], rng))
        elif form == "defgate1":
            matrix = cartan_target(kinds[0], rng)
        else:
            name = str(rng.choice(QUBIT_GATES if kinds[0] == "q" else HYBIT_GATES))
            param = {"PHASE": float(rng.uniform(-np.pi, np.pi)),
                     "BOOST": float(rng.uniform(-1.5, 1.5))}.get(name)
        instrs.append(Instruction(name, tuple(targets), tuple(controls), param, matrix, ctrl_state))
    return instrs


def random_case(seed, nbits, count):
    """A seeded circuit, with an H layer on a random part of its qubits
    first half the time, and a start: |0...0>, a basis state with 1 bits,
    or one nonzero amplitude that is not 1."""
    rng = np.random.default_rng(seed)
    layout = RegisterLayout(tuple(rng.choice(["q", "h"], size=nbits)))
    qubits = layout.positions(BitKind.QUBIT)
    layer = []
    if rng.random() < 0.5 and qubits:
        picked = rng.choice(qubits, size=int(rng.integers(1, len(qubits) + 1)), replace=False)
        layer = [Instruction("H", (int(p),)) for p in picked]
    circuit = Circuit(layout, tuple(layer + random_gates(rng, layout, count)))
    kind = seed % 3
    if kind == 0:
        return circuit, None
    initial = basis_state(layout, rng.integers(0, 2, size=nbits).tolist())
    if kind == 2:
        initial.amps *= 0.6 - 0.8j
    return circuit, initial


def assert_matches_reference(circuit, initial=None):
    # byte for byte, once zeros are made +0.0: a whole-tensor pass can turn a
    # zero amplitude outside the narrowed view into -0.0, which `run` leaves
    got = run(circuit, initial).amps + 0.0
    want = reference_run(circuit, initial).amps + 0.0
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("seed", range(60))
def test_small_registers(seed, limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    assert_matches_reference(*random_case(seed, 1 + seed % 9, 24))


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize(
    "nbits", [12, 13, 14, 15, 16, pytest.param(17, marks=pytest.mark.slow),
              pytest.param(18, marks=pytest.mark.slow)],
)
def test_large_registers(nbits, limit, monkeypatch):
    # from 14 bits a target slice of the whole tensor reaches BLAS_DENSE_MAX,
    # so at the real limit a dense pass takes the slice update there and the
    # matmul below, on a narrowed view either way
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    for seed in (nbits, nbits + 100, nbits + 200):
        assert_matches_reference(*random_case(seed, nbits, 30))


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("text", [
    # the skipped CTRL leaves q0 and q2 untouched: fixing both would leave
    # the H passes slices of one amplitude
    "qubits 3\nCTRL q0 : H q1\nH q1\nH q1\n",
    # fixing q0 would leave T one amplitude, which numpy multiplies in
    # place with other rounding
    "qubits 1\nhybits 1\nTAU h0\nT h0\nT h0\n",
])
def test_slices_of_one_amplitude_are_not_made(text, limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    circuit = parse(text)
    assert_matches_reference(circuit)
    assert_matches_reference(circuit, basis_state(circuit.layout, [1] * circuit.layout.num_bits))


def test_non_basis_start_runs_whole_tensor(passes):
    layout = RegisterLayout.of(3, 1)
    amps = np.zeros(layout.dimension, complex)
    amps[[0, 5]] = 0.6, 0.8
    circuit = parse("qubits 3\nhybits 1\nCTRL q1 : H q0\nTAU h0\nCTRL !q2 : X q1\n")
    assert_matches_reference(circuit, StateVector(layout, amps))
    # two nonzero amplitudes: no support is tracked, so no pass is narrowed
    assert [size for _, size in passes] == [8, 16, 8]


def test_zeros_outside_the_view_differ_at_most_in_sign():
    # Z on the whole tensor multiplies the zero half where q1..q15 are not
    # all 0 by -1, leaving -0.0 real parts; the narrowed Z leaves them +0.0
    circuit = parse("qubits 16\nH q0\nZ q0\n")
    got, want = run(circuit).amps, reference_run(circuit).amps
    assert got.tobytes() != want.tobytes()
    assert_matches_reference(circuit)


def test_h_layer_passes_see_narrowed_views(passes):
    # 16 qubits: H on q0 fixes all other bits but two, which are left free so
    # that each target slice holds 4 amplitudes, and H on q1 all but q0 and
    # one more; H on q<k> then sees the k bits before it free, until the last
    # sees the whole register
    layout = RegisterLayout.of(16, 0)
    run(Circuit(layout, tuple(Instruction("H", (p,)) for p in range(16))))
    assert [size for _, size in passes] == [8, 8] + [2 << k for k in range(2, 16)]


def test_multi_target_passes_see_narrowed_views(passes):
    # 14 qubits, H on q0-q3: the CZ and the 2-target DEFGATE see the four
    # free bits, the other ten fixed, as a single-target pass would
    rng = np.random.default_rng(14)
    gate = np.kron(cartan_target("q", rng), cartan_target("q", rng))
    circuit = Circuit(RegisterLayout.of(14, 0), (
        *(Instruction("H", (p,)) for p in range(4)),
        Instruction("CZ", (0, 1)), Instruction("G", (2, 3), matrix=gate)))
    run(circuit)
    assert [size for _, size in passes[4:]] == [16, 16]
    assert_matches_reference(circuit)


def test_untriggerable_control_is_skipped(passes):
    circuit = parse("qubits 2\nhybits 1\nCTRL h0 : H q0\nCTRL !h0 : H q1\nCTRL h0 : X q0\n")
    state = run(circuit, basis_state(circuit.layout, [0, 0, 0]))
    # h0 holds 0 throughout: the first and last lines never trigger, and
    # the middle one runs unchanged, the kernel fixing h0 at 0
    assert [(i.gate, i.targets, i.controls) for i, _ in passes] == [("H", (1,), (2,))]
    assert np.array_equal(state.amps, reference_run(circuit).amps)


def search_circuit(n, layer=None):
    """The circuit `run_search` runs for n search qubits, its H layer from
    q_{n-1} down to q0; `layer` gives the layer's qubits in another order."""
    spec = SearchSpec(n, "10" * (n // 2) + "1" * (n % 2), 0.5, choose_k(2**n, 0.5, 0.99))
    layout = search_layout(n)
    order = reversed(range(n)) if layer is None else layer
    prep = Circuit(layout, tuple(Instruction("H", (i,)) for i in order))
    return prep.concat(q_circuit(spec), times=spec.k)


def memory_order(circuit):
    return simulator._memory_order(circuit.layout, circuit.instructions)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("seed, nq, nh", [(1, 3, 2), (2, 6, 2), (3, 9, 3), (4, 12, 2), (5, 14, 2)])
def test_sim_shaped_circuits_in_memory_order(seed, nq, nh, limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    circuit = sim_shaped_circuit(seed, nq, nh)
    assert memory_order(circuit) != list(range(nq + nh))
    assert_matches_reference(circuit)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("n", range(3, 13))
def test_search_circuits_in_memory_order(n, limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    circuit = search_circuit(n)
    assert memory_order(circuit) != list(range(n + 2))
    assert_matches_reference(circuit)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("n", range(1, 13))
def test_search_h_layer_order_keeps_every_bit(n, limit, monkeypatch):
    # the layer from q0 up and from q_{n-1} down, as `run_search` runs it:
    # the same memory order and the same bytes
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    forward, reversed_ = search_circuit(n, range(n)), search_circuit(n)
    assert memory_order(forward) == memory_order(reversed_)
    assert run(forward).amps.tobytes() == run(reversed_).amps.tobytes()


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
def test_two_amplitude_start_in_memory_order(limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    circuit = sim_shaped_circuit(6, 10, 2)
    assert memory_order(circuit) != list(range(12))
    amps = np.zeros(circuit.layout.dimension, complex)
    amps[[3, 2900]] = 0.6, 0.8j
    initial = StateVector(circuit.layout, amps)
    assert_matches_reference(circuit, initial)
    assert initial.amps.tobytes() == amps.tobytes()


def test_memory_order_rule():
    # the boost on the hybit and the oracle qubit's share of every round
    # outweigh the one H and the many-controlled shares of the search qubits
    for n in range(3, 13):
        assert memory_order(search_circuit(n)) == [n, n + 1, *range(n)]
    assert memory_order(parse("qubits 3\nhybits 2\n")) == [0, 1, 2, 3, 4]
    # q0 and q2 weigh 1, the controls q1 and h0 a half each
    circuit = parse("qubits 3\nhybits 1\nH q2\nCTRL h0 : X q1\nH q0\n")
    assert memory_order(circuit) == [0, 2, 1, 3]


# The support: oracle-shaped circuits, whose many-controlled X leaves the
# marked item's cube beside the cube of the rest.

SUPPORT_STARTS = ("zero", "basis", "framed")


def oracle_case(seed, nbits, start):
    """A circuit shaped like a search, on a random layout of `nbits` bits
    with 1-3 hybits: H on some qubits, then rounds of a many-controlled X
    with random `!` triggers onto a fresh qubit, a gate controlled by that
    qubit, a diagonal gate on a hybit (untouched ones among them) and
    uncontrolled X and Y lines, the oracle line sometimes repeated. Its
    start is |0...0>, a basis state, or the basis state a circuit of X and Y
    lines leaves, read through reversed axes."""
    rng = np.random.default_rng(seed)
    nh = int(rng.integers(1, 4))
    layout = RegisterLayout(tuple(rng.permutation(["q"] * (nbits - nh) + ["h"] * nh)))
    qubits, hybits = layout.positions(BitKind.QUBIT), layout.positions(BitKind.HYBIT)
    fresh = [int(p) for p in rng.choice(qubits, size=3, replace=False)]
    searched = [p for p in qubits if p not in fresh]
    instrs = [Instruction("H", (p,)) for p in searched]
    for _ in range(4):
        o = int(rng.choice(fresh))
        trigger = tuple(int(v) for v in rng.integers(0, 2, size=len(searched)))
        marked = Instruction("X", (o,), tuple(searched), ctrl_state=trigger)
        t = int(rng.choice([*hybits, *(p for p in fresh if p != o)]))
        gate, param = (str(rng.choice(["BOOST", "TAU", "T"])), None) if t in hybits else ("H", None)
        if gate == "BOOST":
            param = float(rng.uniform(-1.5, 1.5))
        controlled = Instruction(gate, (t,), (o,), param, ctrl_state=(int(rng.random() < 0.8),))
        diagonal = Instruction(str(rng.choice(["T", "Z", "SZ", "SZD"])), (int(rng.choice(hybits)),))
        frame = [Instruction(str(rng.choice(["X", "Y"])), (int(rng.choice(qubits)),))
                 for _ in range(int(rng.integers(0, 3)))]
        instrs += [*frame, marked, controlled, diagonal] + [marked] * int(rng.random() < 0.5)
    circuit = Circuit(layout, tuple(instrs))
    if start == "zero":
        return circuit, None
    if start == "basis":
        return circuit, basis_state(layout, rng.integers(0, 2, size=nbits).tolist())
    flips = [Instruction(str(rng.choice(["X", "Y"])), (int(p),)) for p in rng.choice(qubits, size=4)]
    return circuit, run(Circuit(layout, tuple(flips)))


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("start", SUPPORT_STARTS)
@pytest.mark.parametrize("nbits", range(12, 19))
def test_oracle_shaped_circuits(nbits, start, limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    assert_matches_reference(*oracle_case(nbits, nbits, start))


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("start", SUPPORT_STARTS)
def test_support_past_the_cube_cap(start, limit, monkeypatch):
    # each oracle marks another item onto another fresh qubit and adds a
    # cube, so the list passes SUPPORT_CUBES_MAX and merges into its
    # bounding cube, which keeps the hybits fixed until the boosts
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    merged = []
    bounding = simulator._bounding
    monkeypatch.setattr(simulator, "_bounding", lambda cubes: merged.append(len(cubes)) or bounding(cubes))
    nfresh = simulator.SUPPORT_CUBES_MAX + 2
    layout = RegisterLayout.of(5 + nfresh, 2)
    rng = np.random.default_rng(9)
    instrs = [Instruction("H", (p,)) for p in range(5)]
    for o in range(5, 5 + nfresh):
        trigger = tuple(int(v) for v in rng.integers(0, 2, size=5))
        instrs += [Instruction("X", (o,), tuple(range(5)), ctrl_state=trigger),
                   Instruction("T", (5 + nfresh,), (o,))]
    instrs += [Instruction("BOOST", (6 + nfresh,), (o,), 0.7) for o in range(5, 5 + nfresh, 3)]
    instrs += [Instruction("H", (2,), (5,)), Instruction("TAU", (5 + nfresh,), (6,), ctrl_state=(0,))]
    circuit = Circuit(layout, tuple(instrs))
    initial = {"zero": None, "basis": basis_state(layout, [p % 3 & 1 for p in range(layout.num_bits)]),
               "framed": run(parse(f"qubits {5 + nfresh}\nhybits 2\nX q6\nY q1\n"))}[start]
    assert_matches_reference(circuit, initial)
    assert max(merged) > simulator.SUPPORT_CUBES_MAX


def wide_case(seed, k, start):
    """A circuit around a k-target DEFGATE on k + 4 qubits and 2 hybits: H
    on at most two qubits, uncontrolled X and Y lines, then the gate on
    random qubits, the H'd and untouched ones among them, so that its view
    often has fewer than two free axes besides its targets; a second one
    with a random control, a boost controlled by a qubit, one more H and a
    third. Its start is |0...0>, a basis state, or the basis state a circuit
    of X and Y lines leaves, read through reversed axes."""
    rng = np.random.default_rng(seed)
    layout = RegisterLayout.of(k + 4, 2)
    qubits = layout.positions(BitKind.QUBIT)
    hybits = layout.positions(BitKind.HYBIT)

    def frame():
        return [Instruction(str(rng.choice(["X", "Y"])), (int(rng.choice(qubits)),))
                for _ in range(int(rng.integers(0, 3)))]

    def wide(controls=()):
        free = [p for p in qubits if p not in controls]
        targets = tuple(int(p) for p in rng.choice(free, size=k, replace=False))
        ctrl_state = tuple(int(v) for v in rng.integers(0, 2, size=len(controls)))
        return Instruction(f"U{k}", targets, controls, matrix=random_unitary(rng, 1 << k),
                           ctrl_state=ctrl_state)

    picked = rng.choice(qubits, size=int(rng.integers(0, 3)), replace=False)
    instrs = [Instruction("H", (int(p),)) for p in picked]
    instrs += [*frame(), wide(), *frame(), wide((int(rng.choice(qubits)),)),
               Instruction("BOOST", (int(rng.choice(hybits)),), (int(rng.choice(qubits)),), 0.8),
               *frame(), Instruction("H", (int(rng.choice(qubits)),)), wide()]
    circuit = Circuit(layout, tuple(instrs))
    if start == "zero":
        return circuit, None
    if start == "basis":
        return circuit, basis_state(layout, rng.integers(0, 2, size=layout.num_bits).tolist())
    flips = [Instruction(str(rng.choice(["X", "Y"])), (int(p),)) for p in rng.choice(qubits, size=4)]
    return circuit, run(Circuit(layout, tuple(flips)))


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("start", SUPPORT_STARTS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", [3, 7])
def test_wide_gates_on_narrowed_views(k, seed, start, limit, passes, monkeypatch):
    # a 7-target tile is 2 columns wide in the whole tensor and in a view,
    # a 3-target one holds every column of the view
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    circuit, initial = wide_case(seed + 10 * k, k, start)
    passes.clear()
    assert_matches_reference(circuit, initial)
    nbits = circuit.layout.num_bits
    assert any(size < 1 << nbits - len(instr.controls)
               for instr, size in passes if len(instr.targets) == k)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("n", range(8, 17))
def test_search_rounds_touch_the_marked_item(n, limit, passes, monkeypatch):
    # a round's oracle X and BOOST touch the marked item and its oracle and
    # hybit neighbours, not half the register, on either dense branch: each
    # target slice keeps the 4 amplitudes of two free bits
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    run_search(SearchSpec(n, "01" * (n // 2) + "1" * (n % 2), 0.5, choose_k(2**n, 0.5, 0.99)))
    rounds = [(instr.gate, size) for instr, size in passes if instr.controls]
    assert {gate for gate, _ in rounds} == {"X", "BOOST"}
    assert all(size <= 8 for _, size in rounds)


def test_diagonal_gate_leaves_its_untouched_bit_fixed(passes):
    # T on the untouched h0 scales the slice where h0 holds 0 and leaves h0
    # fixed, so the H after it sees both hybits fixed, a quarter of the state
    circuit = parse("qubits 14\nhybits 2\n" + "".join(f"H q{p}\n" for p in range(14))
                    + "T h0\nSZ h1\nH q5\n")
    run(circuit)
    assert [size for _, size in passes[14:]] == [1 << 15, 1 << 15, 1 << 14]
    assert_matches_reference(circuit)


# The Pauli frame: `run` tracks uncontrolled X and Y as flags on their bits
# and returns the tensor with the flagged axes reversed.

FRAME_STARTS = ("zero", "basis", "scaled", "two", "framed")


def framed_gates(rng, layout, count):
    """`random_gates` with runs of uncontrolled X and Y on random qubits
    before about half of its lines, so that later lines target and control
    flipped bits, untouched ones among them."""
    qubits = layout.positions(BitKind.QUBIT)
    instrs = []
    for instr in random_gates(rng, layout, count):
        while rng.random() < 0.5:
            instrs.append(Instruction(str(rng.choice(["X", "Y"])), (int(rng.choice(qubits)),)))
        instrs.append(instr)
    return instrs


def framed_case(seed, nbits, count, start):
    """A seeded circuit of `framed_gates` over at least one qubit, and its
    initial state of the kind `start` names: None, a basis state, a basis
    state scaled by 0.6 - 0.8j, two nonzero amplitudes, or the state `run`
    returns for another framed circuit."""
    rng = np.random.default_rng(seed)
    layout = RegisterLayout(tuple(rng.permutation(["q", *rng.choice(["q", "h"], size=nbits - 1)])))
    circuit = Circuit(layout, tuple(framed_gates(rng, layout, count)))
    if start == "zero":
        return circuit, None
    if start == "two":
        amps = np.zeros(layout.dimension, complex)
        amps[rng.choice(layout.dimension, size=min(2, layout.dimension), replace=False)] = 0.6, 0.8j
        return circuit, StateVector(layout, amps)
    if start == "framed":
        return circuit, run(Circuit(layout, tuple(framed_gates(rng, layout, 8))))
    initial = basis_state(layout, rng.integers(0, 2, size=nbits).tolist())
    if start == "scaled":
        initial.amps *= 0.6 - 0.8j
    return circuit, initial


def assert_observe_reads_the_amps(state):
    """`observe` of a state `run` returned, against `observe` of its amps
    laid out in register index order: probs and mass to the bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegligibleMassWarning)
        got = observe(state)
        want = observe(StateVector(state.layout, state.amps))
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.observable_mass == want.observable_mass


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("start", FRAME_STARTS)
@pytest.mark.parametrize("seed", range(30))
def test_frame_on_small_registers(seed, start, limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    circuit, initial = framed_case(seed, 1 + seed % 9, 20, start)
    assert_matches_reference(circuit, initial)
    assert_observe_reads_the_amps(run(circuit, initial))


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("start", ["zero", "basis", "two"])
def test_frame_on_large_registers(start, limit, monkeypatch):
    # at 14 bits a target slice of the whole tensor reaches BLAS_DENSE_MAX,
    # so at the real limit the views hold passes of both dense branches
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    circuit, initial = framed_case(7, 14, 30, start)
    assert_matches_reference(circuit, initial)


def test_frame_reverses_the_returned_axes():
    # X q0 makes no pass: the state is |10> read through a reversed q0 axis,
    # and it runs on as the initial state of a circuit with a control on q0
    layout = RegisterLayout.of(2, 0)
    state = run(parse("qubits 2\nX q0\n"))
    assert [s < 0 for s in state.tensor.strides] == [True, False]
    assert state.tensor[1, 0] == 1
    circuit = parse("qubits 2\nCTRL q0 : H q1\nY q0\nCTRL !q0 : T q1\n")
    assert_matches_reference(circuit, state)
    assert np.array_equal(state.amps, basis_state(layout, [1, 0]).amps)


@pytest.mark.parametrize("nq", [2, 3])
def test_two_target_gates_on_flipped_targets(nq):
    # q0 and q1 lead the memory order; flipped, both target axes stay
    # reversed in the gate's view, and the tile copy the kernel multiplies
    # holds them in register order, so the product rounds as without a frame
    rng = np.random.default_rng(nq)
    layout = RegisterLayout.of(nq, 0)
    gate = np.kron(cartan_target("q", rng), cartan_target("q", rng))
    layer = [Instruction("H", (p,)) for p in range(nq)]
    for flips in ([0], [1], [0, 1]):
        instrs = [*layer, *(Instruction("X", (p,)) for p in flips),
                  Instruction("G", (0, 1), matrix=gate), Instruction("CZ", (1, 0))]
        assert_matches_reference(Circuit(layout, tuple(instrs)))


@pytest.mark.parametrize("seed, nq, nh", [(1, 3, 2), (2, 6, 2), (3, 9, 3), (4, 12, 2)])
def test_observe_reads_framed_sim_states(seed, nq, nh):
    state = run(sim_shaped_circuit(seed, nq, nh))
    assert any(s < 0 for s in state.tensor.strides)
    assert_observe_reads_the_amps(state)


def test_uncontrolled_x_makes_no_pass(passes):
    # the pass-count guard: n H passes and m X gates cost `run` n passes,
    # and `to_matrix`, which keeps the same frame, n
    n, m = 5, 7
    layer = tuple(Instruction("H", (p,)) for p in range(n))
    circuit = Circuit(RegisterLayout.of(n, 0), layer + tuple(Instruction("X", (p % n,)) for p in range(m)))
    run(circuit)
    assert len(passes) == n
    passes.clear()
    to_matrix(circuit)
    assert len(passes) == n


def frameless_matrix(circuit):
    """`to_matrix` without a frame: one `apply_to_tensor` pass per
    instruction, uncontrolled X and Y included, on the C-ordered identity
    batch."""
    layout = circuit.layout
    mat = np.eye(layout.dimension, dtype=complex)
    batch = mat.reshape([2] * layout.num_bits + [layout.dimension])
    for instr in circuit.instructions:
        simulator.apply_to_tensor(layout, batch, instr)
    return mat


def assert_matrix_matches_frameless(circuit):
    got = to_matrix(circuit)
    assert got.flags.c_contiguous and got.flags.writeable
    assert got.tobytes() == frameless_matrix(circuit).tobytes()


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("seed", range(12))
def test_to_matrix_frame_matches_frameless_loop(seed, limit, monkeypatch):
    # `framed_gates` puts uncontrolled X and Y before CZ, 2-target DEFGATEs
    # and controlled gates; a 3-target DEFGATE on random qubits, a
    # controlled X among them, follows some lines
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    rng = np.random.default_rng(seed)
    nbits = 3 + seed % 5
    kinds = ["q"] * 3 + list(rng.choice(["q", "h"], size=nbits - 3))
    layout = RegisterLayout(tuple(rng.permutation(kinds)))
    qubits = layout.positions(BitKind.QUBIT)
    instrs = []
    for instr in framed_gates(rng, layout, 12):
        instrs.append(instr)
        if rng.random() < 0.3:
            targets = tuple(int(p) for p in rng.choice(qubits, size=3, replace=False))
            instrs += [Instruction("U3", targets, matrix=random_unitary(rng, 8)),
                       Instruction("X", targets[:1], targets[1:2], ctrl_state=(int(seed % 2),))]
    assert_matrix_matches_frameless(Circuit(layout, tuple(instrs)))


@pytest.mark.parametrize("text", ["qubits 1\nX q0\n", "qubits 2\nY q0\nX q1\nCZ q0 q1\n"])
def test_to_matrix_with_every_bit_flipped_is_c_ordered(text):
    # every register axis reversed: the state alone would reshape into a
    # negative-stride view
    assert_matrix_matches_frameless(parse(text))


def test_to_matrix_frame_on_sliced_batch_axis():
    # 11 bits: a 3-target tile is 512 columns wide, so the 2048-column batch
    # axis is cut in four while the gate's flipped target axes are reversed
    rng = np.random.default_rng(11)
    layout = RegisterLayout.of(11, 0)
    instrs = [*(Instruction("H", (p,)) for p in range(0, 11, 2)),
              Instruction("X", (1,)), Instruction("Y", (9,)), Instruction("X", (4,)),
              Instruction("U3", (9, 1, 4), matrix=random_unitary(rng, 8)),
              Instruction("CZ", (4, 1)), Instruction("Y", (0,)),
              Instruction("U3", (0, 7, 9), (2,), matrix=random_unitary(rng, 8))]
    assert_matrix_matches_frameless(Circuit(layout, tuple(instrs)))


# Small slices. A slice of at most TILE amplitudes that walks in one stride
# is updated in place without numpy's iterator. These cases hold that update
# bit for bit to the iterator's: `reference_run` and the kernel with every
# slice sent through `_chunked`.

def chunked(monkeypatch, fn, *args):
    """fn(*args) with every slice update cut by numpy's iterator."""
    with monkeypatch.context() as m:
        m.setattr(simulator, "_tiled", simulator._chunked)
        return fn(*args)


def assert_matches_chunked_reference(monkeypatch, circuit, initial=None):
    got = run(circuit, initial).amps + 0.0
    want = chunked(monkeypatch, reference_run, circuit, initial).amps + 0.0
    assert got.tobytes() == want.tobytes()


def slice_gates(rng, target, controls):
    """One gate of each slice-update kernel on a qubit target, with
    controls of trigger value 1: diagonal (T, PHASE), swap (X, Y and an
    anti-diagonal DEFGATE with no factor of 1) and dense (H and a DEFGATE)."""
    anti = np.array([[0, np.exp(0.3j)], [np.exp(-0.8j), 0]])
    gates = [("T", None, None), ("PHASE", 0.3, None), ("X", None, None), ("Y", None, None),
             ("A", None, anti), ("H", None, None), ("U", None, cartan_target("q", rng))]
    return [Instruction(name, (target,), controls, param, matrix)
            for name, param, matrix in gates]


def iterators(monkeypatch):
    """A list that gets one entry per `np.nditer` made while the test runs."""
    made = []
    nditer = np.nditer
    monkeypatch.setattr(np, "nditer", lambda *a, **k: made.append(1) or nditer(*a, **k))
    return made


def assert_direct_as_chunked(monkeypatch, made, layout, start, idx, instr, direct):
    """One pass of `instr` on the view start[idx] against the same pass
    through the iterator, bit for bit. A swap, or a dense pass that takes
    the slice update, makes an iterator (an entry of `made`) unless
    `direct` is set."""
    got, want = start.copy(), start.copy()
    made.clear()
    simulator.apply_to_tensor(layout, got[idx], instr)
    iterated = bool(made)
    chunked(monkeypatch, simulator.apply_to_tensor, layout, want[idx], instr)
    assert got.tobytes() == want.tobytes()
    # the amplitudes of a target slice of the whole tensor pick the matmul
    matmul = instr.gate in ("H", "U") and start.size >> 1 + len(instr.controls) < \
        simulator.BLAS_DENSE_MAX
    if instr.gate not in ("T", "PHASE") and not matmul:
        assert iterated != direct


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_slices_around_the_direct_bound(offset, limit, monkeypatch):
    # a batch axis of TILE + offset columns and a control on every other
    # bit: each target slice is one stretch of that many amplitudes, which
    # the direct update takes up to TILE and the iterator above it
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    width = simulator.TILE + offset
    rng = np.random.default_rng(width)
    start = random_state_amps(rng, 8 * width).reshape(2, 2, 2, width)
    made = iterators(monkeypatch)
    for instr in slice_gates(rng, 1, (0, 2)):
        assert_direct_as_chunked(monkeypatch, made, RegisterLayout.of(3, 0), start, (...,),
                                 instr, offset <= 0)


# (target, controls) on a C-ordered 7-bit tensor, the amplitudes each target
# slice walks, and whether they walk in one stride
SLICE_LAYOUTS = {
    "contiguous": ((0, (1, 2)), True),       # one stretch of 16
    "one-axis": ((6, (1, 2, 3, 4, 5)), True),  # 2 amplitudes 64 apart, x1's between
    "stretch-2": ((5, (0, 1)), False),       # stretches of 2, x1's between them
    "scattered": ((6, (0, 1)), False),       # every amplitude alone, x1's beside it
    "strided": ((3, (5, 6)), False),         # stretches of 1 at a stride of 4
}


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("shape", SLICE_LAYOUTS)
def test_direct_update_of_every_slice_layout(shape, limit, monkeypatch):
    # an anti-diagonal pass writes x1's products into x0: numpy computes a
    # product whose input and output ranges interleave without SIMD, which
    # rounds otherwise, so only a slice the iterator would not buffer may
    # skip it; stretch-2 slices rounded otherwise when updated directly
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    (target, controls), one_stride = SLICE_LAYOUTS[shape]
    rng = np.random.default_rng(7)
    start = random_state_amps(rng, 128).reshape((2,) * 7)
    made = iterators(monkeypatch)
    for instr in slice_gates(rng, target, controls):
        # the whole tensor, and a view with the instruction's axes reversed
        # as the Pauli frame leaves them
        for rev in (False, True):
            idx = tuple(slice(None, None, -1) if rev and p in (target, *controls) else slice(None)
                        for p in range(7))
            assert_direct_as_chunked(monkeypatch, made, RegisterLayout.of(7, 0), start, idx,
                                     instr, one_stride)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("nbits", [6, 7, 8])
def test_registers_of_small_slices(nbits, limit, monkeypatch):
    # a target slice of the whole tensor holds 32, 64 or 128 amplitudes;
    # narrowed views and controls cut smaller ones, of every layout
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    for seed in range(nbits, nbits + 40, 4):
        assert_matches_chunked_reference(monkeypatch, *random_case(seed, nbits, 24))
        circuit, initial = framed_case(seed, nbits, 20, FRAME_STARTS[seed % 5])
        assert_matches_chunked_reference(monkeypatch, circuit, initial)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=LIMITS.keys())
@pytest.mark.parametrize("nbits", [1, 2])
def test_one_amplitude_slices_take_the_iterators_rounding(nbits, limit, monkeypatch):
    # a 1-bit register, or a 2-bit one with a control, leaves target slices
    # of one amplitude, which numpy multiplies in place with other rounding
    # than longer ones: the direct update must round them as the iterator's
    # one-amplitude chunks do
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    for seed in range(30):
        assert_matches_chunked_reference(monkeypatch, *random_case(seed, nbits, 24))
        circuit, initial = framed_case(seed, nbits, 20, FRAME_STARTS[seed % 5])
        assert_matches_chunked_reference(monkeypatch, circuit, initial)


# The sizes of the views `apply_to_tensor` gets, pass by pass, over a
# search, a circuit shaped like the benchmark's sim circuits and a
# `to_matrix`: plans and reused views change neither which passes are made
# nor what they touch, and the perfbench tracer counts a workload's passes
# and bytes through them.
PASS_SIZES = json.loads((Path(__file__).parent / "data" / "pass_sizes.json").read_text())


def test_view_sizes_match_the_recorded_passes(monkeypatch):
    sizes = []
    apply = simulator.apply_to_tensor

    def spy(layout, tensor, instr):
        sizes.append(tensor.size)
        apply(layout, tensor, instr)

    monkeypatch.setattr(simulator, "apply_to_tensor", spy)
    got = {}
    for name, call in (
        ("run_search", lambda: run_search(SearchSpec(10, "1011001110", 0.5,
                                                     choose_k(2**10, 0.5, 0.99)))),
        ("run", lambda: run(sim_shaped_circuit(5, 12, 2))),
        ("to_matrix", lambda: to_matrix(sim_shaped_circuit(6, 6, 2))),
    ):
        sizes.clear()
        call()
        got[name] = list(sizes)
    assert got == PASS_SIZES
