"""Simulator kernel passes against an independent dense reference.

The reference writes the operator of one instruction on the whole register
as I + P_C (G_T - I): a sum of Kronecker products of one-bit factors, with
the projector |v><v| on every control of trigger value v, the matrix units
of G on the targets and the identity on every other bit. It shares no code with
`apply_to_tensor` or `to_matrix`. Every case runs through both dense
kernels: the slice update and the matmul on a copy of the slice pair.

The slice update runs in chunks of at most TILE amplitudes. Single-target
passes are also checked bit for bit against the same update without
chunks, written out below, at the real TILE and at sizes small enough that
registers of a few bits cross every chunk shape. Multi-target passes run
in tiles of columns; they are checked bit for bit against the product of
the whole control block, at the real TILE, which pins the BLAS property
that a column rounds alike in a tile and in the whole product. `run`
narrows a pass to a view whose products keep at least 4 columns, so the
products of both matmul kernels are also checked on random subsets of 4 or
more columns against the whole product's columns. A product of 1 or 2
columns, or the last columns of a width that is no multiple of 4, may
round otherwise.
"""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_state_amps, random_unitary

from lqc.circuit import Circuit, Instruction, parse, to_matrix
from lqc.core import EPS_ISO, RegisterLayout, StateVector, metric_for_kinds
from lqc.gates import BUILTIN_ARITY, isometry_residual
from lqc import simulator
from lqc.simulator import apply_to_tensor, observe, run

TOL = 1e-12
MAX_BITS = 6
# BLAS_DENSE_MAX settings that force each dense kernel
DENSE_KERNELS = {"slices": 0, "matmul": np.inf}
# TILE settings: the real size, and sizes at which <= 6-bit cases cross every
# chunk shape: a piece of the slice updated in place, contiguous or strided,
# a buffered copy of scattered amplitudes, and partial last chunks (6
# divides no power of two; 4 cuts the batch stretches of 6 into 4 + 2).
# Neither small size leaves a chunk of one amplitude, which numpy multiplies
# in place with different rounding.
TILES = {"real": simulator.TILE, "4": 4, "6": 6}

# random metric-preserving DEFGATEs by the kernel class their entries select
DEFGATES = ("DIAG", "ANTI", "DENSE", "DENSE2")
GATES = tuple(sorted(BUILTIN_ARITY)) + DEFGATES
ARITY = {**BUILTIN_ARITY, "DIAG": 1, "ANTI": 1, "DENSE": 1, "DENSE2": 2}
# gates that preserve the metric of one bit kind only
ONLY_ON = {"H": "q", "X": "q", "Y": "q", "ANTI": "q", "TAU": "h", "BOOST": "h"}

PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
I2 = np.eye(2)


def _unit(i, j):
    m = np.zeros((2, 2))
    m[i, j] = 1.0
    return m


def reference_operator(nbits, gate, targets, controls, ctrl_state, sparse=False):
    """I + P_C (G_T - I) over bit positions (bit 0 most significant), where
    control controls[k] triggers on value ctrl_state[k]."""
    if sparse:
        kron = functools.partial(scipy.sparse.kron, format="csr")
        total = scipy.sparse.identity(1 << nbits, dtype=complex, format="csr")
    else:
        kron = np.kron
        total = np.eye(1 << nbits, dtype=complex)
    d = len(targets)
    for i in range(1 << d):
        for j in range(1 << d):
            coeff = gate[i, j] - (i == j)
            if coeff == 0:
                continue
            factors = []
            for b in range(nbits):
                if b in controls:
                    factors.append(PROJECTORS[ctrl_state[controls.index(b)]])
                elif b in targets:
                    shift = d - 1 - targets.index(b)
                    factors.append(_unit((i >> shift) & 1, (j >> shift) & 1))
                else:
                    factors.append(I2)
            total = total + coeff * functools.reduce(kron, factors)
    return total


def _dense(kind, alpha, beta, phi, theta):
    """U(2) on a qubit, U(1,1) on a hybit: [[a, b], [s e^{i phi} conj(b), e^{i phi} conj(a)]]."""
    if kind == "q":
        a, b, s = np.cos(theta * np.pi / 2), np.sin(theta * np.pi / 2), -1.0
    else:
        a, b, s = np.cosh(1.5 * theta), np.sinh(1.5 * theta), 1.0
    a, b, w = a * np.exp(1j * alpha), b * np.exp(1j * beta), np.exp(1j * phi)
    return np.array([[a, b], [s * w * np.conj(b), w * np.conj(a)]])


def _phase(u):
    # below 0.3 the factor is exactly 1, which the kernel skips
    return 1.0 + 0j if u < 0.3 else np.exp(2j * np.pi * u)


def make_gate(name, kinds, u):
    """(matrix or None, param) for gate `name` on targets of `kinds`; u holds
    four numbers in [0, 1] that fix the angles."""
    alpha, beta, phi = 2 * np.pi * u[0], 2 * np.pi * u[1], 2 * np.pi * u[2]
    if name in BUILTIN_ARITY:
        param = {"BOOST": 3.0 * u[3] - 1.5, "PHASE": alpha}.get(name)
        return None, param
    if name == "DIAG":
        return np.diag([_phase(u[0]), _phase(u[1])]), None
    if name == "ANTI":
        return np.array([[0, _phase(u[0])], [_phase(u[1]), 0]]), None
    if name == "DENSE":
        return _dense(kinds[0], alpha, beta, phi, u[3]), None
    # DENSE2: a product of one-bit gates entangled by diagonal phases
    phases = np.exp(2j * np.pi * np.array([0.0, u[0], u[1], u[2]]))
    first = _dense(kinds[0], alpha, beta, phi, u[3])
    second = _dense(kinds[1], beta, phi, alpha, 1 - u[3])
    return phases[:, None] * np.kron(first, second), None


def make_instruction(layout, name, targets, controls, ctrl_state, u):
    kinds = [layout.kinds[p].value for p in targets]
    matrix, param = make_gate(name, kinds, u)
    instr = Instruction(name, tuple(targets), tuple(controls), param, matrix, tuple(ctrl_state))
    Circuit(layout, (instr,))  # refuses a gate that does not preserve the metric
    return instr


@st.composite
def kernel_cases(draw):
    name = draw(st.sampled_from(GATES))
    arity = ARITY[name]
    kinds = draw(st.lists(st.sampled_from("qh"), min_size=arity, max_size=MAX_BITS))
    order = draw(st.permutations(range(len(kinds))))
    targets = list(order[:arity])
    ncontrols = draw(st.integers(0, min(3, len(kinds) - arity)))
    controls = list(order[arity:arity + ncontrols])
    ctrl_state = draw(st.lists(st.integers(0, 1), min_size=ncontrols, max_size=ncontrols))
    for p in targets:
        kinds[p] = ONLY_ON.get(name, kinds[p])
    layout = RegisterLayout(tuple(kinds))
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    batch = draw(st.sampled_from([None, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    instr = make_instruction(layout, name, targets, controls, ctrl_state, u)
    return layout, instr, targets, controls, batch, seed


def untiled_pass(layout, tensor, instr):
    """The single-target slice update without tiles: each op runs once over
    the whole slices x0 and x1, skipping factors of exactly 1."""
    (a, b), (c, d) = instr.gate_matrix().tolist()
    idx = [slice(None)] * tensor.ndim
    for p, value in zip(instr.controls, instr.ctrl_state):
        idx[p] = value
    t = instr.targets[0]
    idx[t] = 0
    x0 = tensor[(*idx, ...)]
    idx[t] = 1
    x1 = tensor[(*idx, ...)]
    if b == 0 and c == 0:
        if a != 1:
            x0 *= a
        if d != 1:
            x1 *= d
    elif a == 0 and d == 0:
        tmp = x0.copy() if c == 1 else x0 * c
        if b == 1:
            x0[...] = x1
        else:
            np.multiply(x1, b, out=x0)
        x1[...] = tmp
    else:
        tmp = x0 * c
        if a != 1:
            x0 *= a
        x0 += x1 * b
        if d != 1:
            x1 *= d
        x1 += tmp


def assert_same_bits(got, want):
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


def random_tensor(layout, batch, seed):
    rng = np.random.default_rng(seed)
    shape = (layout.dimension,) if batch is None else (layout.dimension, batch)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return amps.reshape([2] * layout.num_bits + list(shape[1:]))


def check_pass(layout, instr, targets, controls, batch, seed):
    """One pass of `instr` through each dense kernel and tile size against
    the reference; a single-target pass through the slice update also bit
    for bit against the untiled update."""
    start = random_tensor(layout, batch, seed)
    amps = start.reshape(layout.dimension, -1)
    op = reference_operator(
        layout.num_bits, instr.gate_matrix(), targets, controls, instr.ctrl_state
    )
    want = op @ amps
    untiled = None
    if len(targets) == 1:
        untiled = start.copy()
        untiled_pass(layout, untiled, instr)
    for kernel, limit in DENSE_KERNELS.items():
        for tile in TILES.values():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulator, "BLAS_DENSE_MAX", limit)
                mp.setattr(simulator, "TILE", tile)
                tensor = start.copy()
                apply_to_tensor(layout, tensor, instr)
            assert np.max(np.abs(tensor.reshape(amps.shape) - want)) <= TOL
            if untiled is not None and kernel == "slices":
                assert_same_bits(tensor, untiled)


@given(kernel_cases())
def test_pass_matches_reference(case):
    check_pass(*case)


@pytest.mark.parametrize("batch", [None, 3], ids=["vector", "batch"])
@pytest.mark.parametrize("ctrl_state", [(0, 0), (0, 1)], ids=["00", "01"])
@pytest.mark.parametrize("name", ["DENSE", "DENSE2"])
@pytest.mark.parametrize("zero_kind", ["q", "h"])
def test_zero_control_pass(zero_kind, name, ctrl_state, batch):
    # a 0-control on bit 0 of kind zero_kind, a second control of the other kind
    other = "h" if zero_kind == "q" else "q"
    layout = RegisterLayout((zero_kind, "q", "h", other))
    targets = [2] if name == "DENSE" else [1, 2]
    controls = [0, 3]
    instr = make_instruction(layout, name, targets, controls, ctrl_state, [0.1, 0.7, 0.4, 0.6])
    check_pass(layout, instr, targets, controls, batch, 5)


@pytest.mark.parametrize("batch", [None, 3], ids=["vector", "batch"])
@pytest.mark.parametrize("name", ["DENSE", "ANTI"])
def test_every_tile_shape(name, batch):
    # every target position of 6 bits: at the small tile sizes, runs of 1 to
    # 32 (3 to 96 with the batch) give in-place pieces, copied blocks and
    # strided runs, each whole and partial
    layout = RegisterLayout.of(6, 0)
    for t in range(6):
        instr = make_instruction(layout, name, [t], [], [], [0.2, 0.9, 0.3, 0.5])
        check_pass(layout, instr, [t], [], batch, t)


@pytest.mark.parametrize("gate", ["BOOST 0.9", "TAU"])
def test_hybit_zero_control_preserves_metric(gate):
    c = parse(f"qubits 1\nhybits 2\nCTRL !h0 : {gate} h1\nCTRL q0 !h1 : {gate} h0\n")
    assert isometry_residual(to_matrix(c), metric_for_kinds(c.layout.kinds)) <= EPS_ISO


def _sim_style_circuit(rng, layout, gates):
    """An H layer on every qubit, then gates of every class with 0-3 controls
    of random trigger values."""
    instrs = [Instruction("H", (i,)) for i in range(layout.num_qubits)]
    for _ in range(gates):
        name = str(rng.choice(GATES))
        arity = ARITY[name]
        while True:
            order = [int(p) for p in rng.permutation(layout.num_bits)]
            targets = order[:arity]
            kinds = [layout.kinds[p].value for p in targets]
            if all(kind == ONLY_ON.get(name, kind) for kind in kinds):
                break
        controls = order[arity:arity + int(rng.integers(0, 4))]
        ctrl_state = rng.integers(0, 2, size=len(controls)).tolist()
        instrs.append(make_instruction(layout, name, targets, controls, ctrl_state, rng.random(4)))
    return instrs


@pytest.mark.parametrize("limit", DENSE_KERNELS.values(), ids=DENSE_KERNELS.keys())
def test_sim_style_circuit_distribution(limit, monkeypatch):
    monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", limit)
    layout = RegisterLayout.of(10, 2)
    rng = np.random.default_rng(12)
    instrs = _sim_style_circuit(rng, layout, 60)
    psi = np.zeros(layout.dimension, dtype=complex)
    psi[0] = 1.0
    for instr in instrs:
        op = reference_operator(
            layout.num_bits, instr.gate_matrix(), instr.targets, instr.controls, instr.ctrl_state,
            sparse=True,
        )
        psi = op @ psi
    # the two hybits are the least significant index bits
    visible = np.abs(psi.reshape(-1, 4)[:, 0]) ** 2
    mass = visible.sum()

    dist = observe(run(Circuit(layout, tuple(instrs))))
    assert abs(dist.observable_mass - mass) <= TOL * mass
    assert np.max(np.abs(dist.probs - visible / mass)) <= TOL


@pytest.mark.parametrize("batch", [None, 3], ids=["vector", "batch"])
@pytest.mark.parametrize("name", ["H", "DENSE", "X", "ANTI", "DIAG"])
def test_tiled_pass_is_bit_identical(name, batch):
    # 16 bits at the real tile size: every target position, with no control,
    # one 0-control, and a 1- and a 0-control, which between them land on
    # every position including the last bit
    layout = RegisterLayout.of(16, 0)
    for t in range(16):
        for controls, ctrl_state in (([], []), ([(t + 9) % 16], [0]),
                                     ([(t + 3) % 16, (t + 13) % 16], [1, 0])):
            instr = make_instruction(layout, name, [t], controls, ctrl_state, [0.1, 0.7, 0.4, 0.6])
            start = random_tensor(layout, batch, t)
            want = start.copy()
            untiled_pass(layout, want, instr)
            apply_to_tensor(layout, start, instr)
            assert_same_bits(start, want)


@pytest.mark.parametrize("target", [0, 9, 17], ids=["long-run", "copied", "strided"])
@pytest.mark.parametrize("gate", ["H", "X"])
def test_dense_pass_temporaries_are_tiles(gate, target):
    # the untiled update allocated half-state temporaries (2 MiB each here):
    # two for the dense update of H, one for the swap of X
    layout = RegisterLayout.of(18, 0)
    tensor = random_tensor(layout, None, 0)
    instr = Instruction(gate, (target,))
    tracemalloc.start()
    try:
        apply_to_tensor(layout, tensor, instr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * simulator.TILE * tensor.itemsize


def stacked_pass(layout, tensor, instr):
    """The small-slice dense pass as first written: the two target slices
    stacked with `np.stack`, one matmul, both rows copied back."""
    idx = [slice(None)] * tensor.ndim
    for p, value in zip(instr.controls, instr.ctrl_state):
        idx[p] = value
    t = instr.targets[0]
    idx[t] = 0
    x0 = tensor[(*idx, ...)].squeeze()
    idx[t] = 1
    x1 = tensor[(*idx, ...)].squeeze()
    pair = instr.gate_matrix() @ np.stack((x0, x1)).reshape(2, -1)
    x0[...] = pair[0].reshape(x0.shape)
    x1[...] = pair[1].reshape(x1.shape)


def assert_stacked_bits(layout, instr, batch, seed):
    start = random_tensor(layout, batch, seed)
    want = start.copy()
    stacked_pass(layout, want, instr)
    apply_to_tensor(layout, start, instr)
    assert_same_bits(start, want)


SMALL_SLICE_KINDS = "qqhqh"
SMALL_SLICE_GATES = ("H", "TAU", "BOOST", "DENSE")


def _small_slice_instructions(controls_of):
    """Every dense single-target gate on every bit of SMALL_SLICE_KINDS, with
    the controls that controls_of(target) gives, at a fixed trigger pattern."""
    layout = RegisterLayout(tuple(SMALL_SLICE_KINDS))
    for t, kind in enumerate(SMALL_SLICE_KINDS):
        controls = controls_of(t)
        ctrl_state = [(t + c) % 2 for c in controls]
        for name in SMALL_SLICE_GATES:
            if ONLY_ON.get(name, kind) == kind:
                yield layout, make_instruction(layout, name, [t], controls, ctrl_state,
                                               [0.3, 0.8, 0.1, 0.65])


@pytest.mark.parametrize("ncontrols", [0, 2, 4])
def test_small_slice_pass_with_batch_is_stacked_bits(ncontrols):
    # the `to_matrix` case: a batch axis of one column per basis state, and
    # synthesized gates controlled on every other bit
    for layout, instr in _small_slice_instructions(
            lambda t: [p for p in range(5) if p != t][:ncontrols]):
        assert instr.gate_matrix()[0, 1] != 0  # the dense branch
        assert_stacked_bits(layout, instr, layout.dimension, 7 + instr.targets[0])


def test_small_slice_pass_on_zero_d_slices_is_stacked_bits():
    # every other bit a control: each target slice is one amplitude, squeezed to 0-d
    for layout, instr in _small_slice_instructions(lambda t: [p for p in range(5) if p != t]):
        assert_stacked_bits(layout, instr, None, 11 + instr.targets[0])


@pytest.mark.parametrize("batch", [None, 3], ids=["vector", "batch"])
def test_small_slice_pass_one_below_limit_is_stacked_bits(batch, monkeypatch):
    # no control, so each slice holds half the tensor; the limit is set one
    # above it, the largest slice that still takes the matmul
    for layout, instr in _small_slice_instructions(lambda t: []):
        half = layout.dimension // 2 * (batch or 1)
        monkeypatch.setattr(simulator, "BLAS_DENSE_MAX", half + 1)
        assert_stacked_bits(layout, instr, batch, 13 + instr.targets[0])


def untiled_multi_pass(layout, tensor, instr):
    """The multi-target pass as one product: the target axes moved to the
    front and the whole control block multiplied by the gate at once."""
    idx = [slice(None)] * tensor.ndim
    for p, value in zip(instr.controls, instr.ctrl_state):
        idx[p] = value
    remaining = [p for p in range(layout.num_bits) if p not in instr.controls]
    k = len(instr.targets)
    moved = np.moveaxis(tensor[tuple(idx)], [remaining.index(p) for p in instr.targets], range(k))
    moved[...] = (instr.gate_matrix() @ moved.reshape(1 << k, -1)).reshape(moved.shape)


MULTI_GATES = {"CZ": 2, "U2": 2, "U3": 3}
# column counts of the control block, batch axis included, with the batch
# axis of `to_matrix` (one column per basis state of 6 bits) or without one
MULTI_BLOCKS = {
    f"{name}-{'batch' if batch else 'vector'}": (cols, batch)
    for name, cols in (("1", 1), ("TILE/2", simulator.TILE // 2), ("TILE", simulator.TILE),
                       ("2TILE", 2 * simulator.TILE), ("8TILE", 8 * simulator.TILE))
    for batch in (None, 64) if cols >= (batch or 1)
}
# a batch axis alone wider than a tile, as `to_matrix` has at 12 bits, cut
# into slices of the tile's width
MULTI_BLOCKS["8TILE-wide-batch"] = (8 * simulator.TILE, 8 * simulator.TILE)


def multi_instruction(name, targets, controls, ctrl_state, rng):
    matrix = None if name == "CZ" else random_unitary(rng, 1 << MULTI_GATES[name])
    return Instruction(name, tuple(targets), tuple(controls), None, matrix, tuple(ctrl_state))


@pytest.mark.parametrize("block", MULTI_BLOCKS.values(), ids=MULTI_BLOCKS.keys())
@pytest.mark.parametrize("ncontrols", [0, 1])
@pytest.mark.parametrize("name", MULTI_GATES)
def test_tiled_multi_target_pass_is_bit_identical(name, ncontrols, block):
    # the control block is cut into tiles; each tile's product must round
    # as the whole block's does
    cols, batch = block
    k = MULTI_GATES[name]
    nbits = k + ncontrols + (cols // (batch or 1)).bit_length() - 1
    layout = RegisterLayout.of(nbits, 0)
    rng = np.random.default_rng(cols + 7 * ncontrols + k)
    spread = list(range(0, nbits, 2))[::-1] + list(range(1, nbits, 2))
    # the targets on the last bits, on the first ones, and spread out of
    # order; a 0-control on the next bit
    for order in (list(range(nbits))[::-1], list(range(nbits)), spread):
        targets, controls = order[:k], order[k:k + ncontrols]
        instr = multi_instruction(name, targets, controls, [0] * ncontrols, rng)
        start = random_tensor(layout, batch, len(targets) + order[0])
        want = start.copy()
        untiled_multi_pass(layout, want, instr)
        apply_to_tensor(layout, start, instr)
        assert_same_bits(start, want)


@pytest.mark.parametrize("name", MULTI_GATES)
def test_multi_target_tiles_stay_within_width(name, monkeypatch):
    # a tile's product makes at most 4 * TILE multiply-adds, also when the
    # batch axis alone is wider than a tile
    k = MULTI_GATES[name]
    layout = RegisterLayout.of(k + 1, 0)
    instr = multi_instruction(name, list(range(k)), [], [], np.random.default_rng(k))
    products = []
    matmul = np.matmul

    def recording(a, b, out):
        products.append(a.shape[0] * b.shape[0] * b.shape[1])
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recording)
    apply_to_tensor(layout, random_tensor(layout, 8 * simulator.TILE, k), instr)
    assert sum(products) == (1 << 2 * k) * 2 * 8 * simulator.TILE
    assert max(products) == 4 * simulator.TILE


def test_tiled_multi_target_to_matrix_is_bit_identical(monkeypatch):
    # 10 bits: a 3-target tile is 512 columns wide, so the 1024-column batch
    # axis is cut in two; a CZ tile holds whole columns of the batch axis
    rng = np.random.default_rng(10)
    layout = RegisterLayout.of(10, 0)
    circuit = Circuit(layout, (
        Instruction("H", (0,)), Instruction("CZ", (0, 9)),
        multi_instruction("U3", [3, 8, 1], [], [], rng), Instruction("CZ", (5, 2)),
        multi_instruction("U3", [9, 0, 4], [6], [0], rng)))
    tiled = to_matrix(circuit)
    kernel = simulator.apply_to_tensor

    def untiled(layout, tensor, instr):
        (untiled_multi_pass if len(instr.targets) > 1 else kernel)(layout, tensor, instr)

    monkeypatch.setattr(simulator, "apply_to_tensor", untiled)
    assert_same_bits(tiled, to_matrix(circuit))


@pytest.mark.parametrize("nbits", [14, 18])
def test_tiled_multi_target_run_is_bit_identical(nbits, monkeypatch):
    # `run` lays the state out in its own memory order, and a multi-target
    # gate runs on the view with its flipped targets and controls reversed;
    # the tile copy holds the targets in register order, so the result is
    # bit-identical
    rng = np.random.default_rng(nbits)
    layout = RegisterLayout.of(nbits, 0)
    a, b, c, e = 1, nbits - 2, nbits // 2, nbits - 1
    instrs = [Instruction("X", (a,)), Instruction("X", (c,)), Instruction("H", (e,)),
              Instruction("CZ", (a, b)),
              Instruction("X", (b,)), multi_instruction("U2", [b, 0], [], [], rng),
              Instruction("X", (e,)), multi_instruction("U3", [e, a, 2], [c], [0], rng),
              multi_instruction("U2", [3, c], [b], [1], rng), Instruction("X", (3,))]
    circuit = Circuit(layout, tuple(instrs))
    initial = StateVector(layout, random_state_amps(rng, layout.dimension))
    tiled = np.ascontiguousarray(run(circuit, initial).tensor)
    kernel = simulator.apply_to_tensor

    def untiled(layout, tensor, instr):
        (untiled_multi_pass if len(instr.targets) > 1 else kernel)(layout, tensor, instr)

    monkeypatch.setattr(simulator, "apply_to_tensor", untiled)
    assert_same_bits(tiled, np.ascontiguousarray(run(circuit, initial).tensor))


def column_subsets(rng, cols):
    """Three random subsets of each power-of-two size from 4, the fewest
    columns a narrowed view of `run` leaves, to `cols`, in random order."""
    for width in (1 << e for e in range(2, cols.bit_length())):
        for _ in range(3):
            yield rng.choice(cols, size=width, replace=False)


@pytest.mark.parametrize("kind", ["q", "h"])
def test_pair_matmul_columns_round_as_the_whole_product(kind):
    rng = np.random.default_rng(ord(kind))
    gate, _ = make_gate("DENSE", [kind], rng.random(4))
    start = random_tensor(RegisterLayout.of(11, 0), None, 3).reshape(2, -1)
    whole = start.copy()
    kernel = simulator._pair_kernel(gate)
    simulator._apply_pair(whole[0], whole[1], gate, True, kernel)
    for cols in column_subsets(rng, start.shape[1]):
        part = np.ascontiguousarray(start[:, cols])
        simulator._apply_pair(part[0], part[1], gate, True, kernel)
        assert_same_bits(part, np.ascontiguousarray(whole[:, cols]))


@pytest.mark.parametrize("k", [2, 3, 7])
def test_tile_columns_round_as_the_whole_product(k):
    # tiles of at most 2048, 512 and 2 columns: 1024 columns make one tile,
    # two, and 512
    rng = np.random.default_rng(k)
    gate = random_unitary(rng, 1 << k)
    start = random_tensor(RegisterLayout.of(k + 10, 0), None, k).reshape(1 << k, -1)
    whole = start.copy()
    simulator._multiply_tiles(gate, whole.reshape((2,) * k + (-1,)), k)
    for cols in column_subsets(rng, start.shape[1]):
        part = np.ascontiguousarray(start[:, cols])
        simulator._multiply_tiles(gate, part.reshape((2,) * k + (-1,)), k)
        assert_same_bits(part, np.ascontiguousarray(whole[:, cols]))
