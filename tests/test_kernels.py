"""Simulator kernel passes against an independent dense reference.

The reference writes the operator of one instruction on the whole register
as I + P_C (G_T - I): a sum of Kronecker products of one-bit factors, with
the projector |v><v| on every control of trigger value v, the matrix units
of G on the targets and the identity on every other bit. It shares no code with
`apply_to_tensor` or `to_matrix`. Every case runs through both dense
kernels: the slice update and the matmul on the stacked slice pair.

The slice update runs in tiles. Single-target passes are also checked bit
for bit against the same update without tiles, written out below, at the
real tile size and at tile sizes small enough that registers of a few bits
cross every tile shape.
"""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from lqc.circuit import Circuit, Instruction, parse, to_matrix
from lqc.core import EPS_ISO, RegisterLayout, metric_for_kinds
from lqc.gates import BUILTIN_ARITY, isometry_residual
from lqc import simulator
from lqc.simulator import apply_to_tensor, observe, run

TOL = 1e-12
MAX_BITS = 6
# BLAS_DENSE_MAX settings that force each dense kernel
DENSE_KERNELS = {"slices": 0, "matmul": np.inf}
# TILE settings: the real size, and sizes at which <= 6-bit cases cross every
# tile shape: a piece of a run updated in place, a copied block of runs,
# runs of one strided amplitude, and partial last tiles (6 divides no power
# of two; 4 cuts the batch runs of 6 into 4 + 2). Neither small size leaves
# a tile of one amplitude, which numpy multiplies in place with different
# rounding.
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
def test_dense_pass_temporaries_are_tiles(target):
    # the untiled update allocated two half-state temporaries (2 x 2 MiB here)
    layout = RegisterLayout.of(18, 0)
    tensor = random_tensor(layout, None, 0)
    instr = Instruction("H", (target,))
    tracemalloc.start()
    try:
        apply_to_tensor(layout, tensor, instr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * simulator.TILE * tensor.itemsize
