"""State-vector simulation with hyper-postselected measurement.

Gates touch amplitudes through axis views of the state tensor, so one
instruction costs O(2^N * 2^arity) regardless of register size; the full
register matrix is never materialized. Each control fixes its axis at its
trigger value (1, or 0 for a "!" control), so only the control block where
every control holds its value is touched; a 0-control costs what a
1-control costs.

`run` lays its tensor out in the order the circuit works on it: each
instruction adds 2^-(its control count), the share of the state its pass
touches, to the weight of each of its targets and controls, and the bits
go on memory axes by descending weight (ties by position), so the most
worked bits lead. The instructions see the register-order view of that
tensor (axis p is register bit p), so they, the untouched-bit views below
and every copy the kernel makes keep register order; only the memory
behind them moves. A gate on a leading memory axis walks long contiguous
stretches; on a trailing one, stretches of a few amplitudes. The state is
never copied back: `StateVector` keeps the view, and `observe` reads it.

A single-target gate [[a, b], [c, d]] updates the two target slices x0
(target bit 0) and x1 (target bit 1) of the control block in place,
without copying the state. The slices are walked with their axes in memory
order (by decreasing stride). Its 2x2 entries pick the kernel:

* diagonal (T, Z, SZ, SZD, PHASE): scale each slice in one op, skipping a
  factor of exactly 1
* anti-diagonal (X, Y): swap the slices through a temporary; `run` leaves
  an uncontrolled X or Y to its Pauli frame (below) instead
* dense (H, TAU, BOOST, general U): x0, x1 <- a x0 + b x1, c x0 + d x1
  through two temporaries; below BLAS_DENSE_MAX amplitudes per slice, as
  one matmul on a contiguous (2, k) copy of the two slices instead, whose
  rows are copied back; the copy is in the register order of the slices
  whatever the memory order, so BLAS sees the same columns

A diagonal gate is one op per slice, already a single pass over it. The
swap and the dense update take several ops per slice, so they run over
chunks of at most TILE amplitudes of each slice, and every op of a chunk
works on data in cache: a pass reads and writes each touched amplitude
once. numpy's buffered iterator (`np.nditer`) cuts the chunks. A chunk is
a piece of the slice itself, or a contiguous buffer that the iterator fills
from the slice and writes back, where the slice's amplitudes lie too
scattered to walk in one stride (a target near the end of the register
leaves stretches of a few adjacent amplitudes).

Each chunk goes through the same ops, with the same scalar factors, as the
whole slice would: the arithmetic of every element is unchanged, only the
order in which elements are visited differs, so the result is
bit-identical to the update without chunks. (One exception: numpy rounds
an in-place complex product on a one-amplitude array differently. A
one-amplitude chunk of a longer slice needs a stretch of amplitudes one
longer than a multiple of TILE; the stretches of a state vector or of
`to_matrix` are powers of two long, so at a power-of-two TILE it cannot
occur.)

Where the adjacent amplitudes of a slice come in stretches of exactly 2
(the second-to-last memory axis is not an axis of the slice, being its
target, a control or a fixed untouched bit, while the last one is), the
swap, the dense update and the diagonal scaling iterate with that stretch
axis moved to the front, in C order: inner loops then run along the long
strided axes instead of over pairs. With the target on the second-to-last
axis of a 20-bit C-ordered state that about halved a dense pass and cut a
diagonal one to a third; at stretches of 4 the same reorder measured
slower, so it is kept to stretches of 2.

Gates with two or more targets (CZ, multi-target DEFGATEs) move their
target axes to the front and multiply the control block by the gate
matrix, one tile of columns at a time: the other axes are taken in memory
order and the leading ones fixed, and each tile is copied to a contiguous
buffer, multiplied into a second one and written back. A pass so holds two
tiles beside the state, not a copy of the block and its product; on a
22-bit state it ran 1.6-3.6x faster than the whole-block product (one BLAS
thread, 2-core Intel Xeon). A tile has as many columns as keep its product
at 4 * TILE multiply-adds, TILE amplitudes for two targets: the OpenBLAS of
numpy 2.4.6 ran products of 2^15 multiply-adds on one thread and handed
those of 2^16 to a second, which took about 8 ms a call while the other
core was busy. When only the last memory axis is left and it is wider
than a tile (the batch axis of `to_matrix`, 4096 columns at 12 bits), it
is cut into slices of a tile's width. A block no larger than a tile is one
tile: one copy and one product. Each column rounds as it does in the whole
block's product;
tests/test_kernels.py pins this on power-of-two tiles (a one-column
product, which BLAS runs as a matrix-vector product, rounds otherwise).

`run` from a basis state (|0...0> or any state with one nonzero amplitude)
leaves out the bits no instruction has targeted yet while they hold their
start values, since every amplitude where one differs is zero and stays
zero. One rule covers a control on such a bit: a pass whose trigger there
is not the start value is skipped, and any other runs unchanged, the
kernel fixing that axis at its trigger value, which is the start value. A
single-target pass also slices other untouched axes to length 1 at their
start values (no renumbering, no view cache), so an H layer on |0...0>
touches one block of the state per gate instead of all of it. Two limits
keep the result bit-identical to passes over the whole tensor, apart from
the sign of zero amplitudes outside the view (a whole-tensor Z turns them
into -0.0, which no probability sees): a single-target pass fixes no more
untouched bits than leave each target slice max(BLAS_DENSE_MAX, 2)
amplitudes, because a smaller slice would take the BLAS branch or numpy's
one-amplitude product, which round differently; a pass with two or more
targets slices no axis, because BLAS may round a matmul of another width
differently.

Pauli frame. `run` applies no uncontrolled X to the state: it keeps a set
of flipped register positions, and a bit's value is its stored one XOR its
flag. An uncontrolled X toggles the flag and makes no pass; on an untouched
bit the stored start value stays, so the bit stays untouched. An
uncontrolled Y = X diag(i, -i) is a diagonal pass of diag(i, -i), the two
complex products the swap makes, then the toggle. Every other instruction
runs on the view of the tensor in which only its flipped targets and
controls are reversed. The kernel indexes a single-target gate's target
and every control away, so no slice it walks has a negative stride. A gate
of two or more targets keeps its targets: numpy can reshape reversed target
axes without a copy, and matmul rounds such a negative-stride operand
otherwise than the copy BLAS gets. So it first takes its flipped targets
out of the frame, with an X pass on each. A control on an untouched bit
compares its trigger with the stored value XOR the flag. `run` returns the
tensor with its flipped axes reversed, without a copy; `to_matrix` keeps no
frame. The amplitudes are those of the passes without a frame, bit for
bit, up to the sign of zeros.

Measurement keeps only amplitudes with every hybit in state 0 and
renormalizes over that subspace, and it squares only those. Each hybit
axis is fixed at 0 and the slice is squared (re*re + im*im) straight into
the float output, in register index order, in chunks of at most TILE
amplitudes that numpy's buffered iterator cuts in memory order, whatever
axes the frame left reversed. The visible squares are summed in register
index order, so they and the mass keep their bits whatever the memory
order, and are divided by the mass in place. The mass per hybit pattern,
which feeds only the finite check and the negligible-mass warning, comes
from `core.pattern_masses`, summed in memory order with no temporary of
the state's size. So `observe` holds the state, the visible probabilities
and a chunk. `sample` takes the distribution, not the state, so `lqc
sample` frees the state before it draws. The outcome distribution is an
array over qubit indices, whose order is sorted-bitstring order;
bitstrings are built only for output. Sampling draws by inverse CDF over
that array, so the draws equal those of an inverse CDF over the sorted
list of outcomes. A state whose total squared magnitude is not finite (its
amplitudes overflowed) is refused with GuardError.

`format_distribution` and `format_counts` write the text forms to a stream
one block of at most FORMAT_BLOCK lines at a time, so the whole text is
never held. The text prints each nonzero probability at 17 significant
digits, and a `%.17g` costs about 1 us. After an H layer, the 2^n
probabilities often take only about a hundred distinct values. So when a
distribution has at most DISTINCT_FORMAT_MAX distinct values per printed
line, each distinct value (keyed on its exact float, never on rounded text)
is formatted once and every line takes its text; otherwise each line's
value is formatted. Both paths print the same bytes. One sort of the
nonzero probabilities gives the distinct values and a binary search into
them each line's text, the values and codes `np.unique` would give, without
the second sort of `np.unique(..., return_inverse=True)` or its import of
`numpy.ma`. Counts always take the per-line path: `%d` is cheap, and
looking texts up measured slower.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .core import (
    EPS_PROB_SUM,
    NEGLIGIBLE_MASS_RATIO,
    BitKind,
    GuardError,
    LqcError,
    RegisterLayout,
    StateVector,
    metric_for_kinds,
    pattern_masses,
)

if TYPE_CHECKING:
    from .circuit import Circuit, Instruction

# output lines per %-format in format_distribution and format_counts
FORMAT_BLOCK = 1 << 14
# format_distribution formats each distinct probability once, and gives
# every line its text, when there are at most this many distinct values per
# printed line; otherwise it formats each line's value. A `%.17g` costs about
# 1 us, so few distinct values save most of the text cost: 0.30 s -> 0.06 s
# on a 2^18-line `sim` distribution of 86 distinct values (medians of 21
# calls). On 2^18 lines the distinct path costs as much as the per-line one
# at 0.5 distinct values per line, and 1.4x as much at 1.0 (medians of 7).
DISTINCT_FORMAT_MAX = 0.5
# Below this many amplitudes per target slice, a dense gate is one BLAS
# matmul, gate @ (2, k), on a contiguous copy of the two slices made by one
# `np.array((x0, x1))` call, as multi-target gates are. At that size it
# costs about what the slice update costs, and it rounds more tightly:
# with the slice update, the metric residual of `to_matrix` on synthesized
# circuits, which `lqc verify` compares with EPS_ISO, is about 1.3x larger
# and flips some results near EPS_ISO. Above this size the chunked slice
# update is 2-5x faster than copying the pair.
BLAS_DENSE_MAX = 1 << 13
# Amplitudes per target slice in one chunk of the slice update: the buffer
# size of the iterator. A dense chunk holds x0 and x1 buffers and two
# temporaries, 4 x 128 KiB, well inside L2. On a 20-bit state, 2^15 measured
# slower on every target bit (spills from L2) and 2^12 slower on dense
# passes (more calls per pass).
TILE = 1 << 13
# the diagonal half of Y = X diag(i, -i), which the Pauli frame applies as a
# pass before it toggles the bit's flag
Y_PHASES = np.diag([1j, -1j])
Y_PHASES.setflags(write=False)


class ZeroObservableMassError(LqcError):
    """The state has no amplitude left on the observable subspace."""


class NegligibleMassWarning(UserWarning):
    pass


def apply_to_tensor(layout: RegisterLayout, tensor: np.ndarray, instr: Instruction) -> None:
    """Apply one instruction in place to a state tensor of shape [2]*num_bits
    (optionally with trailing batch axes). Each control fixes its axis at its
    trigger value, so only the control block where every control holds its
    value is touched. One target updates its two slices in place, with
    length-1 axes squeezed out; more targets move to the front for a matmul."""
    gate = instr.gate_matrix()
    idx: list = [slice(None)] * tensor.ndim
    for c, value in zip(instr.controls, instr.ctrl_state):
        idx[c] = value
    if len(instr.targets) == 1:
        t = instr.targets[0]
        # the trailing Ellipsis keeps a view even when every axis is indexed
        idx[t] = 0
        x0 = tensor[(*idx, ...)].squeeze()
        idx[t] = 1
        x1 = tensor[(*idx, ...)].squeeze()
        _apply_pair(x0, x1, gate)
        return

    sub = tensor[tuple(idx)]
    remaining = [p for p in range(layout.num_bits) if p not in instr.controls]
    tpos_sub = [remaining.index(p) for p in instr.targets]
    k = len(tpos_sub)
    moved = np.moveaxis(sub, tpos_sub, range(k))
    _multiply_tiles(gate, moved, k)


def _multiply_tiles(gate: np.ndarray, moved: np.ndarray, k: int) -> None:
    """moved <- gate @ moved over its first k axes, a tile of at most
    `width` columns at a time, so a tile's product makes at most 4 * TILE
    multiply-adds, as a two-target tile of TILE amplitudes does. The other
    axes are taken in memory order, and the leading ones are fixed until the
    trailing ones hold at most `width` columns; if only the last axis is
    left and it holds more (the batch axis of `to_matrix`), it is cut into
    slices of `width`. Each tile is copied to a contiguous buffer,
    multiplied into a second one and written back. A block of at most
    `width` columns is one tile: one copy and one product."""
    d = 1 << k
    width = max(4 * TILE // (d * d), 1)
    rest = sorted(range(k, moved.ndim), key=lambda a: -abs(moved.strides[a]))
    moved = moved.transpose(*range(k), *rest)
    lead, cols = k, moved.size // d
    while cols > width and lead < moved.ndim - 1:
        cols //= moved.shape[lead]
        lead += 1
    buf = np.empty((d, min(cols, width)), moved.dtype)
    prod = np.empty_like(buf)
    for fixed in itertools.product(*map(range, moved.shape[k:lead])):
        block = moved[(slice(None),) * k + fixed]
        for start in range(0, cols, width):
            tile = block if cols <= width else block[..., start:start + width]
            # the last slice of the batch axis may be narrower
            b, p = (buf, prod) if tile.size == buf.size else (buf[:, :tile.size // d],
                                                              prod[:, :tile.size // d])
            b.reshape(tile.shape)[...] = tile
            np.matmul(gate, b, out=p)
            tile[...] = p.reshape(tile.shape)


def _apply_pair(x0: np.ndarray, x1: np.ndarray, gate: np.ndarray) -> None:
    """x0, x1 <- a x0 + b x1, c x0 + d x1 in place, for the target slices
    t=0 / t=1 of a 2x2 gate [[a, b], [c, d]]. Factors of exactly 1 are
    skipped: X only swaps the slices, and SZ scales only x1."""
    (a, b), (c, d) = gate.tolist()
    if b == 0 and c == 0:
        # one op per slice, each already a single pass over that slice
        x0, x1, order = _loop_order(x0, x1)
        if a != 1:
            np.multiply(x0, a, out=x0, order=order)
        if d != 1:
            np.multiply(x1, d, out=x1, order=order)
    elif a == 0 and d == 0:
        _tiled(_swap, (b, c), x0, x1, 1)
    elif x0.size < BLAS_DENSE_MAX:
        pair = gate @ np.array((x0, x1)).reshape(2, -1)
        x0[...] = pair[0].reshape(x0.shape)
        x1[...] = pair[1].reshape(x1.shape)
    else:
        _tiled(_mix, (a, b, c, d), x0, x1, 2)


def _swap(b, c, x0, x1, tmp) -> None:
    if c != 1:
        np.multiply(x0, c, out=tmp)
    else:
        tmp[...] = x0
    if b == 1:
        x0[...] = x1
    else:
        np.multiply(x1, b, out=x0)
    x1[...] = tmp


def _mix(a, b, c, d, x0, x1, tmp, prod) -> None:
    np.multiply(x0, c, out=tmp)
    if a != 1:
        x0 *= a
    x0 += np.multiply(x1, b, out=prod)
    if d != 1:
        x1 *= d
    x1 += tmp


def _tiled(update, coeffs, x0: np.ndarray, x1: np.ndarray, ntemps: int) -> None:
    """update(*coeffs, c0, c1, *temps) over the chunks c0, c1 of at most TILE
    amplitudes that numpy's buffered iterator cuts from each slice, with
    `ntemps` scratch arrays of the chunk's size. A chunk is a piece of the
    slice itself or a contiguous buffer that the iterator fills from the
    slice and writes back."""
    x0, x1, order = _loop_order(x0, x1)
    temps = [np.empty(min(TILE, x0.size), x0.dtype) for _ in range(ntemps)]
    with np.nditer((x0, x1), ("external_loop", "buffered"), [["readwrite"]] * 2,
                   order=order, buffersize=TILE) as it:
        for c0, c1 in it:
            update(*coeffs, c0, c1, *[t[:c0.size] for t in temps])


def _loop_order(x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """The target slices and the order to iterate them in. Order "K" walks
    their axes by decreasing stride, which is memory order whatever order
    the axes are listed in. Where adjacent amplitudes come in stretches of
    exactly 2 (the last memory axis is contiguous, of length 2, and the one
    before it is not next to it), that axis moves to the front, the others
    follow in memory order, and the iteration runs in C order, so inner
    loops walk the long strided axes rather than pairs. A slice whose last
    axis is a longer batch axis, as in `to_matrix`, is C-ordered with that
    axis contiguous, so it is passed over at the first test."""
    strides, size = x0.strides, x0.itemsize
    if x0.ndim > 1 and x0.shape[-1] == 2 and size in strides and 2 * size not in strides:
        last = strides.index(size)
        if x0.shape[last] == 2:
            rest = sorted(set(range(x0.ndim)) - {last}, key=strides.__getitem__, reverse=True)
            return x0.transpose(last, *rest), x1.transpose(last, *rest), "C"
    return x0, x1, "K"


def run(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Run a circuit on a copy of the initial state (default |0...0>).

    The copy is laid out in the memory order of the module docstring, the
    most worked bits on the leading axes, and the state returned keeps it:
    its `tensor` is the register-order view of that memory, and its `amps`
    lays the amplitudes out in register index order on first access. The
    initial state is left as it is.

    From a basis state (the default, or an initial state with exactly one
    nonzero amplitude) the run tracks the untouched bits, those no
    instruction has targeted yet, with their start values; from any other
    state no bit is untouched. An instruction with a control on an untouched
    bit is skipped when the trigger differs from the start value (its
    control block is all zero); otherwise it runs unchanged, and the kernel
    fixes that control's axis at the start value. A single-target pass runs
    on the view of the tensor with other untouched axes sliced to length 1
    at their start values, keeping the circuit's bit positions (no view is
    cached); every amplitude outside the view is zero and stays zero.
    Under the two limits of the module docstring, the result is
    bit-identical to applying every instruction to the whole tensor, except
    that a zero amplitude outside the view keeps +0.0 where a whole-tensor
    pass may leave -0.0.

    Uncontrolled X and Y go to the Pauli frame of the module docstring, so
    the returned `tensor` may have reversed axes, those of the bits left
    flipped; it is still the state in register order, read through a view."""
    layout = circuit.layout
    order = _memory_order(layout, circuit.instructions)
    tensor = np.zeros((2,) * layout.num_bits, dtype=np.complex128).transpose(np.argsort(order))
    if initial is None:
        start = [0] * layout.num_bits
        tensor[tuple(start)] = 1.0
    else:
        if initial.layout != layout:
            raise LqcError("initial state layout does not match circuit layout")
        tensor[...] = initial.tensor
        start = _basis_bits(initial.tensor)
    flipped: set[int] = set()
    apply_all(layout, tensor, circuit.instructions, start, flipped)
    return StateVector(layout, tensor[tuple(_reversing(tensor.ndim, flipped))])


def _memory_order(layout: RegisterLayout, instructions) -> list[int]:
    """Register positions in the memory order of `run`'s tensor, leading
    axis first. Each instruction adds 2^-(its control count) to the weight
    of each of its targets and controls, the share of the state its pass
    touches; bits go by descending weight, ties by position."""
    weight = [0.0] * layout.num_bits
    for instr in instructions:
        share = 0.5 ** len(instr.controls)
        for p in (*instr.targets, *instr.controls):
            weight[p] += share
    return sorted(range(layout.num_bits), key=lambda p: -weight[p])


def _basis_bits(tensor: np.ndarray) -> list[int] | None:
    """The bits of the one nonzero amplitude of a basis state, else None."""
    if np.count_nonzero(tensor) != 1:
        return None
    return np.argwhere(tensor)[0].tolist()


def apply_all(layout: RegisterLayout, tensor: np.ndarray, instructions,
              start: list[int] | None = None, flipped: set[int] | None = None) -> None:
    """apply_to_tensor for each instruction: the one loop of `run` and
    `circuit.to_matrix`. When the tensor held the basis state `start` before
    the first one, each instruction is skipped, or passed on unchanged to
    the whole tensor or a view, as `run` describes; with no `start`, every
    pass covers the whole tensor. Given an empty set `flipped`, the loop
    keeps the Pauli frame of the module docstring in it: on return, the
    state is the tensor with the axes in `flipped` reversed.
    Overflow is left to `observe` and `isometry_residual` to report."""
    untouched = {} if start is None else dict(enumerate(start))
    if flipped is None:
        flipped = set()
    else:
        instructions = _framed(instructions, flipped)
    floor = max(BLAS_DENSE_MAX, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for instr in instructions:
            idx = _reversing(tensor.ndim, flipped.intersection((*instr.targets, *instr.controls)))
            if untouched:
                # an untouched bit's logical value is its stored one XOR its flag
                if any(c in untouched and untouched[c] ^ (c in flipped) != v
                       for c, v in zip(instr.controls, instr.ctrl_state)):
                    continue
                for t in instr.targets:
                    untouched.pop(t, None)
                if len(instr.targets) == 1:
                    size = 1 << (layout.num_bits - 1 - len(instr.controls))
                    for p, v in untouched.items():
                        if size >> 1 < floor:
                            break
                        if p not in instr.controls:
                            idx[p] = slice(v, v + 1)
                            size >>= 1
            apply_to_tensor(layout, tensor[tuple(idx)], instr)


def _framed(instructions, flipped: set[int]):
    """The passes `instructions` leave once their uncontrolled X and Y join
    the Pauli frame `flipped`, which they update as the passes are applied:
    an X toggles its bit's flag and makes no pass, and a Y is its diagonal
    half diag(i, -i) as a pass, then the toggle. A gate of two or more
    targets first takes its flipped targets out of the frame, with an X
    pass each on the stored axis."""
    for instr in instructions:
        # Instruction, which this module cannot import: circuit imports it
        make = type(instr)
        if instr.controls or instr.matrix is not None or instr.gate not in ("X", "Y"):
            if len(instr.targets) > 1:
                for t in flipped.intersection(instr.targets):
                    flipped.discard(t)
                    yield make("X", (t,))
            yield instr
            continue
        (t,) = instr.targets
        if instr.gate == "Y":
            yield make("Y", (t,), matrix=Y_PHASES)
        flipped.symmetric_difference_update((t,))


def _reversing(ndim: int, axes) -> list:
    """An index over `ndim` axes that reverses `axes` and keeps the rest."""
    idx: list = [slice(None)] * ndim
    for p in axes:
        idx[p] = slice(None, None, -1)
    return idx


def _bitstrings(indices: np.ndarray, size: int) -> list[str]:
    """Qubit bitstrings of indices into an array of `size` = 2^nq outcomes."""
    nq = size.bit_length() - 1
    fmt = f"0{nq}b"
    return [format(j, fmt) for j in indices.tolist()] if nq else [""] * indices.size


def _nonzero_items(values: np.ndarray) -> zip:
    """(bitstring, value) for the nonzero entries of an array over qubit
    indices, in index order (which is sorted-bitstring order)."""
    support = np.flatnonzero(values)
    return zip(_bitstrings(support, values.size), values[support].tolist())


def _format_blocks(out: TextIO, tail: str, size: int, support: np.ndarray,
                   args: np.ndarray, texts: np.ndarray | None = None) -> None:
    """Write `bitstring + tail % arg` to `out` for each index in `support`
    (ascending) into an array of `size` = 2^nq outcomes, where arg is the
    index's entry of `args`, or texts[that entry] when `texts` is given.
    Each block of lines is one %-format of a template that already holds its
    bitstrings, written as ASCII digit rows by numpy rather than as one
    string per line, and is written as soon as it is made; the block bounds
    the temporary objects and the text held at once."""
    nq = size.bit_length() - 1
    # the digits are the low nq bits of each index's big-endian bytes, of
    # which only the low ceil(nq / 8) are unpacked
    nbytes = -(-nq // 8)
    tail_bytes = np.frombuffer(tail.encode("ascii"), dtype=np.uint8)
    for start in range(0, support.size, FORMAT_BLOCK):
        block = support[start:start + FORMAT_BLOCK]
        line_args = args[start:start + FORMAT_BLOCK]
        if texts is not None:
            line_args = texts[line_args]
        rows = np.empty((block.size, nq + tail_bytes.size), dtype=np.uint8)
        low = block.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - nbytes:]
        np.add(np.unpackbits(low, axis=1)[:, 8 * nbytes - nq:], ord("0"), out=rows[:, :nq])
        rows[:, nq:] = tail_bytes
        out.write(rows.tobytes().decode("ascii") % tuple(line_args.tolist()))


@dataclass
class OutcomeDistribution:
    """Hyper-postselected outcome probabilities: probs[j] is the probability
    of the qubit bitstring of index j (qubits in layout order, first qubit
    most significant). All zero when nothing is observable."""

    probs: np.ndarray
    observable_mass: float

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1 or self.probs.size & (self.probs.size - 1):
            raise LqcError("probabilities must be a vector over 2^n qubit indices")
        if not np.isfinite(self.probs).all():
            raise LqcError("probabilities must be finite")
        # -0.0 is not below 0, so it passes
        if (self.probs < 0).any():
            raise LqcError("probabilities must be nonnegative")
        if self.probs.any():
            total = float(self.probs.sum())
            if abs(total - 1.0) > EPS_PROB_SUM:
                raise LqcError(f"probabilities sum to {total}, not 1")

    @property
    def probabilities(self) -> dict[str, float]:
        """The nonzero probabilities keyed by qubit bitstring, built on demand."""
        return dict(_nonzero_items(self.probs))


def observe(state: StateVector) -> OutcomeDistribution:
    """Probability of each qubit bitstring conditioned on every hybit being
    observed in state 0. A state with zero observable mass yields an all-zero
    distribution rather than an error; a state whose squared magnitude is not
    finite raises GuardError."""
    layout = state.layout
    hybits = layout.positions(BitKind.HYBIT)
    idx = [slice(None)] * layout.num_bits
    for p in hybits:
        idx[p] = 0
    # squared straight into register index order, whatever the frame
    visible = np.empty((2,) * layout.num_qubits)
    _square(state.tensor[(*idx, ...)], visible)
    visible = visible.reshape(-1)
    mass = float(visible.sum())
    per_pattern = pattern_masses(state)
    total = float(per_pattern.sum())
    if not np.isfinite(total):
        raise GuardError(f"the state's total squared magnitude is {total}, not finite")
    if mass == 0.0:
        return OutcomeDistribution(visible, 0.0)

    # the positive patterns have even parity
    signs = metric_for_kinds([BitKind.HYBIT] * len(hybits))
    positive_mass = float(per_pattern[signs > 0].sum())
    if mass < NEGLIGIBLE_MASS_RATIO * positive_mass:
        warnings.warn(
            f"observable mass {mass:.3g} is below {NEGLIGIBLE_MASS_RATIO:g} of the "
            f"positive mass {positive_mass:.3g}; postselection is numerically meaningless",
            NegligibleMassWarning,
            stacklevel=2,
        )
    visible /= mass
    return OutcomeDistribution(visible, mass)


def _square(amps: np.ndarray, out: np.ndarray) -> None:
    """out <- re*re + im*im of `amps`, over the chunks of at most TILE
    elements that numpy's buffered iterator cuts from both in memory order,
    so no temporary holds more than a chunk. An overflowing square gives inf
    or nan, without numpy warnings."""
    tmp = np.empty(min(TILE, out.size))
    with np.errstate(over="ignore", invalid="ignore"), np.nditer(
            (amps, out), ("external_loop", "buffered"), [["readonly"], ["writeonly"]],
            order="K", buffersize=TILE) as it:
        for a, o in it:
            np.square(a.real, out=o)
            o += np.square(a.imag, out=tmp[:o.size])


@dataclass
class SampleResult:
    """Shot counts per outcome index, in the order of OutcomeDistribution.probs."""

    histogram: np.ndarray
    shots: int
    seed: int

    @property
    def counts(self) -> Counter:
        """The nonzero counts keyed by qubit bitstring, built on demand."""
        return Counter(dict(_nonzero_items(self.histogram)))


def sample(dist: OutcomeDistribution, shots: int, seed: int) -> SampleResult:
    """Draw i.i.d. measurement shots from an observed distribution;
    deterministic per seed (counter-based generator, inverse CDF over the
    outcome indices). It takes the distribution, not the state, so a caller
    that writes sample(observe(state), ...) holds no state while it draws."""
    if not isinstance(dist, OutcomeDistribution):
        raise LqcError(f"sample takes the OutcomeDistribution of observe(state), "
                       f"got {type(dist).__name__}")
    if shots < 0:
        raise LqcError("shot count must be nonnegative")
    if seed < 0:
        raise LqcError(f"seed must be nonnegative, got {seed}")
    if dist.observable_mass == 0.0:
        raise ZeroObservableMassError("state has zero observable mass")
    probs = dist.probs
    cdf = np.cumsum(probs)
    # from the last possible outcome on, every draw u < 1 lands at or before it
    cdf[probs.size - 1 - int(np.argmax(probs[::-1] != 0)):] = 1.0
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.random(shots)
    # sorted draws walk the CDF in order, which the search does far faster;
    # the histogram does not depend on their order
    u.sort()
    draws = np.searchsorted(cdf, u, side="right")
    return SampleResult(np.bincount(draws, minlength=cdf.size), shots, seed)


def format_distribution(dist: OutcomeDistribution, out: TextIO) -> None:
    """Write the shared text form to `out`: observable-mass header, then
    bitstring/probability lines (tab separated, 17 significant digits,
    sorted by bitstring) for the outcomes of nonzero probability. When there
    are at most DISTINCT_FORMAT_MAX distinct values per line, each distinct
    value goes through `%.17g` once and every line takes its text."""
    out.write(f"# observable_mass = {dist.observable_mass:.17g}\n")
    probs = dist.probs
    support = np.flatnonzero(probs)
    nonzero = probs[support]
    # one sort gives the distinct values, as np.unique would; the nan put
    # before the first value makes its difference nan, which keeps it
    ordered = np.sort(nonzero)
    distinct = ordered[np.diff(ordered, prepend=np.nan) != 0]
    if distinct.size > DISTINCT_FORMAT_MAX * support.size:
        _format_blocks(out, "\t%.17g\n", probs.size, support, nonzero)
        return
    # keyed on the exact float: values one ulp apart print differently
    texts = ("%.17g\n" * distinct.size % tuple(distinct.tolist())).splitlines()
    _format_blocks(out, "\t%s\n", probs.size, support, np.searchsorted(distinct, nonzero),
                   np.array(texts, dtype=object))


def format_counts(result: SampleResult, out: TextIO) -> None:
    """Write bitstring/count lines (tab separated, sorted by bitstring) to
    `out` for the outcomes drawn at least once."""
    hist = result.histogram
    support = np.flatnonzero(hist)
    _format_blocks(out, "\t%d\n", hist.size, support, hist[support])
