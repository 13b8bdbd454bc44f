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
tensor (axis p is register bit p), so they, the narrowed views below and
every copy the kernel makes keep register order; only the memory
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
  through two temporaries; below BLAS_DENSE_MAX amplitudes per target
  slice of the whole tensor (of the view too, when `run` narrows it), as
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
leaves stretches of a few adjacent amplitudes). A slice of at most TILE
amplitudes that walks in one stride (one axis, or contiguous) is the one
chunk the iterator would hand over as it lies, so it is updated in place
without the iterator: each op runs on the very array the chunk would be,
and so takes the same numpy loop. On a 16-bit state that took 0.4-0.8x the
time of the iterator from 2 to 8192 amplitudes (one BLAS thread, 2-core
Intel Xeon). Other slices keep the iterator. Updated in place, a dense
gate on scattered amplitudes took 1.1-1.8x as long from 8 amplitudes, and
numpy multiplies without SIMD, rounding otherwise, where a product's input
and output ranges interleave, as the swap's product of x1 into x0 does on
slices of stretches of 2 that the iterator would buffer.

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
target, a control or a bit a narrowed view fixes, while the last one is), the
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
tile: one copy and one product. The OpenBLAS of numpy 2.4.6 rounds a
column alike in every product of a multiple of 4 columns, but the last
w mod 4 columns of a w-column product otherwise: a tile's columns round as
in the whole block's product, and tiles of 1 or 2 columns (7 or more
targets) as in any other tile of their width. tests/test_kernels.py pins it.

`run` from a basis state (|0...0> or any state with one nonzero amplitude)
tracks its support: a list of cubes, each fixing some bits at stored
values, outside whose union every amplitude is zero. It starts as the one
cube of the start, which fixes every bit; a cube is a pair of bit masks,
the fixed bits and their values. A pass whose control block meets no cube
is skipped, since every amplitude it would touch is zero. Any other pass
runs on the view narrowed to the bounding cube of the cubes it meets: the
axes that cube fixes, other than the pass's targets and controls, are
sliced to length 1 at their values (no renumbering), and the kernel fixes
the controls. Only amplitudes in that cube with the targets free and the
controls fixed can come out nonzero, so that cube joins the support,
unless one already listed holds it, and the cubes inside it leave. A
diagonal single-target pass turns no zero into a nonzero, so it leaves the
support as it is, its target fixed where it was. The support picks only
whether a pass runs and on which view: the pass takes the kernel it takes
on the whole tensor and updates both target slices of its view, zero or
not. Past SUPPORT_CUBES_MAX cubes the list merges into its bounding cube,
and once a cube covers the whole register the tracking stops. So a search
round, whose oracle X leaves the marked item's cube beside the cube of the
rest, touches a few amplitudes per pass instead of half the register, and
an H layer on bits still at 0 touches one block of the state per gate.
Where the view must leave fixed axes free (below), it frees those of the
trailing memory axes first, so that a small view lies in one stretch of
memory where the layout allows: a round's BOOST at n = 14 walks one
stretch of 4 amplitudes per slice where it walked 4 amplitudes 64 KiB
apart, and a round took 23 us where it took 47.

Opening layer. A search, and every `sim` circuit of the benchmark, opens
with H on qubits that the start holds at 0. From a basis state whose one
nonzero amplitude a is finite, `run` takes the circuit's leading run of
uncontrolled builtin H on distinct bits that the start holds at 0 and
makes no pass for it: one assignment sets the cube those m bits span, with
every other bit at its start value, to a times h rounded once per gate,
componentwise (h = 1/sqrt(2), the real (0, 0) entry of H): m times
v <- complex(v.real * h, v.imag * h). That is what each pass of the layer
computes on its view, the slice update and the matmul alike, since the
products with the zero slice add zeros, up to their sign where the value
is zero. The support then starts as that cube, and the tracking stops when
the layer frees every bit; the pass loop runs the other instructions from
it. The first line that is not such an H ends the layer: an H on a bit the
layer already took or that the start holds at 1, a controlled H, a
DEFGATE, any other gate (an uncontrolled X too, which makes no pass
either). A non-finite a has no layer: the passes' complex products spread
an inf or nan into both parts of an amplitude, which the fill would not.
The memory order still weighs the whole circuit, layer included. Filling
the layer in place of its 14 passes took `run_search` at n = 14 from 1.05
to 0.85 ms (medians of 30 in-process calls, one BLAS thread, 2-core Intel
Xeon).

The result is bit-identical to passes over the whole tensor, apart from
the sign of zero amplitudes outside the view (a whole-tensor Z turns them
into -0.0, which no probability sees) and of zero parts of the amplitudes
the opening layer fills. Two rules hold for every pass: the kernel picks
the dense branch by the size of a target slice of the whole tensor, not of
the view, so narrowing never switches a branch; and a view leaves two axes
of each target slice free, or all it has, so a product keeps a power of
two of at least 4 columns, each rounding as in the whole product (above),
and no chunk is the one amplitude numpy rounds otherwise.

`run` hands the support it ends with to the `StateVector` it returns, in
the values of the view it returns (stored value XOR frame flag), and
`observe` reads only its cubes (below). Reading or assigning the state's
`tensor` or `amps` drops the support, since the caller may then write the
state; `copy()`, `basis_state` and a state a caller builds carry none.

Pauli frame. The pass loop of `run` and `to_matrix` alone keeps the frame,
the mask of flipped register positions; a bit's value is its stored one
XOR its flag. An uncontrolled builtin X toggles its flag and has neither a
pass nor a plan (below); the support holds stored values, so it stays. An
uncontrolled builtin Y = X diag(i, -i) makes the pass of diag(i, -i) on
its target, the two complex products the swap makes, then toggles. Every
other instruction runs on the view of the tensor in which only its flipped
targets and controls are reversed. The kernel indexes a single-target
gate's target and every control away, so no slice it walks has a negative
stride. A gate of two or more targets keeps its reversed targets, but each
tile is copied to the contiguous buffer before the product, so BLAS
multiplies the same logical rows as without a frame. A control compares
its trigger with a cube's stored value XOR the flag. The loop returns the
tensor with its flipped axes reversed, without a copy. The amplitudes are
those of the passes without a frame, bit for bit, up to the sign of zeros.

X pairs. A pass of a builtin X that the frame does not take (a controlled
X) swaps the slices of its control block by copies, which are exact. When
the same instruction object, or an equal builtin X, comes right after it,
the second swap restores every bit, NaNs and signed zeros included, so the
loop makes neither pass, and the support from before the pair still holds;
pairs are taken from the left, and one that closes brings the instructions
around it together. A search's Q^k holds k - 1 such pairs of its oracle, so
its rounds make k + 2 passes where they made 3k. A pair of Z, Y or CZ
multiplies by -1 or +-i, which need not restore the sign of a zero, and a
DEFGATE is not matched against X; those pairs make their passes.

Plans. The pass loop works out what the passes of an instruction need of
it once per distinct instruction object in a call, as a plan kept by the
object's id; the plan holds the object, so the id is not reused while it
lives, and an instruction equal to another but for its matrix gets its
own. A plan holds the index of its target slices (or of its control block)
with each control at its trigger value, and its kernel and 2x2
coefficients from one `tolist()` of the gate: what `apply_to_tensor` works
out when called on its own, and finds when the loop runs. A Y's plan is
that of its diagonal half, kept under both objects' ids. A plan also keeps
the support and frame its last pass started from, with the view and the
support they gave, and the target slices it last cut from that view, so a
pass of the same plan from the same state reuses them. The k rounds of a
search circuit, which come after its opening layer, hold 2 distinct
objects, and from the second round on the state repeats: a round's passes
make only the kernel's ufunc calls. A round at n = 14 took 14-18 us,
against 91-96 us when every pass worked its instruction out afresh (one
BLAS thread, 2-core Intel Xeon). A plan for an object that occurs once
costs what that did. Every plan leaves after its object's last occurrence,
whether that made a pass, was skipped or was taken by the frame, so only
objects yet to come again keep theirs.

Measurement keeps only amplitudes with every hybit in state 0 and
renormalizes over that subspace, and it squares only those. Each hybit
axis is fixed at 0 and the slice is squared (re*re + im*im) straight into
the float output, in register index order, in chunks of at most TILE
amplitudes that numpy's buffered iterator cuts in memory order, whatever
axes the frame left reversed. The visible squares are summed in register
index order, so they and the mass keep their bits whatever the memory
order, and are divided by the mass in place. The mass per hybit pattern,
which feeds only the finite check and the negligible-mass warning, comes
from `core.pattern_masses`: one einsum pass in memory order, each
amplitude's real and imaginary parts read together as float64 pairs, with
no temporary of the state's size. Every state is read as a list of
disjoint cubes: the support it carries, split into disjoint cubes, or the
one cube (0, 0) of the whole register when it carries none or its support
splits into more than OBSERVE_CUBES_MAX. Each cube that fixes no hybit at
1 is squared, its hybits at 0, into its block of a zeroed output, whose
entries outside the cubes are +0.0, as the squares of the zeros there are,
so the probabilities and the mass keep their bits whatever the cubes. The
pattern of every hybit at 0 takes the visible mass, and each cube that
fixes a hybit at 1 or leaves one free adds its other patterns' masses.
After a search of n = 16 that reads a block of 2^16 amplitudes and a cube
of 4, where the whole register squares 2^17 and sums 2^18. The
distribution is then checked in two sweeps, its sum and its minimum. So
`observe` holds the state, the visible probabilities and a chunk. `sample`
takes the distribution, not the state, so `lqc sample` frees the state
before it draws. The outcome distribution is an array over qubit indices,
whose order is sorted-bitstring order; bitstrings are built only for
output. Sampling draws by inverse CDF over that array, so the draws equal
those of an inverse CDF over the sorted list of outcomes. A state whose
total squared magnitude is not finite (its amplitudes overflowed) is
refused with GuardError.

`format_distribution` and `format_counts` write the text forms to a stream
one block of at most FORMAT_BLOCK lines at a time, so the whole text is
never held. A `%.17g` costs about 1 us, and after an H layer the 2^n
probabilities often take only about a hundred distinct values. So each
distinct value (keyed on its exact float, never on rounded text) is
formatted once, into a line of fixed width: room for the bitstring digits,
a tab, the text padded with spaces (which neither `%.17g` nor `%d` prints)
and a newline. One sort of the values gives the distinct ones and a binary
search into them each line's code, the values and codes `np.unique` would
give, without the second sort of `np.unique(..., return_inverse=True)` or
its import of `numpy.ma`. Each block is then a byte table built by numpy:
one `take` of the lines by their codes, then the digits from a table of
the 8 ASCII digits of each byte value. When every value is distinct there
is nothing to look up, and when more distinct values than FORMAT_BLOCK
would make a table larger than a block: then a block's lines are formatted
in order instead. One `bytes.replace` squeezes the padding out of a block
before it is decoded and written.
"""

from __future__ import annotations

import itertools
import math
import threading
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .core import (
    EPS_PROB_SUM,
    NEGLIGIBLE_MASS_RATIO,
    THREE_DIGIT_EXPONENT_BELOW,
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

# output lines per block that format_distribution and format_counts build
# and write at once: the block bounds the buffers and the text held at once
FORMAT_BLOCK = 1 << 14
# _DIGITS[b] is the 8 ASCII digits of the byte value b as one uint64, so one
# take gives a line's bitstring digits 8 at a time
_DIGITS = np.frombuffer("".join(format(b, "08b") for b in range(256)).encode("ascii"),
                        dtype=np.uint64)
# the longest `%.17g` text of a positive double below 1e100, as
# 2.2250738585072014e-308; one that long has a 3-digit exponent
G17_WIDTH = 23
# Below this many amplitudes per target slice of the whole tensor, a dense
# gate is one BLAS matmul, gate @ (2, k), on a contiguous copy of the two
# slices made by one `np.array((x0, x1))` call, as multi-target gates are. At that size it
# costs about what the slice update costs, and it rounds more tightly:
# with the slice update, the metric residual of `to_matrix` on synthesized
# circuits, which `lqc verify` compares with EPS_ISO, is about 1.3x larger
# and flips some results near EPS_ISO. Above this size the chunked slice
# update is 2-5x faster than copying the pair. The branch follows the whole
# slice even when `run` narrows the view, and a view keeps at least 4
# columns, so a narrowed matmul rounds each column as the whole one does.
BLAS_DENSE_MAX = 1 << 13
# Amplitudes per target slice in one chunk of the slice update: the buffer
# size of the iterator. A dense chunk holds x0 and x1 buffers and two
# temporaries, 4 x 128 KiB, well inside L2. On a 20-bit state, 2^15 measured
# slower on every target bit (spills from L2) and 2^12 slower on dense
# passes (more calls per pass).
TILE = 1 << 13
# `run` tracks at most this many cubes of its support, and merges them into
# their bounding cube past it: every pass scans the list, and a search round
# needs 2
SUPPORT_CUBES_MAX = 8
# `observe` reads a support split into at most this many disjoint cubes, one
# pass over each; a support that splits into more is read as the one cube
# of the whole register
OBSERVE_CUBES_MAX = 32
# the diagonal half of Y = X diag(i, -i), which the Pauli frame applies as a
# pass before it toggles the bit's flag
Y_PHASES = np.diag([1j, -1j])
Y_PHASES.setflags(write=False)
# the index of an axis a pass keeps whole, of one it reverses, and the two
# pinned slices that fix an axis of a narrowed view at 0 or 1 as a length-1
# axis; shared by every pass
_ALL = slice(None)
_REVERSED = slice(None, None, -1)
_PINNED = (slice(0, 1), slice(1, 2))


class ZeroObservableMassError(LqcError):
    """The state has no amplitude left on the observable subspace."""


class NegligibleMassWarning(UserWarning):
    pass


class _Running(threading.local):
    """The plans of the `apply_all` call running in this thread, by the id of
    their instruction; none outside a call."""

    plans: dict[int, _Plan] = {}


_running = _Running()


def apply_to_tensor(layout: RegisterLayout, tensor: np.ndarray, instr: Instruction) -> None:
    """Apply one instruction in place to a state tensor of shape [2]*num_bits
    (optionally with trailing batch axes), or to a view of one with some
    axes sliced to length 1. Each control fixes its axis at its trigger
    value, so only the control block where every control holds its value is
    touched. One target updates its two slices in place, with length-1 axes
    squeezed out; the dense update picks its branch by the amplitudes of a
    target slice of the whole tensor, worked out from the layout, the
    control count and the batch axes, so a view takes the branch the whole
    tensor would. More targets move to the front for a matmul in tiles of
    columns. A batch axis wider than a tile must be a power of two long, as
    `to_matrix`'s 2^n columns are, so that tiles cut it evenly. Inside
    `apply_all` the instruction's plan is looked up, not worked out again,
    and a view the pass's plan saw last gives the same target slices."""
    # the running call's plans hold their instructions, so an id found there
    # is this instruction's
    plan = _running.plans.get(id(instr)) or _Plan(instr)
    if plan.kernel is None:
        _multiply_tiles(plan.gate, np.moveaxis(tensor[plan.block], plan.moved, plan.front),
                        len(plan.front))
        return
    slices = plan.slices
    if slices is None or slices[0] is not tensor:
        slices = plan.slices = (tensor, tensor[plan.at0].squeeze(), tensor[plan.at1].squeeze())
    _, x0, x1 = slices
    blas = False
    if plan.kernel[0] is _mix:
        # the amplitudes of a target slice of the whole tensor, batch included
        nbits = layout.num_bits
        whole = math.prod(tensor.shape[nbits:]) << nbits - 1 - len(instr.controls)
        blas = whole < BLAS_DENSE_MAX
    _apply_pair(x0, x1, plan.gate, blas, plan.kernel)


class _Plan:
    """What the passes of one instruction object need of it, worked out once
    per `apply_all` call (or per pass, for an `apply_to_tensor` called on its
    own): the indices of its target slices or of its control block, and its
    kernel from one `tolist()` of the gate. It also keeps the last view
    `apply_all` worked out for it and the last target slices
    `apply_to_tensor` cut from a view. It holds the instruction, so the id
    it is kept under is not reused while it lives."""

    __slots__ = ("instr", "gate", "kernel", "diagonal", "at0", "at1", "block", "moved", "front",
                 "memo", "slices")

    def __init__(self, instr: Instruction) -> None:
        self.instr = instr
        # (support, frame, view, support after) of the last pass in
        # `apply_all`, and (view, x0, x1) of the last in `apply_to_tensor`
        self.memo = self.slices = None
        targets, controls = instr.targets, instr.controls
        # an index over the axes up to the instruction's last bit, with each
        # control at its trigger value; a trailing Ellipsis takes the rest
        index = [_ALL] * (max(targets + controls) + 1)
        for c, v in zip(controls, instr.ctrl_state):
            index[c] = v
        self.gate = gate = instr.gate_matrix()
        if len(targets) == 1:
            self.kernel = _pair_kernel(gate)
            # a diagonal pass turns no zero amplitude into a nonzero
            self.diagonal = self.kernel[0] is None
            (t,) = targets
            index[t] = 0
            self.at0 = (*index, ...)
            index[t] = 1
            self.at1 = (*index, ...)
        else:
            self.kernel, self.diagonal = None, False
            self.block = (*index, ...)
            # the targets' axes in the control block, which has no control axes
            self.moved = [t - sum(c < t for c in controls) for t in targets]
            self.front = range(len(targets))


def _pair_kernel(gate: np.ndarray) -> tuple:
    """(update, coefficients, temporaries) of the slice update of a 2x2 gate
    [[a, b], [c, d]], read from one `tolist()`: no update for a diagonal gate,
    which scales each slice in one op; `_swap` for an anti-diagonal one;
    `_mix` for a dense one."""
    (a, b), (c, d) = gate.tolist()
    if b == 0 and c == 0:
        return None, (a, d), 0
    if a == 0 and d == 0:
        return _swap, (b, c), 1
    return _mix, (a, b, c, d), 2


def _multiply_tiles(gate: np.ndarray, moved: np.ndarray, k: int) -> None:
    """moved <- gate @ moved over its first k axes, a tile of at most
    `width` columns at a time, so a tile's product makes at most 4 * TILE
    multiply-adds, as a two-target tile of TILE amplitudes does. The other
    axes are taken in memory order, and the leading ones are fixed until the
    trailing ones hold at most `width` columns; if only the last axis is
    left and it holds more (the batch axis of `to_matrix`), it is cut into
    slices of `width`, which divides it. Each tile, reversed axes and all,
    is copied to a contiguous buffer, multiplied into a second one and
    written back. A block of at most
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
            buf.reshape(tile.shape)[...] = tile
            np.matmul(gate, buf, out=prod)
            tile[...] = prod.reshape(tile.shape)


def _apply_pair(x0: np.ndarray, x1: np.ndarray, gate: np.ndarray, blas: bool,
                kernel: tuple) -> None:
    """x0, x1 <- a x0 + b x1, c x0 + d x1 in place, for the target slices
    t=0 / t=1 of a 2x2 gate [[a, b], [c, d]]; a dense gate takes the matmul
    when `blas` is set. Factors of exactly 1 are skipped: X only swaps the
    slices, and SZ scales only x1. `kernel` is `_pair_kernel(gate)`. The
    update reads both slices whatever the support holds, so a slice that is
    all zero is multiplied like any other."""
    update, coeffs, ntemps = kernel
    if update is None:
        # one op per slice, each already a single pass over that slice
        a, d = coeffs
        x0, x1, order = _loop_order(x0, x1)
        if a != 1:
            np.multiply(x0, a, out=x0, order=order)
        if d != 1:
            np.multiply(x1, d, out=x1, order=order)
    elif update is _mix and blas:
        pair = gate @ np.array((x0, x1)).reshape(2, -1)
        x0[...] = pair[0].reshape(x0.shape)
        x1[...] = pair[1].reshape(x1.shape)
    else:
        _tiled(update, coeffs, x0, x1, ntemps)


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
    amplitudes of each slice, with `ntemps` scratch arrays of the chunk's
    size. A slice of at most TILE amplitudes that walks in one stride (one
    axis, or contiguous) is the one chunk numpy's iterator would hand over
    as it lies: it is updated in place without the iterator, with
    temporaries of its shape. Any other slice goes through `_chunked`."""
    if x0.size <= TILE and (x0.ndim <= 1 or x0.flags.forc):
        update(*coeffs, x0, x1, *[np.empty_like(x0) for _ in range(ntemps)])
    else:
        _chunked(update, coeffs, x0, x1, ntemps)


def _chunked(update, coeffs, x0: np.ndarray, x1: np.ndarray, ntemps: int) -> None:
    """`_tiled` over the chunks that numpy's buffered iterator cuts from each
    slice. A chunk is a piece of the slice itself or a contiguous buffer that
    the iterator fills from the slice and writes back."""
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
    nonzero amplitude) whose amplitude is finite, the circuit's opening H
    layer, its leading uncontrolled builtin H on distinct bits that the
    start holds at 0, is one assignment to the cube those bits span and
    makes no pass (the module docstring's "Opening layer"). From a basis
    state the run then tracks the support of the module docstring, the
    cubes outside which every amplitude is zero, starting from that cube;
    from any other state it tracks none. A pass whose control block meets
    no cube is skipped; any other runs on the view of the tensor narrowed
    to the bounding cube of the cubes it meets, keeping the circuit's bit
    positions, and every amplitude outside the view is zero and stays zero.
    By the rules of the module docstring, the result is bit-identical to
    applying every instruction to the whole tensor, except that a zero
    amplitude that a pass leaves alone keeps +0.0 where a whole-tensor pass
    may leave -0.0. The state returned carries the support the run ended
    with, which `observe` reads until the state's `tensor` or `amps` is
    read or assigned.

    Uncontrolled X and Y go to the Pauli frame of the module docstring, so
    the returned `tensor` may have reversed axes, those of the bits left
    flipped; it is still the state in register order, read through a view."""
    layout = circuit.layout
    instructions = circuit.instructions
    order = _memory_order(layout, instructions)
    tensor = np.zeros((2,) * layout.num_bits, dtype=np.complex128).transpose(np.argsort(order))
    if initial is None:
        start = [0] * layout.num_bits
        tensor[tuple(start)] = 1.0
    else:
        if initial.layout != layout:
            raise LqcError("initial state layout does not match circuit layout")
        amps, _ = initial.read()
        tensor[...] = amps
        start = _basis_bits(amps)
    support = None
    if start is not None:
        layer, support = _fill_opening_layer(tensor, instructions, start)
        instructions = instructions[layer:]
    state, support = apply_all(layout, tensor, instructions, support)
    return StateVector(layout, state, support=support)


def _fill_opening_layer(tensor: np.ndarray, instructions,
                        start: list[int]) -> tuple[int, list[tuple[int, int]] | None]:
    """Apply the opening H layer of the module docstring to `tensor`, which
    holds the basis state `start`, as one assignment: the layer is the
    leading run of uncontrolled builtin H on distinct bits that `start`
    holds at 0. Returns the layer's length and the support after it, the
    cube of its targets free and every other bit at its start value; None
    once the layer frees every bit. A start amplitude that is not finite
    has no layer: the passes' complex products spread its inf or nan into
    both parts of every amplitude, where the fill would keep them apart."""
    a = complex(tensor[tuple(start)])
    free = layer = 0
    for instr in instructions if np.isfinite(a) else ():
        if instr.gate != "H" or instr.matrix is not None or instr.controls:
            break
        (t,) = instr.targets
        if free >> t & 1 or start[t]:
            break
        free |= 1 << t
        layer += 1
    if layer:
        h = instructions[0].gate_matrix()[0, 0].real
        for _ in range(layer):
            a = complex(a.real * h, a.imag * h)
        tensor[tuple(_ALL if free >> p & 1 else v for p, v in enumerate(start))] = a
    fixed = (1 << len(start)) - 1 & ~free
    if layer and not fixed:
        return layer, None
    return layer, [(fixed, sum(v << p for p, v in enumerate(start)))]


def _memory_order(layout: RegisterLayout, instructions) -> list[int]:
    """Register positions in the memory order of `run`'s tensor, leading
    axis first. Each instruction adds 2^-(its control count) to the weight
    of each of its targets and controls, the share of the state its pass
    touches; bits go by descending weight, ties by position. The weights
    are counted in units of 2^-num_bits, exactly, once per distinct
    instruction object times its count."""
    nbits = layout.num_bits
    counts = Counter(map(id, instructions))
    weight = [0] * nbits
    for instr in dict(zip(map(id, instructions), instructions)).values():
        share = counts[id(instr)] << nbits - len(instr.controls)
        for p in (*instr.targets, *instr.controls):
            weight[p] += share
    return sorted(range(nbits), key=lambda p: -weight[p])


def _basis_bits(tensor: np.ndarray) -> list[int] | None:
    """The bits of the one nonzero amplitude of a basis state, else None."""
    if np.count_nonzero(tensor) != 1:
        return None
    return np.argwhere(tensor)[0].tolist()


def apply_all(layout: RegisterLayout, tensor: np.ndarray, instructions,
              support: list[tuple[int, int]] | None = None,
              ) -> tuple[np.ndarray, list[tuple[int, int]] | None]:
    """apply_to_tensor for each instruction: the one loop of `run` and
    `circuit.to_matrix`. Given the `support` of the tensor before the first
    one (cubes in register values, as in the module docstring), the loop
    tracks it and skips each pass or narrows its view, as `run` describes;
    with none, every pass covers the whole tensor. The loop
    keeps uncontrolled X and Y in the Pauli frame of the module docstring,
    skips the X pairs it describes, and returns the state and its support:
    the tensor with the axes of the bits left flipped reversed, a view, and
    the cubes in that view's values (None when none is tracked). Overflow is
    left to `observe` and `isometry_residual` to report.

    Each distinct instruction object but an uncontrolled X gets one plan
    (`_Plan`) per call, kept by its id, where `apply_to_tensor` finds it,
    until the object's last occurrence; those are found first, so
    `instructions` is a sequence. A pass from the support and frame its
    plan's last pass started from reuses that pass's view and support, and a
    pass with no support to track and no flipped bit gets the tensor
    itself."""
    nbits = layout.num_bits
    instructions = _without_x_pairs(instructions)
    # the Pauli frame: the mask of the flipped bits
    flipped = 0
    trailing = [1 << p for p in sorted(range(nbits), key=lambda p: abs(tensor.strides[p]))]
    # the last occurrence of each instruction object, after which its plan
    # leaves, pass or none, so plans and the views they keep add up for
    # repeated objects only
    last = {id(instr): i for i, instr in enumerate(instructions)}
    outer = _running.plans
    _running.plans = plans = {}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for i, instr in enumerate(instructions):
                # an uncontrolled builtin X toggles its bit's flag and has no
                # plan; a Y toggles it after the pass of its diagonal half
                toggle = 0
                if not instr.controls and instr.matrix is None and instr.gate in ("X", "Y"):
                    toggle = 1 << instr.targets[0]
                    if instr.gate == "X":
                        flipped ^= toggle
                        continue
                key = id(instr)
                plan = plans.get(key)
                if plan is None:
                    # a Y's plan is its diagonal half's, kept under both ids for
                    # `apply_to_tensor`; type(instr) is Instruction, which circuit imports
                    made = type(instr)("Y", instr.targets, matrix=Y_PHASES) if toggle else instr
                    plan = plans[key] = plans[id(made)] = _Plan(made)
                if support is None and not flipped:
                    view = tensor
                else:
                    # a pass of the same plan from the same support and frame
                    # gets the same view, and leaves the same support
                    memo = plan.memo
                    if memo is None or memo[0] is not support or memo[1] != flipped:
                        memo = plan.memo = (support, flipped,
                                            *_pass_view(tensor, plan, support, flipped, trailing))
                    view, support = memo[2:]
                if view is not None:
                    apply_to_tensor(layout, view, plan.instr)
                if last[key] == i:
                    del plans[key]
                    plans.pop(id(plan.instr), None)
                flipped ^= toggle
    finally:
        _running.plans = outer
    if support is not None:
        support = [(m, v ^ flipped & m) for m, v in support]
    return tensor[tuple(_reversing(tensor.ndim, flipped))], support


def _without_x_pairs(instructions) -> list:
    """The instructions less the X pairs of the module docstring: an X the
    Pauli frame does not take (a controlled builtin X) and, right after it
    once earlier pairs are gone, the same object or an equal builtin X."""
    kept: list = []
    for instr in instructions:
        last = kept[-1] if kept else None
        if (last is not None and last.controls and last.gate == "X" and last.matrix is None
                and (instr is last or instr.matrix is None and instr == last)):
            kept.pop()
        else:
            kept.append(instr)
    return kept


def _pass_view(tensor: np.ndarray, plan: _Plan, support: list[tuple[int, int]] | None,
               flipped: int, trailing: list[int]) -> tuple:
    """(view, support): the view of `tensor` a pass of `plan` runs on, in
    the frame `flipped`, or None when its control block meets no cube of
    `support`; and the support after the pass. The support picks only the
    view: the kernel the pass takes on it is the one it takes on the whole
    tensor. `trailing` holds a mask per register bit, by ascending stride."""
    instr = plan.instr
    tmask = cmask = cvals = 0
    for t in instr.targets:
        tmask |= 1 << t
    for c, v in zip(instr.controls, instr.ctrl_state):
        cmask |= 1 << c
        # a bit's logical value is its stored one XOR its flag
        cvals |= (v ^ (flipped >> c & 1)) << c
    idx = None
    if flipped & (tmask | cmask):
        idx = _reversing(tensor.ndim, flipped & (tmask | cmask))
    if support is not None:
        met = [(m, v) for m, v in support if not (v ^ cvals) & m & cmask]
        if not met:
            return None, support
        fixed, vals = _bounding(met)
        fixed &= ~tmask
        idx = _narrow(idx, tensor.ndim, fixed & ~cmask, vals,
                      len(trailing) - len(instr.targets) - len(instr.controls), trailing)
        if not plan.diagonal:
            support = _joined(support, fixed | cmask, vals & fixed | cvals)
    return (tensor if idx is None else tensor[tuple(idx)]), support


def _bounding(cubes: list[tuple[int, int]]) -> tuple[int, int]:
    """The smallest cube holding `cubes`: it fixes the bits that every one
    of them fixes at the same value."""
    mask, vals = cubes[0]
    for m, v in cubes[1:]:
        mask &= m & ~(v ^ vals)
    return mask, vals & mask


def _narrow(idx: list | None, ndim: int, fix: int, vals: int, axes: int,
            trailing: list[int]) -> list | None:
    """`idx` (None: an index that keeps all `ndim` axes) with the axes of
    the bits in `fix` sliced to length 1 at their values in `vals`. Bits are
    freed, those of the trailing memory axes first (`trailing` lists one mask
    per bit, by ascending stride), until two of the `axes` axes a target
    slice spans are free, or all, so that each slice keeps 4 amplitudes or
    more, as close together as the layout lets them lie. The slices are the
    two shared pinned ones."""
    extra = fix.bit_count() - max(axes - 2, 0)
    for bit in trailing:
        if extra <= 0:
            break
        if fix & bit:
            fix ^= bit
            extra -= 1
    if fix and idx is None:
        idx = [_ALL] * ndim
    while fix:
        low = fix & -fix
        fix ^= low
        p = low.bit_length() - 1
        idx[p] = _PINNED[vals >> p & 1]
    return idx


def _joined(support: list[tuple[int, int]], mask: int, vals: int) -> list[tuple[int, int]] | None:
    """The support once the cube (mask, vals) joins it: the cubes inside it
    leave, and past SUPPORT_CUBES_MAX the list merges into its bounding
    cube. None, which tracks nothing, once a cube covers the register."""
    if not mask:
        return None
    if any(m & mask == m and vals & m == v for m, v in support):
        return support
    support = [(m, v) for m, v in support if not (m & mask == mask and v & mask == vals)]
    support.append((mask, vals))
    if len(support) > SUPPORT_CUBES_MAX:
        mask, vals = _bounding(support)
        return [(mask, vals)] if mask else None
    return support


def _reversing(ndim: int, mask: int) -> list:
    """An index over `ndim` axes that reverses the axes of the bits in
    `mask` and keeps the rest."""
    idx: list = [_ALL] * ndim
    while mask:
        low = mask & -mask
        mask ^= low
        idx[low.bit_length() - 1] = _REVERSED
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


def _formatted(line: str, values: np.ndarray) -> np.ndarray:
    """`line % value` for each value, as the rows of a byte table; `line`
    pads every text to one width."""
    text = line * values.size % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(values.size, -1)


def _write_lines(out: TextIO, size: int, support: np.ndarray, values: np.ndarray,
                 spec: str, width: int) -> None:
    """Write `bitstring + "\t" + ("%" + spec) % value + "\n"` to `out` for each
    index in `support` (ascending) into an array of `size` = 2^nq outcomes,
    where value is the index's entry of `values` and no text is longer than
    `width`. Each distinct value is formatted once, into a line of fixed
    width: room for the digits, then its text padded with spaces. Each block
    of lines is a byte table of such lines, given their digits, squeezed by
    one `bytes.replace` and written as soon as it is made."""
    if not support.size:
        return
    nq = size.bit_length() - 1
    # an index's bitstring is the last nq of the 8 digits of each of its low
    # ceil(nq / 8) bytes, most significant byte first
    nbytes = -(-nq // 8)
    # the zeros hold the place of the digits
    line = "0" * nq + f"\t%-{width}{spec}\n"
    ordered = np.sort(values)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    # with every value distinct there is nothing to look up, and with more
    # distinct values than a block holds the table would outgrow the blocks:
    # either way each block formats its lines in order
    table = None
    if distinct.size < values.size and distinct.size <= FORMAT_BLOCK:
        # keyed on the exact value: floats one ulp apart print differently
        table = _formatted(line, distinct)
        # the padding columns that no text reaches go
        width = int((table[:, nq + 1:-1] != ord(" ")).sum(axis=1).max())
        table = np.delete(table, np.s_[nq + 1 + width:-1], axis=1)
    rows = np.empty((min(FORMAT_BLOCK, support.size), nq + width + 2), dtype=np.uint8)
    digits = np.empty((rows.shape[0], nbytes), dtype=np.uint64)
    for start in range(0, support.size, FORMAT_BLOCK):
        block = support[start:start + FORMAT_BLOCK]
        n = block.size
        if table is None:
            rows[:n] = _formatted(line, values[start:start + n])
        else:
            # every value is in `distinct`, so no code is out of range; "clip"
            # skips the bounds check and the buffered copy of "raise"
            codes = np.searchsorted(distinct, values[start:start + n])
            table.take(codes, axis=0, out=rows[:n], mode="clip")
        for i in range(nbytes):
            digits[:n, i] = _DIGITS.take((block >> 8 * (nbytes - 1 - i)) & 0xFF)
        rows[:n, :nq] = digits[:n].view(np.uint8)[:, 8 * nbytes - nq:]
        out.write(rows[:n].tobytes().replace(b" ", b"").decode("ascii"))


@dataclass
class OutcomeDistribution:
    """Hyper-postselected outcome probabilities: probs[j] is the probability
    of the qubit bitstring of index j (qubits in layout order, first qubit
    most significant). All zero when nothing is observable."""

    probs: np.ndarray
    observable_mass: float

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        size = self.probs.size
        if self.probs.ndim != 1 or not size or size & (size - 1):
            raise LqcError("probabilities must be a vector over 2^n qubit indices")
        # two sweeps, the sum and the minimum: a finite sum has only finite
        # entries, so only a sum that is not (a non-finite entry, or finite
        # ones that overflow) needs the elementwise check
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(self.probs.sum())
        if not math.isfinite(total) and not np.isfinite(self.probs).all():
            raise LqcError("probabilities must be finite")
        # -0.0 is not below 0, so it passes
        if self.probs.min() < 0:
            raise LqcError("probabilities must be nonnegative")
        # with no negative entry, a zero sum means every entry is zero
        if total != 0.0 and abs(total - 1.0) > EPS_PROB_SUM:
            raise LqcError(f"probabilities sum to {total}, not 1")

    @property
    def probabilities(self) -> dict[str, float]:
        """The nonzero probabilities keyed by qubit bitstring, built on demand."""
        return dict(_nonzero_items(self.probs))


def observe(state: StateVector) -> OutcomeDistribution:
    """Probability of each qubit bitstring conditioned on every hybit being
    observed in state 0. A state with zero observable mass yields an all-zero
    distribution rather than an error; a state whose squared magnitude is not
    finite raises GuardError.

    Every state is read as a list of disjoint cubes: those of the support
    it carries (the one `run` tracked, until the state is written), or the
    one cube of the whole register when it carries none or its support
    splits into more than OBSERVE_CUBES_MAX. The probabilities and the mass
    are the squares of the hybit-0 slice in register index order and their
    sum, bit for bit whatever the cubes; the mass per hybit pattern, which
    feeds only the finite check and the negligible-mass warning, sums the
    same squares in another order."""
    layout = state.layout
    hybits = layout.positions(BitKind.HYBIT)
    tensor, support = state.read()
    cubes = None if support is None else _disjoint(support)
    visible, per_pattern = _square_cubes(layout, tensor, cubes or [(0, 0)])
    visible = visible.reshape(-1)
    mass = float(visible.sum())
    # the visible squares are the mass of the pattern of every hybit at 0
    per_pattern[0] += mass
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


def _disjoint(cubes: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
    """Disjoint cubes whose union is that of `cubes`: each cube less those
    before it, cut along the bits they fix and it leaves free; None past
    OBSERVE_CUBES_MAX of them."""
    pieces: list[tuple[int, int]] = []
    for i, cube in enumerate(cubes):
        rest = [cube]
        for m, v in cubes[:i]:
            cut = []
            for pm, pv in rest:
                if (pv ^ v) & pm & m:
                    cut.append((pm, pv))
                    continue
                # each bit (m, v) fixes and the piece leaves free cuts off
                # the part at the other value; what is left lies in (m, v)
                free = m & ~pm
                while free:
                    low = free & -free
                    free ^= low
                    cut.append((pm | low, pv | low & ~v))
                    pm, pv = pm | low, pv | low & v
            rest = cut
        pieces += rest
        if len(pieces) > OBSERVE_CUBES_MAX:
            return None
    return pieces


def _square_cubes(layout: RegisterLayout, tensor: np.ndarray,
                  cubes: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The visible squares of `observe`, and the mass per hybit pattern of
    the squares that are not visible, read from the disjoint `cubes` outside
    which every amplitude of `tensor` is zero; the cube (0, 0), which fixes
    no bit, is the whole register. Each cube that fixes no hybit
    at 1 is squared, its hybits at 0, into its block of a zeroed output; the
    `pattern_masses` of each cube that fixes a hybit at 1 or leaves one free
    are added to the patterns it fixes, less its visible squares."""
    hybits = layout.positions(BitKind.HYBIT)
    qubits = layout.positions(BitKind.QUBIT)
    visible = np.zeros((2,) * len(qubits))
    masses = np.zeros((2,) * len(hybits))
    for mask, vals in cubes:
        idx = [vals >> p & 1 if mask >> p & 1 else _ALL for p in range(layout.num_bits)]
        at = tuple(idx[p] for p in hybits)
        seen = 1 not in at
        if _ALL in at or not seen:
            free = RegisterLayout(tuple(k for k, i in zip(layout.kinds, idx) if i is _ALL))
            part = pattern_masses(StateVector(free, tensor[(*idx, ...)]))
            part = part.reshape((2,) * free.num_hybits)
            if seen:
                part[(0,) * free.num_hybits] = 0.0
            masses[at] += part
        if seen:
            for p in hybits:
                idx[p] = 0
            _square(tensor[(*idx, ...)], visible[(*(idx[p] for p in qubits), ...)])
    return visible, masses.reshape(-1)


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
    sorted by bitstring) for the outcomes of nonzero probability. Each
    distinct probability goes through `%.17g` once."""
    out.write(f"# observable_mass = {dist.observable_mass:.17g}\n")
    probs = dist.probs
    support = np.flatnonzero(probs)
    nonzero = probs[support]
    # one column less to squeeze when no exponent has 3 digits
    width = G17_WIDTH if nonzero.min(initial=1.0) < THREE_DIGIT_EXPONENT_BELOW else G17_WIDTH - 1
    _write_lines(out, probs.size, support, nonzero, ".17g", width)


def format_counts(result: SampleResult, out: TextIO) -> None:
    """Write bitstring/count lines (tab separated, sorted by bitstring) to
    `out` for the outcomes drawn at least once."""
    hist = result.histogram
    support = np.flatnonzero(hist)
    _write_lines(out, hist.size, support, hist[support], "d", len(str(hist.max())))
