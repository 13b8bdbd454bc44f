"""State-vector simulation with hyper-postselected measurement.

Gates act on axis views of the state tensor, so one instruction costs
O(2^N * 2^arity) and the register matrix is never built. Each control fixes
its axis at its trigger value (1, or 0 for a "!" control), so a pass
touches only its control block. This docstring states the rules the tests
pin; README's "Numerical conventions" gives the design, and its table
"Simulator mechanisms and their measured figures" what each mechanism
measured.

Identity. `run` returns, bit for bit, the amplitudes of every instruction
applied to the whole tensor in register order, but for the sign of zeros:
a zero outside a pass's view keeps +0.0 where a whole-tensor Z leaves -0.0,
and a zero part of an amplitude the opening fill sets may differ in sign.

Memory order. `run` puts the most worked bits on the leading memory axes
and every pass sees the register-order view of that memory, so bit
positions, views and the kernel's copies are those of a C-ordered state.

Kernels. A single-target gate [[a, b], [c, d]] updates the target slices x0
and x1 of its control block in place, by its entries: diagonal, a scaling
per slice that skips a factor of exactly 1; anti-diagonal, a swap; dense,
x0, x1 <- a x0 + b x1, c x0 + d x1, or one matmul on a contiguous (2, k)
copy of the slices when a target slice of the whole tensor has fewer than
BLAS_DENSE_MAX amplitudes. The swap and the dense update run over chunks of
at most TILE amplitudes per slice, cut by numpy's buffered iterator, or as
the slice lies when it is the one chunk the iterator would hand over. Each
chunk takes the ops and factors of the whole slice, so the result is that
of the update without chunks: at a power-of-two TILE no chunk is the one
amplitude whose in-place product numpy rounds otherwise.

Tiles. A gate of two or more targets multiplies its control block one tile
of columns at a time, each copied to a contiguous buffer and back, with as
many columns as keep a product at 4 * TILE multiply-adds. Column rule: the
OpenBLAS of numpy 2.4.6 rounds a column alike in every product of a
multiple of 4 columns, and the last w mod 4 columns of a w-column product
otherwise; so a tile's columns round as in the whole block's product, and
tiles of 1 or 2 columns (7 or more targets) as any tile of their width.

Support. From a basis state `run` tracks cubes, each a pair of bit masks
(the fixed bits, their stored values), outside whose union every amplitude
is zero. A pass whose control block meets no cube is skipped; any other
runs on the view narrowed to the bounding cube of the cubes it meets, fixed
axes sliced to length 1, and that cube, targets free and controls fixed,
joins the support while the cubes inside it leave. A diagonal single-target
pass leaves the support as it is. Past SUPPORT_CUBES_MAX cubes the list
merges into its bounding cube; once a cube covers the register, tracking
stops. The support picks only whether a pass runs and on which view, never
its kernel: the dense branch follows the target slice of the whole tensor,
and a view leaves two axes of each target slice free, or all it has,
freeing trailing memory axes first, so every product keeps a power of two
of at least 4 columns and no chunk is one amplitude.

Opening fill. From a basis state whose amplitude a is finite, the leading
run of uncontrolled builtin H on distinct bits the start holds at 0 makes
no pass: one assignment sets the cube they span to a times h once per gate,
componentwise (h = 1/sqrt(2), H's real (0, 0) entry), as each pass would.

Pauli frame. The pass loop keeps the mask of flipped bits, each bit's value
its stored one XOR its flag. An uncontrolled builtin X toggles its flag,
with no pass and no plan; an uncontrolled Y makes the pass of diag(i, -i),
then toggles. Any other pass runs on the view with its flipped targets and
controls reversed; single targets and controls are indexed away and tiles
copied before their product, so BLAS multiplies the rows it would without
a frame. The loop returns the tensor with the flipped axes reversed.

X pairs. A controlled builtin X followed by the same object or an equal
builtin X makes neither pass: swaps are exact copies, so the second
restores every bit, NaNs and signed zeros included. Pairs are taken from
the left; pairs of Z, Y, CZ or DEFGATEs make their passes.

Plans. The loop works out an instruction object's plan (slice indices,
kernel, 2x2 coefficients) once per call, keeps it by the object's id and
drops it after the object's last occurrence, pass or none; the plan holds
the object, so its id is not reused meanwhile. A plan keeps its last view
with the support and frame that gave it, and the slices cut from it.

Measurement squares the amplitudes with every hybit at 0 in register index
order, in chunks of at most TILE, and divides by their sum. A state is read
as disjoint cubes, its support split, or the whole register when it has
none or past OBSERVE_CUBES_MAX; the probabilities and the mass keep their
bits whatever the cubes.
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

# output lines per block that the text writers build and write at once
FORMAT_BLOCK = 1 << 14
# _DIGITS[b] is the 8 ASCII digits of the byte value b as one uint64
_DIGITS = np.frombuffer("".join(format(b, "08b") for b in range(256)).encode("ascii"),
                        dtype=np.uint64)
# the longest `%.17g` text of a positive double below 1e100, as
# 2.2250738585072014e-308; one that long has a 3-digit exponent
G17_WIDTH = 23
# below this many amplitudes per target slice of the whole tensor a dense
# gate is one matmul on a copy of its slices: that rounds more tightly, which
# keeps `to_matrix` residuals near EPS_ISO, and above it the update is faster
BLAS_DENSE_MAX = 1 << 13
# amplitudes per target slice in one chunk of the slice update: a dense
# chunk's four arrays stay inside L2, and a smaller tile makes more calls
TILE = 1 << 13
# the most cubes of its support `run` tracks before it merges them into their
# bounding cube: every pass scans the list, and a search round needs 2
SUPPORT_CUBES_MAX = 8
# the most disjoint cubes `observe` reads a support as, one pass each; past
# it, it reads the whole register
OBSERVE_CUBES_MAX = 32
# the diagonal half of Y = X diag(i, -i), the pass the Pauli frame makes
Y_PHASES = np.diag([1j, -1j])
Y_PHASES.setflags(write=False)
# the index of an axis a pass keeps whole, of one it reverses, and the
# length-1 slices that pin an axis of a narrowed view at 0 or 1
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
    """Apply one instruction in place, by the module's kernels, to a state
    tensor of shape [2]*num_bits, with optional trailing batch axes (one
    wider than a tile must be a power of two long), or to a view of one with
    some axes sliced to length 1. Inside `apply_all` its plan is looked up."""
    # the running call's plans hold their instructions, so an id found there is this one's
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
    """What the passes of one instruction object need of it: the indices of
    its target slices or of its control block, and its kernel from one
    `tolist()` of the gate; with the last view `apply_all` worked out for it
    and the last target slices cut from a view (the module's "Plans")."""

    __slots__ = ("instr", "gate", "kernel", "diagonal", "at0", "at1", "block", "moved", "front",
                 "memo", "slices")

    def __init__(self, instr: Instruction) -> None:
        self.instr = instr
        # (support, frame, view, support after) of the last pass in
        # `apply_all`, and (view, x0, x1) of the last in `apply_to_tensor`
        self.memo = self.slices = None
        targets, controls = instr.targets, instr.controls
        # an index up to the last bit, each control at its trigger value
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
    """moved <- gate @ moved over its first k axes, in the module's tiles of
    at most `width` columns: the other axes in memory order, the leading
    ones fixed, and a last axis wider than `width` (the batch axis of
    `to_matrix`) cut into slices of `width`, which divides it."""
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
    """x0, x1 <- a x0 + b x1, c x0 + d x1 in place for the target slices of
    a 2x2 gate [[a, b], [c, d]], by `kernel`, `_pair_kernel(gate)`; a dense
    gate takes the matmul when `blas` is set. Factors of exactly 1 are
    skipped, and a slice that is all zero is multiplied like any other."""
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
    amplitudes of each slice, with `ntemps` scratch arrays of a chunk's
    size. A slice of at most TILE amplitudes that walks in one stride is the
    one chunk the iterator would hand over, and is updated as it lies."""
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
    """The target slices and the order to iterate them in: "K", memory
    order, unless adjacent amplitudes come in stretches of exactly 2 (the
    unit-stride axis has length 2 and no axis has twice its stride). Then that
    axis moves to the front, the others follow in memory order, and the
    walk runs in C order, so inner loops run along the long strided axes."""
    strides, size = x0.strides, x0.itemsize
    if x0.ndim > 1 and x0.shape[-1] == 2 and size in strides and 2 * size not in strides:
        last = strides.index(size)
        if x0.shape[last] == 2:
            rest = sorted(set(range(x0.ndim)) - {last}, key=strides.__getitem__, reverse=True)
            return x0.transpose(last, *rest), x1.transpose(last, *rest), "C"
    return x0, x1, "K"


def run(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Run a circuit on a copy of the initial state (default |0...0>). The
    state returned keeps the module's memory order: its `tensor` is a
    register-order view, with the axes of the bits left flipped reversed.
    From a basis state it makes the opening fill and carries the support it
    ends with, which `observe` reads until its `tensor` or `amps` is read or
    assigned."""
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
    """Make the module's opening fill on `tensor`, which holds the basis
    state `start`: the layer's length and the support after it, None once
    the layer frees every bit. A non-finite start has no layer, since the
    passes spread its inf or nan into both parts, which the fill would not."""
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
    """Register positions in the memory order of `run`'s tensor, leading axis
    first. Each instruction adds 2^-(its control count), the share of the
    state its pass touches, to each of its bits; bits go by descending
    weight, ties by position. Weights count exactly, in units of 2^-num_bits,
    so a repeated object weighs what as many equal ones do."""
    nbits = layout.num_bits
    weight = [0] * nbits
    for instr in instructions:
        share = 1 << nbits - len(instr.controls)
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
    """apply_to_tensor for each instruction of a sequence, the one loop of
    `run` and `to_matrix`, with the module's support (None: every pass
    covers the whole tensor), Pauli frame, X pairs and plans. Returns the
    tensor with the flipped axes reversed and its support in that view's
    values. Overflow is left to `observe` and `isometry_residual`."""
    nbits = layout.num_bits
    instructions = _without_x_pairs(instructions)
    # the Pauli frame: the mask of the flipped bits
    flipped = 0
    trailing = [1 << p for p in sorted(range(nbits), key=lambda p: abs(tensor.strides[p]))]
    # the last occurrence of each instruction object, after which its plan leaves
    last = {id(instr): i for i, instr in enumerate(instructions)}
    outer = _running.plans
    _running.plans = plans = {}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for i, instr in enumerate(instructions):
                # an uncontrolled builtin X only toggles; a Y toggles after its pass
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
                    # the same plan from the same support and frame gets the same view
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
    """The instructions less the module's X pairs, taken from the left."""
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
    """(view, support): the view of `tensor` a pass of `plan` runs on in the
    frame `flipped`, or None when its control block meets no cube of
    `support`; and the support after the pass. `trailing` holds a mask per
    register bit, by ascending stride."""
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
    the bits in `fix` pinned at their values in `vals`, less the bits the
    two-free-axes rule frees: those of the trailing memory axes first
    (`trailing`), until two of the `axes` axes a target slice spans are
    free, or all."""
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
    `width`. Each distinct value is formatted once into a line of fixed
    width, its text padded with spaces; each block of lines is a byte table
    of such lines, squeezed by one `bytes.replace` and written at once."""
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
    # all distinct, or more distinct values than a block: no table to look up
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
        # a finite sum has only finite entries; only another one needs the
        # elementwise check
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
    observed in state 0, read as the module's "Measurement" says. Zero
    observable mass yields an all-zero distribution; a squared magnitude
    that is not finite raises GuardError. The mass per hybit pattern feeds
    only that check and the negligible-mass warning."""
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
    which every amplitude of `tensor` is zero; the cube (0, 0) is the whole
    register. Each cube that fixes no hybit at 1 is squared, its hybits at 0,
    into its block of a zeroed output; each cube that fixes a hybit at 1 or
    leaves one free adds its other patterns' `pattern_masses`."""
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
    # sorted draws make the search walk the CDF in order; the histogram does not change
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
