"""State-vector simulation with hyper-postselected measurement.

Gates touch amplitudes through axis views of the state tensor, so one
instruction costs O(2^N * 2^arity) regardless of register size; the full
register matrix is never materialized. Each control fixes its axis at its
trigger value (1, or 0 for a "!" control), so only the control block where
every control holds its value is touched; a 0-control costs what a
1-control costs.

A single-target gate [[a, b], [c, d]] updates the two target slices x0
(target bit 0) and x1 (target bit 1) of the control block in place,
without moving axes or copying the state. Its 2x2 entries pick the kernel:

* diagonal (T, Z, SZ, SZD, PHASE): scale each slice in one op, skipping a
  factor of exactly 1
* anti-diagonal (X, Y): swap the slices through a temporary
* dense (H, TAU, BOOST, general U): x0, x1 <- a x0 + b x1, c x0 + d x1
  through two temporaries; below BLAS_DENSE_MAX amplitudes per slice, as
  one matmul on the stacked slice pair instead

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
(the second-to-last register bit is not an axis of the slice, being its
target, a control or a fixed untouched bit, while the last bit is), the
swap, the dense update and the diagonal scaling iterate with that stretch
axis moved to the front, in C order: inner loops then run along the long
strided axes instead of over pairs. With the target at bit 18 of a 20-bit
state that about halves a dense pass and cuts a diagonal one to a third;
at stretches of 4 (bit 17) the same reorder measured slower, so it is kept
to stretches of 2.

Gates with two or more targets (CZ, multi-target DEFGATEs) move their
target axes to the front and multiply by the gate matrix.

`run` from a basis state (|0...0> or any state with one nonzero amplitude)
leaves out the bits no instruction has targeted yet, as long as they hold
their start values: a pass whose control on such a bit cannot trigger is
skipped, and the others run on the view of the tensor with those axes
sliced to length 1 at their start values (no renumbering, no view cache),
since every amplitude outside it is zero and stays zero. An H layer
on |0...0> then touches one block of the state per gate instead of all of
it. Two limits keep the result bit-identical to passes over the whole
tensor, apart from the sign of zero amplitudes outside the view (a
whole-tensor Z turns them into -0.0, which no probability sees): a
single-target pass fixes no more untouched bits than leave each
target slice max(BLAS_DENSE_MAX, 2) amplitudes, because a smaller slice
would take the BLAS branch or numpy's one-amplitude product, which round
differently; a pass with two or more targets fixes none beyond its
controls, because BLAS may round a matmul of another width differently.

Measurement keeps only amplitudes with every hybit in state 0 and
renormalizes over that subspace. The outcome distribution is an array over
qubit indices, whose order is sorted-bitstring order; bitstrings are built
only for output. Sampling draws by inverse CDF over that array, so the
draws equal those of an inverse CDF over the sorted list of outcomes. A
state whose total squared magnitude is not finite (its amplitudes
overflowed) is refused with GuardError.

The text form prints each nonzero probability at 17 significant digits, and
a `%.17g` costs about 1 us. After an H layer, the 2^n probabilities often
take only about a hundred distinct values. So when a distribution has at most
DISTINCT_FORMAT_MAX distinct values per printed line, each distinct value
(keyed on its exact float, never on rounded text) is formatted once and
every line takes its text; otherwise each line's value is formatted. Both
paths print the same bytes. Counts always take the per-line path: `%d` is
cheap, and looking texts up measured slower.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Instruction
from .core import (
    EPS_PROB_SUM,
    NEGLIGIBLE_MASS_RATIO,
    BitKind,
    GuardError,
    LqcError,
    RegisterLayout,
    StateVector,
    basis_state,
    metric_for_kinds,
)

RNG_ALGORITHM = "Philox"
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
# matmul on the stacked slice pair, as multi-target gates are. At that size
# it costs about what the slice update costs, and it rounds more tightly:
# with the slice update, the metric residual of `to_matrix` on synthesized
# circuits, which `lqc verify` compares with EPS_ISO, is about 1.3x larger
# and flips some results near EPS_ISO. Above this size the chunked slice
# update is 2-5x faster than stacking the pair.
BLAS_DENSE_MAX = 1 << 13
# Amplitudes per target slice in one chunk of the slice update: the buffer
# size of the iterator. A dense chunk holds x0 and x1 buffers and two
# temporaries, 4 x 128 KiB, well inside L2. On a 20-bit state, 2^15 measured
# slower on every target bit (spills from L2) and 2^12 slower on dense
# passes (more calls per pass).
TILE = 1 << 13


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
    moved = np.moveaxis(sub, tpos_sub, range(len(tpos_sub)))
    d = 1 << len(tpos_sub)
    updated = gate @ moved.reshape(d, -1)
    moved[...] = updated.reshape(moved.shape)


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
        pair = gate @ np.stack((x0, x1)).reshape(2, -1)
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
    """The target slices and the order to iterate them in. Where adjacent
    amplitudes come in stretches of exactly 2 (register bit n-2 is absent
    from the slice, as its target, a control or a fixed untouched bit, and
    bit n-1 is present), that axis moves to the front and the iteration runs
    in C order, so inner loops walk the long strided axes rather than pairs."""
    if (x0.ndim > 1 and x0.shape[-1] == 2 and x0.strides[-1] == x0.itemsize
            and x0.strides[-2] != 2 * x0.itemsize):
        return np.moveaxis(x0, -1, 0), np.moveaxis(x1, -1, 0), "C"
    return x0, x1, "K"


def run(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Run a circuit on a copy of the initial state (default |0...0>).

    From a basis state (the default, or an initial state with exactly one
    nonzero amplitude) the run tracks the untouched bits, those no
    instruction has targeted yet, with their start values; from any other
    state no bit is untouched. An instruction with a control on an untouched
    bit is skipped when the trigger differs from the start value (its
    control block is all zero) and loses that control when it matches. The
    rest runs on the view of the tensor with untouched axes sliced to length
    1 at their start values, keeping the circuit's bit positions (no view is
    cached); every amplitude outside the view is zero and stays zero.
    The result is bit-identical to applying every instruction to the whole
    tensor, except that a zero amplitude outside the view keeps +0.0 where a
    whole-tensor pass may leave -0.0. Two limits keep it so: a single-target
    pass fixes only as many extra untouched bits as leave each target slice
    at least max(BLAS_DENSE_MAX, 2) amplitudes, since a smaller slice would
    switch to the BLAS branch or to numpy's one-amplitude product, which
    round differently; a pass with two or more targets fixes none beyond its
    controls, since BLAS may round a matmul differently at another width."""
    layout = circuit.layout
    if initial is None:
        start = [0] * layout.num_bits
        state = basis_state(layout, start)
    else:
        if initial.layout != layout:
            raise LqcError("initial state layout does not match circuit layout")
        state = initial.copy()
        start = _basis_bits(state)
    apply_all(layout, state.amps.reshape([2] * layout.num_bits), circuit.instructions, start)
    return state


def _basis_bits(state: StateVector) -> list[int] | None:
    """The bits of the one nonzero amplitude of a basis state, else None."""
    support = np.flatnonzero(state.amps)
    if support.size != 1:
        return None
    n = state.layout.num_bits
    return [(int(support[0]) >> (n - 1 - p)) & 1 for p in range(n)]


def apply_all(layout: RegisterLayout, tensor: np.ndarray, instructions,
              start: list[int] | None = None) -> None:
    """apply_to_tensor for each instruction: the one loop of `run` and
    `circuit.to_matrix`. When the tensor held the basis state `start` before
    the first one, each pass is skipped or narrowed by the untouched bits as
    `run` describes; with no `start`, every pass covers the whole tensor.
    Overflow is left to `observe` and `isometry_residual` to report."""
    untouched = {} if start is None else dict(enumerate(start))
    floor = max(BLAS_DENSE_MAX, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for instr in instructions:
            view = tensor
            if untouched:
                held = [(c, v) for c, v in zip(instr.controls, instr.ctrl_state)
                        if c in untouched]
                if any(untouched[c] != v for c, v in held):
                    continue
                for t in instr.targets:
                    untouched.pop(t, None)
                fixed = [c for c, _ in held]
                if len(instr.targets) == 1:
                    size = 1 << (layout.num_bits - 1 - len(instr.controls))
                    for p in untouched:
                        if size >> 1 < floor:
                            break
                        if p not in instr.controls:
                            fixed.append(p)
                            size >>= 1
                idx: list = [slice(None)] * tensor.ndim
                for p in fixed:
                    idx[p] = slice(untouched[p], untouched[p] + 1)
                view = tensor[tuple(idx)]
                if held:
                    free = [(c, v) for c, v in zip(instr.controls, instr.ctrl_state)
                            if c not in untouched]
                    instr = Instruction(instr.gate, instr.targets, tuple(c for c, _ in free),
                                        instr.param, instr.matrix, tuple(v for _, v in free))
            apply_to_tensor(layout, view, instr)


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


def _format_blocks(tail: str, size: int, support: np.ndarray, args: np.ndarray,
                   texts: np.ndarray | None = None) -> list[str]:
    """`bitstring + tail % arg` for each index in `support` (ascending) into
    an array of `size` = 2^nq outcomes, where arg is the index's entry of
    `args`, or texts[that entry] when `texts` is given. Each block of lines
    is one %-format of a template that already holds its bitstrings, written
    as ASCII digit rows by numpy rather than as one string per line; the
    block bounds the temporary objects."""
    nq = size.bit_length() - 1
    shifts = np.arange(nq - 1, -1, -1)
    tail_bytes = np.frombuffer(tail.encode("ascii"), dtype=np.uint8)
    blocks = []
    for start in range(0, support.size, FORMAT_BLOCK):
        block = support[start:start + FORMAT_BLOCK]
        line_args = args[start:start + FORMAT_BLOCK]
        if texts is not None:
            line_args = texts[line_args]
        rows = np.empty((block.size, nq + tail_bytes.size), dtype=np.uint8)
        rows[:, :nq] = (block[:, None] >> shifts) & 1
        rows[:, :nq] += ord("0")
        rows[:, nq:] = tail_bytes
        blocks.append(rows.tobytes().decode("ascii") % tuple(line_args.tolist()))
    return blocks


def _probability_blocks(probs: np.ndarray) -> list[str]:
    """The bitstring/probability lines of format_distribution, in blocks.
    When there are at most DISTINCT_FORMAT_MAX distinct values per line,
    each distinct value goes through `%.17g` once and every line takes its
    text. A function of its own, so that its index arrays are freed before
    the caller joins the text."""
    support = np.flatnonzero(probs)
    nonzero = probs[support]
    # the plain unique is a sort, about 8x cheaper than the one that also
    # returns the inverse, so all-distinct values pay only for that
    if np.unique(nonzero).size > DISTINCT_FORMAT_MAX * support.size:
        return _format_blocks("\t%.17g\n", probs.size, support, nonzero)
    # keyed on the exact float: values one ulp apart print differently
    distinct, codes = np.unique(nonzero, return_inverse=True)
    texts = ("%.17g\n" * distinct.size % tuple(distinct.tolist())).splitlines()
    return _format_blocks("\t%s\n", probs.size, support, codes, np.array(texts, dtype=object))


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
    # an overflowing square raises the GuardError below, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mag2 = (state.amps.real**2 + state.amps.imag**2).reshape([2] * layout.num_bits)
    hybits = layout.positions(BitKind.HYBIT)
    idx = [slice(None)] * layout.num_bits
    for p in hybits:
        idx[p] = 0
    visible = np.ascontiguousarray(mag2[tuple(idx)]).reshape(-1)
    mass = float(visible.sum())
    # mass per hybit pattern; the positive patterns have even parity
    per_pattern = mag2.sum(axis=layout.positions(BitKind.QUBIT)).reshape(-1)
    total = float(per_pattern.sum())
    if not np.isfinite(total):
        raise GuardError(f"the state's total squared magnitude is {total}, not finite")
    if mass == 0.0:
        return OutcomeDistribution(visible, 0.0)

    signs = metric_for_kinds([BitKind.HYBIT] * len(hybits))
    positive_mass = float(per_pattern[signs > 0].sum())
    if mass < NEGLIGIBLE_MASS_RATIO * positive_mass:
        warnings.warn(
            f"observable mass {mass:.3g} is below {NEGLIGIBLE_MASS_RATIO:g} of the "
            f"positive mass {positive_mass:.3g}; postselection is numerically meaningless",
            NegligibleMassWarning,
            stacklevel=2,
        )
    return OutcomeDistribution(visible / mass, mass)


@dataclass
class SampleResult:
    """Shot counts per outcome index, in the order of OutcomeDistribution.probs."""

    histogram: np.ndarray
    shots: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def counts(self) -> Counter:
        """The nonzero counts keyed by qubit bitstring, built on demand."""
        return Counter(dict(_nonzero_items(self.histogram)))


def sample(state: StateVector, shots: int, seed: int) -> SampleResult:
    """Draw i.i.d. measurement shots; deterministic per seed (counter-based
    generator, inverse CDF over the outcome indices)."""
    if shots < 0:
        raise LqcError("shot count must be nonnegative")
    if seed < 0:
        raise LqcError(f"seed must be nonnegative, got {seed}")
    dist = observe(state)
    if dist.observable_mass == 0.0:
        raise ZeroObservableMassError("state has zero observable mass")
    cdf = np.cumsum(dist.probs)
    # from the last possible outcome on, every draw u < 1 lands at or before it
    cdf[np.flatnonzero(dist.probs)[-1]:] = 1.0
    rng = np.random.Generator(np.random.Philox(seed))
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    return SampleResult(np.bincount(draws, minlength=cdf.size), shots, seed)


def format_distribution(dist: OutcomeDistribution) -> str:
    """Shared text form: observable-mass header, then bitstring/probability
    lines (tab separated, 17 significant digits, sorted by bitstring) for the
    outcomes of nonzero probability."""
    header = f"# observable_mass = {dist.observable_mass:.17g}\n"
    return "".join([header, *_probability_blocks(dist.probs)])


def format_counts(result: SampleResult) -> str:
    """bitstring/count lines (tab separated, sorted by bitstring) for the
    outcomes drawn at least once."""
    hist = result.histogram
    support = np.flatnonzero(hist)
    return "".join(_format_blocks("\t%d\n", hist.size, support, hist[support]))
