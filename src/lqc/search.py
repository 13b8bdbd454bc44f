"""Lorentz database search.

A marked item x among N = 2^n is amplified by alternating the phase-free
oracle O (flips an ancilla qubit on |x>) with a controlled hyperbolic boost
on a single hybit. Each round multiplies the marked amplitude by cosh(chi)
relative to the rest, so k rounds reach success probability

    P_k = (cosh^2(k chi) / N) / (1 - 1/N + cosh^2(k chi) / N)

and k = O(arccosh(sqrt(N)) / chi) = O(log N) rounds suffice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .circuit import Circuit, Instruction
from .core import GuardError, LqcError, RegisterLayout
from .simulator import OutcomeDistribution, observe, run

__all__ = [
    "SearchSpec",
    "search_layout",
    "q_circuit",
    "run_search",
    "predicted_success",
    "choose_k",
    "qk_amplitudes",
]

# choose_k and SearchSpec refuse schedules past this; cosh(x)^2 overflows a
# little above 354 and everything near there is numerically meaningless
MAX_K_CHI = 300.0
# 10^5 rounds of three passes took 1.9 s at n = 1 and 2.1 s at n = 16 (2-core
# Intel Xeon, one BLAS thread): from |0...0> a round's passes touch 4, 8 and
# 4 amplitudes whatever n, and from the second round on each pass makes only
# its kernel's numpy calls, about 6 us; building the circuit takes 5 ms. The
# oracle pairs between rounds make no pass (`simulator`'s X pairs), and the
# opening H layer is one fill, so a search of k rounds makes k + 2 passes
# and those times bound it from above. Only chi below about 1e-4, where a
# round barely moves the state, needs more
MAX_ROUNDS = 10**5


@dataclass(frozen=True)
class SearchSpec:
    """One search instance: n data qubits, marked bitstring target_x,
    boost rapidity chi per round, round count k."""

    n: int
    target_x: str
    chi: float
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise LqcError("search register needs at least one qubit")
        if len(self.target_x) != self.n or set(self.target_x) - {"0", "1"}:
            raise LqcError(
                f"target_x must be {self.n} characters of 0/1, got {self.target_x!r}"
            )
        if not (self.chi >= 0.0) or not math.isfinite(self.chi):
            raise LqcError(f"chi must be a nonnegative real, got {self.chi}")
        if self.k > MAX_ROUNDS:
            raise GuardError(f"round count {self.k} exceeds the guard of {MAX_ROUNDS} rounds")
        _check_rounds(self.chi, self.k)


def _check_rounds(chi: float, k: int) -> None:
    """The schedule SearchSpec and the closed forms accept: k rounds of a
    finite rapidity chi, with cosh(k chi)^2 finite. SearchSpec refuses a
    non-finite chi first, in its own words."""
    if not math.isfinite(chi):
        # 0 * inf is nan, which slips past every k*chi comparison
        raise LqcError(f"chi must be finite, got {chi}")
    if k < 0:
        raise LqcError(f"round count must be nonnegative, got {k}")
    if k * abs(chi) > MAX_K_CHI:
        raise GuardError(f"k*chi = {k * abs(chi):g} exceeds {MAX_K_CHI:g}; cosh overflows")


@functools.lru_cache(maxsize=None)
def search_layout(n: int) -> RegisterLayout:
    """n search qubits, one oracle qubit, one hybit (in that bit order): the
    oracle qubit is position n and the hybit position n + 1. Built once per
    n and shared; a layout is immutable."""
    return RegisterLayout("q" * (n + 1) + "h")


def _marked(spec: SearchSpec) -> Instruction:
    """The X that flips the oracle qubit exactly on |target_x>: controlled on
    every search qubit, with target_x as the trigger values."""
    return Instruction(
        "X", (spec.n,), tuple(range(spec.n)), ctrl_state=tuple(int(bit) for bit in spec.target_x)
    )


def q_circuit(spec: SearchSpec) -> Circuit:
    """One amplification round Q = O . CTRL-BOOST(chi) . O, with the boost on
    the hybit controlled by the oracle qubit. Both oracles are one
    instruction object, and the round is validated once."""
    marked = _marked(spec)
    boost = Instruction("BOOST", (spec.n + 1,), controls=(spec.n,), param=spec.chi)
    return Circuit(search_layout(spec.n), (marked, boost, marked))


def run_search(spec: SearchSpec) -> OutcomeDistribution:
    """Prepare the uniform superposition, apply Q^k, hyper-postselect, and
    marginalize out the oracle qubit. Outcomes are the n-bit search strings.
    The circuit is validated in two stacked metric checks, one for the H
    layer and one for the round.

    The circuit holds n + 3k instructions but makes k + 2 passes: `run`
    fills the opening H layer on |0...0> in one assignment, and the oracles
    that meet between rounds form k - 1 X pairs, which make no pass
    (`simulator`'s module docstring). `observe` then reads the (oracle 0,
    hybit 0) block and the marked item's cube."""
    layout = search_layout(spec.n)
    prep = Circuit(layout, tuple(Instruction("H", (i,)) for i in range(spec.n)))
    full = observe(run(prep.concat(q_circuit(spec), times=spec.k)))
    # the oracle qubit is the last qubit, so the least significant index bit
    return OutcomeDistribution(full.probs[0::2] + full.probs[1::2], full.observable_mass)


def predicted_success(N: int, chi: float, k: int) -> float:
    """Closed-form probability of observing the marked item after k rounds."""
    if N < 1:
        raise LqcError("N must be a positive item count")
    _check_rounds(chi, k)
    c2 = math.cosh(k * chi) ** 2
    return (c2 / N) / (1.0 - 1.0 / N + c2 / N)


def choose_k(N: int, chi: float, p_min: float) -> int:
    """Smallest round count whose predicted success reaches p_min: the first
    of k = 0, 1, 2, ... at which predicted_success reaches it. The closed
    form k = ceil(arccosh(sqrt(p_min (N-1)/(1-p_min)))/chi) bounds the scan
    at O(log N / chi) evaluations, and evaluating each k leaves no rounding
    of an inverse to correct.
    """
    if N < 1:
        raise LqcError("N must be a positive item count")
    if not (0.0 < p_min < 1.0):
        raise LqcError(f"p_min must lie strictly between 0 and 1, got {p_min}")
    # predicted_success refuses a non-finite chi at k = 0
    k = 0
    while predicted_success(N, chi, k) < p_min:
        if not (chi > 0.0):
            raise LqcError("chi must be positive to amplify")
        k += 1
        if k > MAX_ROUNDS:
            raise GuardError(f"reaching p_min={p_min} for N={N} needs more than "
                             f"{MAX_ROUNDS} rounds at chi={chi}; that is the guard")
        # keep every cosh evaluation below the overflow guard
        if k * chi > MAX_K_CHI:
            raise GuardError(
                f"reaching p_min={p_min} for N={N} needs k*chi > {MAX_K_CHI:g} "
                f"(k={k}, chi={chi}); cosh overflows double precision there"
            )
    return k


def qk_amplitudes(N: int, chi: float, k: int) -> tuple[float, float, float]:
    """State after Q^k in the invariant 3-dimensional subspace, as the
    coefficients of (|x>|0_h>, |x>|1_h>, each unmarked |y>|0_h>):

        (cosh(k chi)/sqrt(N), sinh(k chi)/sqrt(N), 1/sqrt(N))

    The pseudo-norm (1 - 1/N) + cosh^2/N - sinh^2/N stays exactly 1.
    """
    if N < 1:
        raise LqcError("N must be a positive item count")
    _check_rounds(chi, k)
    r = math.sqrt(N)
    return (math.cosh(k * chi) / r, math.sinh(k * chi) / r, 1.0 / r)
