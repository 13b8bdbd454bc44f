"""Lorentz database search.

A marked item x among N = 2^n is amplified by alternating the phase-free
oracle O (flips an ancilla qubit on |x>) with a controlled hyperbolic boost
on a single hybit. Each round multiplies the marked amplitude by cosh(chi)
relative to the rest, so k rounds reach success probability

    P_k = (cosh^2(k chi) / N) / (1 - 1/N + cosh^2(k chi) / N)

and k = O(arccosh(sqrt(N)) / chi) = O(log N) rounds suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit, Instruction
from .core import GuardError, LqcError, RegisterLayout
from .simulator import OutcomeDistribution, observe, run

__all__ = [
    "SearchSpec",
    "search_layout",
    "oracle_circuit",
    "q_circuit",
    "run_search",
    "predicted_success",
    "choose_k",
    "qk_amplitudes",
]

# choose_k and SearchSpec refuse schedules past this; cosh(x)^2 overflows a
# little above 354 and everything near there is numerically meaningless
MAX_K_CHI = 300.0
# 10^5 rounds of three passes take seconds at n = 1 and minutes at n = 16;
# only chi below about 1e-4, where a round barely moves the state, needs more
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
        if self.k < 0:
            raise LqcError(f"round count must be nonnegative, got {self.k}")
        if self.k > MAX_ROUNDS:
            raise GuardError(f"round count {self.k} exceeds the guard of {MAX_ROUNDS} rounds")
        if self.k * self.chi > MAX_K_CHI:
            raise GuardError(f"k*chi = {self.k * self.chi:g} exceeds {MAX_K_CHI:g}; cosh overflows")


def search_layout(n: int) -> RegisterLayout:
    """n search qubits, one oracle qubit, one hybit (in that bit order): the
    oracle qubit is position n and the hybit position n + 1."""
    return RegisterLayout("q" * (n + 1) + "h")


def oracle_circuit(spec: SearchSpec) -> Circuit:
    """O: flip the oracle qubit exactly on |target_x>, as one X controlled on
    every search qubit with target_x as the trigger values, so O^2 = I."""
    marked = Instruction(
        "X", (spec.n,), tuple(range(spec.n)), ctrl_state=tuple(int(bit) for bit in spec.target_x)
    )
    return Circuit(search_layout(spec.n), (marked,))


def q_circuit(spec: SearchSpec) -> Circuit:
    """One amplification round Q = O . CTRL-BOOST(chi) . O, with the boost on
    the hybit controlled by the oracle qubit."""
    oracle = oracle_circuit(spec)
    boost = Instruction("BOOST", (spec.n + 1,), controls=(spec.n,), param=spec.chi)
    return oracle.concat(Circuit(oracle.layout, (boost,))).concat(oracle)


def run_search(spec: SearchSpec) -> OutcomeDistribution:
    """Prepare the uniform superposition, apply Q^k, hyper-postselect, and
    marginalize out the oracle qubit. Outcomes are the n-bit search strings."""
    layout = search_layout(spec.n)
    prep = Circuit(layout, tuple(Instruction("H", (i,)) for i in range(spec.n)))
    full = observe(run(prep.concat(q_circuit(spec), times=spec.k)))
    # the oracle qubit is the last qubit, so the least significant index bit
    return OutcomeDistribution(full.probs.reshape(-1, 2).sum(axis=1), full.observable_mass)


def predicted_success(N: int, chi: float, k: int) -> float:
    """Closed-form probability of observing the marked item after k rounds."""
    if N < 1:
        raise LqcError("N must be a positive item count")
    c2 = math.cosh(k * chi) ** 2
    return (c2 / N) / (1.0 - 1.0 / N + c2 / N)


def choose_k(N: int, chi: float, p_min: float) -> int:
    """Smallest round count whose predicted success reaches p_min.

    Inverts the closed form (k = ceil(arccosh(sqrt(p_min (N-1)/(1-p_min)))/chi))
    and then nudges against direct evaluation so float rounding near the
    boundary cannot shift the answer off the true minimum.
    """
    if N < 1:
        raise LqcError("N must be a positive item count")
    if not (0.0 < p_min < 1.0):
        raise LqcError(f"p_min must lie strictly between 0 and 1, got {p_min}")
    if p_min <= 1.0 / N:
        return 0
    if not (chi > 0.0):
        raise LqcError("chi must be positive to amplify")
    target = math.sqrt(p_min * (N - 1) / (1.0 - p_min))
    estimate = math.acosh(max(target, 1.0)) / chi
    if not estimate <= MAX_ROUNDS:  # inf too, which math.ceil refuses
        raise GuardError(f"reaching p_min={p_min} for N={N} needs about {estimate:.3g} "
                         f"rounds at chi={chi}; the guard is {MAX_ROUNDS} rounds")
    k = math.ceil(estimate)
    # keep every cosh evaluation below the overflow guard
    while k > 0 and k * chi <= MAX_K_CHI and predicted_success(N, chi, k - 1) >= p_min:
        k -= 1
    while k * chi <= MAX_K_CHI and predicted_success(N, chi, k) < p_min:
        k += 1
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
    r = math.sqrt(N)
    return (math.cosh(k * chi) / r, math.sinh(k * chi) / r, 1.0 / r)
