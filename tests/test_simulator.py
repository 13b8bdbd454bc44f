from collections import Counter

import numpy as np
import pytest

from conftest import random_circuit, random_layout, random_state_amps
from lqc.circuit import Circuit, Instruction, parse, to_matrix
from lqc.core import (
    GuardError,
    LqcError,
    RegisterLayout,
    StateVector,
    basis_state,
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


class TestSample:
    def test_deterministic_state(self):
        res = sample(basis_state(RegisterLayout.of(2, 0), [1, 0]), 50, seed=1)
        assert res.counts == {"10": 50}

    def test_same_seed_same_result(self):
        layout = RegisterLayout.of(1, 0)
        state = StateVector(layout, np.array([1, 1]) / np.sqrt(2))
        a = sample(state, 1000, seed=9)
        b = sample(state, 1000, seed=9)
        assert a.counts == b.counts

    def test_binomial_bound(self):
        layout = RegisterLayout.of(1, 0)
        state = StateVector(layout, np.array([1, 1]) / np.sqrt(2))
        shots = 100_000
        res = sample(state, shots, seed=123)
        sigma = np.sqrt(shots * 0.25)
        assert abs(res.counts["0"] - shots / 2) <= 5 * sigma

    def test_zero_shots(self):
        res = sample(basis_state(RegisterLayout.of(1, 0), [0]), 0, seed=0)
        assert res.counts == {}

    def test_zero_mass_raises(self):
        layout = RegisterLayout.of(0, 1)
        with pytest.raises(ZeroObservableMassError):
            sample(StateVector(layout, np.array([0.0, 1.0])), 10, seed=0)

    def test_rng_algorithm_recorded(self):
        res = sample(basis_state(RegisterLayout.of(1, 0), [0]), 1, seed=0)
        assert res.rng_algorithm == "Philox"


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
        assert sample(state, 5000, seed).counts == want

    def test_zero_probability_never_drawn(self):
        # the last qubit stays 0, so every odd index, the last one included,
        # has probability zero
        state = run(parse("qubits 3\nH q0\nH q1\n"))
        res = sample(state, 20000, seed=3)
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
        assert sample(state, 4, seed=0).counts == {"0011": 2, "1100": 2}


class TestDistributionFormat:
    def test_layout(self):
        dist = OutcomeDistribution(np.array([0.25, 0.75]), 0.5)
        text = format_distribution(dist)
        lines = text.splitlines()
        assert lines[0] == "# observable_mass = 0.5"
        assert lines[1] == "0\t0.25"
        assert lines[2] == "1\t0.75"

    def test_sorted_keys(self):
        dist = OutcomeDistribution(np.array([0.5, 0.0, 0.0, 0.5]), 1.0)
        lines = format_distribution(dist).splitlines()
        assert lines[1].startswith("00") and lines[2].startswith("11")
        assert len(lines) == 3  # zero-probability outcomes are not printed

    def test_many_outcomes_match_line_by_line(self):
        # more outcomes than one formatting block, some of them zero
        rng = np.random.default_rng(4)
        probs = rng.random(1 << 15)
        probs[rng.random(1 << 15) < 0.3] = 0.0
        probs /= probs.sum()
        lines = ["# observable_mass = 2.5"]
        lines += [f"{j:015b}\t{p:.17g}" for j, p in enumerate(probs) if p]
        assert format_distribution(OutcomeDistribution(probs, 2.5)) == "\n".join(lines) + "\n"

        hist = rng.integers(0, 3, 1 << 15)
        want = "".join(f"{j:015b}\t{n}\n" for j, n in enumerate(hist) if n)
        assert format_counts(SampleResult(hist, int(hist.sum()), 0)) == want

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

        def bits(j):
            # no qubits: the one outcome has the empty bitstring
            return format(j, f"0{nq}b") if nq else ""

        want = "".join("%s\t%.17g\n" % (bits(j), p) for j, p in enumerate(probs) if p)
        text = format_distribution(OutcomeDistribution(probs, 0.75))
        assert text == "# observable_mass = 0.75\n" + want
        want = "".join("%s\t%d\n" % (bits(j), n) for j, n in enumerate(hist) if n)
        assert format_counts(SampleResult(hist, int(hist.sum()), 0)) == want

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
        nq = probs.size.bit_length() - 1
        bits = [format(j, f"0{nq}b") if nq else "" for j in range(probs.size)]

        # compared as lists of lines: a failing diff of long strings is slow
        want = ["# observable_mass = 0.75\n"]
        want += ["%s\t%.17g\n" % (bits[j], p) for j, p in enumerate(probs) if p]
        text = format_distribution(OutcomeDistribution(probs, 0.75))
        assert text.splitlines(keepends=True) == want

        # a histogram with the same pattern of repeats
        hist = np.unique(w, return_inverse=True)[1] * (w != 0)
        hist += w != 0
        want = ["%s\t%d\n" % (bits[j], n) for j, n in enumerate(hist) if n]
        text = format_counts(SampleResult(hist, int(hist.sum()), 0))
        assert text.splitlines(keepends=True) == want

    def test_probability_check(self):
        with pytest.raises(LqcError):
            OutcomeDistribution(np.array([0.4, 0.0]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        # nan - 1 compares False against any bound, so the sum check alone
        # lets NaN through
        with pytest.raises(LqcError, match="finite"):
            OutcomeDistribution(np.array([bad, 0.0]), 1.0)
        with pytest.raises(LqcError, match="finite"):
            OutcomeDistribution(np.array([bad, 1.0]), 1.0)
