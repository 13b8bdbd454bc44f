import math

import numpy as np
import pytest

from lqc import search
from lqc.circuit import Circuit, Instruction
from lqc.circuit import to_matrix
from lqc.core import GuardError, LqcError, basis_state, pseudo_norm
from lqc.search import (
    MAX_ROUNDS,
    SearchSpec,
    choose_k,
    predicted_success,
    q_circuit,
    qk_amplitudes,
    run_search,
    search_layout,
)
from lqc.simulator import OutcomeDistribution, observe, run


class TestSpecValidation:
    def test_layout_shape(self):
        lay = search_layout(3)
        assert lay.num_qubits == 4 and lay.num_hybits == 1
        assert lay.kinds[-1] == "h"

    def test_bad_target_length(self):
        with pytest.raises(LqcError):
            SearchSpec(3, "01", 0.5, 1)

    def test_empty_register(self):
        with pytest.raises(LqcError, match="at least one qubit"):
            SearchSpec(0, "", 0.5, 1)

    def test_bad_target_chars(self):
        with pytest.raises(LqcError):
            SearchSpec(2, "0x", 0.5, 1)

    def test_negative_chi(self):
        with pytest.raises(LqcError):
            SearchSpec(2, "01", -0.5, 1)

    def test_negative_k(self):
        with pytest.raises(LqcError):
            SearchSpec(2, "01", 0.5, -1)

    def test_round_guard(self):
        SearchSpec(2, "01", 0.0, MAX_ROUNDS)
        with pytest.raises(GuardError, match="round count"):
            SearchSpec(2, "01", 0.0, MAX_ROUNDS + 1)
        with pytest.raises(GuardError, match="k\\*chi"):
            SearchSpec(2, "01", 1.0, 400)


def oracle_circuit(spec):
    """O alone: the oracle instruction of a round, in a circuit of its own."""
    return Circuit(search_layout(spec.n), q_circuit(spec).instructions[:1])


class TestOracle:
    def test_all_ones_is_plain_controlled_x(self):
        spec = SearchSpec(3, "111", 0.5, 1)
        circ = oracle_circuit(spec)
        assert len(circ.instructions) == 1
        (instr,) = circ.instructions
        assert instr.gate == "X" and len(instr.controls) == 3

    def test_zero_bits_are_trigger_values(self):
        spec = SearchSpec(4, "0110", 0.5, 1)
        (instr,) = oracle_circuit(spec).instructions
        assert instr.gate == "X" and instr.ctrl_state == (0, 1, 1, 0)
        assert [i.gate for i in q_circuit(spec).instructions] == ["X", "BOOST", "X"]

    def test_flips_oracle_exactly_on_target(self):
        spec = SearchSpec(3, "010", 0.7, 1)
        circ = oracle_circuit(spec)
        for idx in range(8):
            bits = [int(b) for b in f"{idx:03b}"]
            state = run(circ, basis_state(circ.layout, bits + [0, 0]))
            dist = observe(state)
            key = max(dist.probabilities, key=dist.probabilities.get)
            want_oracle = "1" if f"{idx:03b}" == "010" else "0"
            assert key == f"{idx:03b}" + want_oracle

    def test_involution(self):
        spec = SearchSpec(2, "01", 0.5, 1)
        O = to_matrix(oracle_circuit(spec))
        assert np.allclose(O @ O, np.eye(O.shape[0]), atol=1e-14)


class TestQCircuit:
    def test_chi_zero_is_identity(self):
        spec = SearchSpec(2, "10", 0.0, 1)
        Q = to_matrix(q_circuit(spec))
        assert np.allclose(Q, np.eye(Q.shape[0]), atol=1e-14)

    def test_boost_sits_between_oracles(self):
        spec = SearchSpec(2, "11", 1.25, 1)
        instrs = q_circuit(spec).instructions
        boosts = [i for i in instrs if i.gate == "BOOST"]
        assert len(boosts) == 1
        assert boosts[0].param == 1.25
        # n = 2: the oracle qubit is position 2, the hybit position 3
        assert boosts[0].targets == (3,)
        assert boosts[0].controls == (2,)


class TestRunSearch:
    def test_k0_uniform(self):
        spec = SearchSpec(4, "1010", 0.5, 0)
        dist = run_search(spec)
        assert len(dist.probabilities) == 16
        for p in dist.probabilities.values():
            assert p == pytest.approx(1 / 16, abs=1e-12)

    def test_oracle_qubit_fully_unwound(self):
        # Q^k returns the ancilla to |0>, so the |1_o> branch carries no mass
        spec = SearchSpec(3, "101", 1.0, 4)
        layout = search_layout(3)
        from lqc.circuit import Circuit

        prep = Circuit(
            layout, tuple(Instruction("H", (i,)) for i in range(3))
        )
        state = run(prep)
        q = q_circuit(spec)
        for _ in range(spec.k):
            state = run(q, state)
        full = observe(state)
        mass_1o = sum(p for key, p in full.probabilities.items() if key[3] == "1")
        assert mass_1o <= 1e-20

    @pytest.mark.parametrize("n", range(1, 13))
    def test_marginal_is_the_pair_sum_bit_for_bit(self, n, monkeypatch):
        # the oracle qubit's |1> branch is zero after Q^k, so a random
        # distribution over the n + 1 qubits stands in for the observed one:
        # every pair sum then adds two nonzero values
        rng = np.random.default_rng(n)
        probs = rng.random(2 ** (n + 1))
        full = OutcomeDistribution(probs / probs.sum(), 0.5)
        monkeypatch.setattr(search, "observe", lambda state: full)
        got = run_search(SearchSpec(n, "1" * n, 0.5, 1))
        want = full.probs.reshape(-1, 2).sum(axis=1)
        assert np.array_equal(got.probs.view(np.int64), want.view(np.int64))
        assert got.observable_mass == 0.5

    @pytest.mark.parametrize("chi", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_matches_prediction(self, n, chi):
        x = ("10" * n)[:n]
        for k in (0, 1, 3, 7):
            spec = SearchSpec(n, x, chi, k)
            dist = run_search(spec)
            want = predicted_success(2**n, chi, k)
            assert dist.probabilities[x] == pytest.approx(want, abs=1e-9)

    def test_off_target_uniform(self):
        spec = SearchSpec(5, "01101", 0.8, 3)
        dist = run_search(spec)
        px = dist.probabilities["01101"]
        rest = (1 - px) / (2**5 - 1)
        for key, p in dist.probabilities.items():
            if key != "01101":
                assert p == pytest.approx(rest, abs=1e-10)

    @pytest.mark.parametrize("k", range(6))
    def test_one_circuit_matches_round_by_round(self, k):
        # run_search runs prep + Q^k as one circuit; running each round on
        # the state the last one left gives bit-identical probabilities
        spec = SearchSpec(6, "011010", 0.7, k)
        layout = search_layout(6)
        from lqc.circuit import Circuit

        prep = Circuit(
            layout, tuple(Instruction("H", (i,)) for i in range(6))
        )
        state = run(prep)
        q = q_circuit(spec)
        for _ in range(k):
            state = run(q, state)
        want = observe(state).probs.reshape(-1, 2).sum(axis=1)
        assert np.array_equal(run_search(spec).probs, want)

    def test_pseudo_norm_preserved(self):
        spec = SearchSpec(4, "0110", 1.5, 6)
        layout = search_layout(4)
        from lqc.circuit import Circuit

        prep = Circuit(
            layout, tuple(Instruction("H", (i,)) for i in range(4))
        )
        state = run(prep)
        q = q_circuit(spec)
        for _ in range(spec.k):
            state = run(q, state)
        assert pseudo_norm(state) == pytest.approx(1.0, abs=1e-9)


class TestClosedForms:
    def test_predicted_n1(self):
        assert predicted_success(1, 0.5, 3) == 1.0

    def test_predicted_k0(self):
        assert predicted_success(1024, 0.5, 0) == pytest.approx(1 / 1024, rel=1e-15)

    @pytest.mark.parametrize("closed_form", [predicted_success, qk_amplitudes])
    def test_no_items_refused(self, closed_form):
        with pytest.raises(LqcError, match="positive item count"):
            closed_form(0, 0.5, 1)

    @pytest.mark.parametrize("k", [-3, 356, 711])
    def test_schedule_refused_as_the_spec_refuses_it(self, k):
        # cosh(k chi)^2 overflows a double from k = 356 at chi = 1, cosh(k chi)
        # from k = 711
        with pytest.raises(LqcError) as spec_error:
            SearchSpec(3, "101", 1.0, k)
        for closed_form in (predicted_success, qk_amplitudes):
            with pytest.raises(LqcError) as closed_error:
                closed_form(8, 1.0, k)
            assert type(closed_error.value) is type(spec_error.value)
            assert str(closed_error.value) == str(spec_error.value)

    @pytest.mark.parametrize("closed_form", [predicted_success, qk_amplitudes])
    def test_negative_chi_guarded_by_its_size(self, closed_form):
        with pytest.raises(GuardError, match="k\\*chi = 356 exceeds 300"):
            closed_form(8, -1.0, 356)
        assert all(math.isfinite(v) for v in np.atleast_1d(closed_form(8, -1.0, 300)))

    @pytest.mark.parametrize("closed_form", [predicted_success, qk_amplitudes])
    @pytest.mark.parametrize("chi", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("k", [0, 1])
    def test_non_finite_chi_refused(self, closed_form, chi, k):
        with pytest.raises(LqcError, match="chi must be finite"):
            closed_form(8, chi, k)

    @pytest.mark.parametrize("closed_form", [predicted_success, qk_amplitudes])
    def test_item_count_refused_first(self, closed_form):
        with pytest.raises(LqcError, match="positive item count"):
            closed_form(0, math.nan, -1)

    def test_qk_amplitudes_k0(self):
        c, s, u = qk_amplitudes(256, 0.5, 0)
        assert c == pytest.approx(1 / 16)
        assert s == 0.0
        assert u == pytest.approx(1 / 16)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_qk_amplitudes_match_state_vector(self, n):
        chi, k = 0.6, 3
        x = "1" * n
        spec = SearchSpec(n, x, chi, k)
        layout = search_layout(n)
        from lqc.circuit import Circuit

        prep = Circuit(
            layout, tuple(Instruction("H", (i,)) for i in range(n))
        )
        state = run(prep)
        q = q_circuit(spec)
        for _ in range(k):
            state = run(q, state)
        c, s, u = qk_amplitudes(2**n, chi, k)
        amps = state.amps
        # bit order: n search qubits, oracle, hybit; amplitudes are real here
        ix_marked_h0 = ((2**n - 1) << 2) | 0
        ix_marked_h1 = ((2**n - 1) << 2) | 1
        ix_other = 0
        assert amps[ix_marked_h0] == pytest.approx(c, abs=1e-12)
        assert amps[ix_marked_h1] == pytest.approx(s, abs=1e-12)
        assert amps[ix_other] == pytest.approx(u, abs=1e-12)

    def test_pseudo_norm_identity(self):
        # kept to moderate k*chi: cosh^2 - sinh^2 cancels catastrophically
        # in doubles once cosh^2 passes ~1e7
        for N, chi, k in [(16, 0.5, 4), (1024, 0.25, 20), (4, 1.0, 7)]:
            c, s, u = qk_amplitudes(N, chi, k)
            assert (N - 1) * u**2 + c**2 - s**2 == pytest.approx(1.0, abs=1e-9)


class TestChooseK:
    def test_smallest_k_direct(self):
        k = choose_k(1024, 0.5, 0.99)
        assert predicted_success(1024, 0.5, k) >= 0.99
        assert predicted_success(1024, 0.5, k - 1) < 0.99

    def test_value_1024(self):
        # arccosh(sqrt(.99*1023/.01))/0.5 = 12.91..., so 13 rounds suffice
        assert choose_k(1024, 0.5, 0.99) == 13

    def test_pmin_below_uniform(self):
        assert choose_k(256, 0.5, 1 / 256) == 0
        assert choose_k(256, 0.5, 1 / 300) == 0

    def test_no_items_refused(self):
        with pytest.raises(LqcError, match="positive item count"):
            choose_k(0, 0.5, 0.99)

    def test_bad_pmin(self):
        with pytest.raises(LqcError):
            choose_k(16, 0.5, 0.0)
        with pytest.raises(LqcError):
            choose_k(16, 0.5, 1.0)

    @pytest.mark.parametrize("chi", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("p_min", [0.99, 0.1])
    def test_non_finite_chi(self, chi, p_min):
        # k*chi is nan at every k, so neither nudge loop nor the k*chi guard
        # would run; below 1/N the answer would be 0 without looking at chi
        with pytest.raises(LqcError, match="finite"):
            choose_k(8, chi, p_min)

    def test_overflow_guard(self):
        # k*chi tracks arccosh(sqrt(N)), so only astronomically large N trips it
        with pytest.raises(GuardError):
            choose_k(2**900, 1.0, 0.99)

    def test_round_guard_on_estimate(self):
        # 1e-320 / chi is inf, which math.ceil refuses with OverflowError; a
        # finite estimate past the guard is refused before any round is counted
        # (the CLI tests run the hanging cases under a timeout)
        with pytest.raises(GuardError, match="rounds"):
            choose_k(8, 1e-320, 0.99)

    def test_minimality_sweep(self):
        for N in (2, 16, 100, 4096):
            for chi in (0.3, 0.5, 1.0):
                for p_min in (0.5, 0.9, 0.999):
                    k = choose_k(N, chi, p_min)
                    assert predicted_success(N, chi, k) >= p_min
                    if k > 0:
                        assert predicted_success(N, chi, k - 1) < p_min

    @staticmethod
    def smallest_k(N, chi, p_min):
        k = 0
        while predicted_success(N, chi, k) < p_min:
            k += 1
        return k

    @staticmethod
    def closed_form(N, chi, p_min):
        return math.ceil(math.acosh(math.sqrt(p_min * (N - 1) / (1.0 - p_min))) / chi)

    @pytest.mark.parametrize("N, chi, closed, answer", [
        # the closed form overshoots by one: the k -= 1 nudge runs
        (4, float.fromhex("0x1.873dde30b84f2p-2"), 4, 3),
        # the closed form falls one short: the k += 1 nudge runs
        (8, float.fromhex("0x1.885381c38f2c4p-4"), 17, 18),
    ])
    def test_nudge_past_the_closed_form(self, N, chi, closed, answer):
        assert self.closed_form(N, chi, 0.5) == closed
        assert choose_k(N, chi, 0.5) == self.smallest_k(N, chi, 0.5) == answer

    def test_boundary_rapidities(self):
        # chi = arccosh(target)/k and its float neighbours put k*chi on the
        # boundary, where the closed form misses by one both ways
        misses = set()
        for N in (4, 8, 64, 1000, 2**20, 2**40):
            for p_min in (0.5, 0.9, 0.99):
                edge = math.acosh(math.sqrt(p_min * (N - 1) / (1.0 - p_min)))
                for k in range(1, 25):
                    for chi in (math.nextafter(edge / k, 0), edge / k,
                                math.nextafter(edge / k, 1)):
                        answer = self.smallest_k(N, chi, p_min)
                        assert choose_k(N, chi, p_min) == answer
                        misses.add(self.closed_form(N, chi, p_min) - answer)
        assert misses == {-1, 0, 1}

    def test_doubling_slope(self):
        # cosh^2(k chi) must track N, so k chi grows like arccosh(sqrt(N)):
        # half a ln(2) per doubling, i.e. steps of floor/ceil of ln2/(2 chi)
        chi = 0.5
        lo = math.floor(math.log(2) / (2 * chi))
        hi = math.ceil(math.log(2) / (2 * chi))
        steps = []
        for e in range(4, 21):
            steps.append(choose_k(2**e, chi, 0.9))
        for a, b in zip(steps, steps[1:]):
            assert lo <= b - a <= hi
        # total growth over 16 doublings matches the log-N law
        assert steps[-1] - steps[0] == pytest.approx(16 * math.log(2) / (2 * chi), abs=2)
