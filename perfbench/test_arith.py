"""Fast checks of the benchmark's own arithmetic and generators, on
synthetic timings. Run with: python3 -m pytest perfbench -q"""

import math

import numpy as np
import pytest

import arith
import gen
import ref
import spans


def test_percentile_counts_failed_ops_as_infinitely_slow():
    latencies = [0.1, 0.2, 0.3, 5.0]
    assert arith.percentile(latencies, 50, [True] * 4) == pytest.approx(0.25)
    # failing the fastest op moves the median up one rank
    assert arith.percentile(latencies, 50, [False, True, True, True]) == pytest.approx(2.65)
    assert arith.percentile([0.1, 0.2, 0.3], 50, [False, True, True]) == 0.3
    # once a failure reaches the middle, the median is infinite
    assert arith.percentile(latencies, 50, [True, False, False, True]) == math.inf
    assert arith.percentile(latencies, 50, [True, True, False, False]) == math.inf
    assert arith.percentile(latencies, 25, [True, True, False, False]) == pytest.approx(0.175)
    assert arith.percentile([0.4], 99, [True]) == 0.4
    # without flags every op counts at its measured time
    assert arith.percentile([0.3, 0.1, 0.2], 50) == 0.2


def test_percentile_rejects_mismatched_flags():
    with pytest.raises(ValueError):
        arith.percentile([0.1, 0.2], 50, [True])


def test_goodput_keeps_failed_time_in_the_denominator():
    types = ["a", "b", "c"]
    assert arith.goodput([1.0, 1.0, 2.0], [True, True, True], types) == pytest.approx(0.75)
    # the failed op adds 2 s of time and no success
    assert arith.goodput([1.0, 1.0, 2.0], [True, True, False], types) == pytest.approx(0.5)
    # turning that failure into a success can only raise goodput
    assert arith.goodput([1.0, 1.0, 3.0], [True, True, True], types) > 0.5


def test_goodput_takes_medians_per_op_type():
    types = ["a", "b"] * 3
    latencies = [1.0, 3.0, 1.0, 3.0, 1.0, 9.0]
    # type b nearly always fails; one lucky pass and one slow op change nothing
    ok = [True, False, True, True, True, False]
    assert arith.goodput(latencies, ok, types) == pytest.approx(1 / 4)


def test_median_of_medians_ignores_the_gap_between_op_types():
    # three fast ops of one type, three slow of another: the plain median
    # sits between the types, the median of type medians averages them
    times = [0.1, 0.12, 0.5, 1.0, 1.1, 3.0]
    types = ["a", "a", "a", "b", "b", "b"]
    assert arith.median_of_medians(times, types) == pytest.approx((0.12 + 1.1) / 2)
    assert arith.median_of_medians([2.0, 1.0, 3.0], ["x", "x", "x"]) == 2.0


def test_kernel_bytes_per_gate_class():
    n = 20
    assert arith.kernel_bytes(1 << n, 0) == 2 * 16 * 2**n
    for c in (1, 2, 3):
        assert arith.kernel_bytes(1 << n, c) == 2 * 16 * 2 ** (n - c)
    # batch axes (to_matrix runs on dim x dim) count like register axes
    assert arith.kernel_bytes(32 * 32, 1) == 2 * 16 * 512


def test_bandwidth_fraction():
    assert arith.bandwidth_fraction(4e9, 2.0, 4e9) == pytest.approx(0.5)
    assert arith.bandwidth_fraction(1.0, 0.0, 4e9) == 0.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_span_minus_child_spans():
    # main [0, 10] holds parse [1, 3] and run [4, 9]; run holds apply [5, 6]
    t = spans.Tracer(FakeClock([0, 1, 3, 4, 5, 6, 9, 10]))
    t.enter("main")
    t.enter("parse")
    t.exit()
    t.enter("run")
    t.enter("apply")
    t.exit()
    t.exit()
    t.exit()
    assert t.total("main") == 10
    assert t.self_time("main") == 10 - 2 - 5
    assert t.self_time("run") == 5 - 1
    assert t.self_time("parse") == t.total("parse") == 2
    assert t.calls("apply") == 1 and t.calls("missing") == 0


@pytest.mark.parametrize("kinds", ["q", "h", "qh", "qqqh", "qqhh", "qhhh", "qqqqq", "qqqqh", "qqhhhh"])
def test_generated_isometries_preserve_the_register_metric(kinds):
    signs = gen.metric_signs(kinds)
    A = gen.random_isometry(kinds, np.random.default_rng(7))
    resid = np.max(np.abs((A.conj().T * signs) @ A - np.diag(signs)))
    assert resid <= gen.EPS_ISO


def test_metric_signs_interleave_for_a_trailing_hybit():
    assert list(gen.metric_signs("qh")) == [1, -1, 1, -1]
    assert list(gen.metric_signs("hq")) == [1, 1, -1, -1]


def test_generators_are_seeded():
    a = gen.sim_circuit(np.random.default_rng(3))
    assert a == gen.sim_circuit(np.random.default_rng(3))
    assert a != gen.sim_circuit(np.random.default_rng(4))


def test_sim_circuit_gate_mix():
    text = gen.sim_circuit(np.random.default_rng(0), lines=2000)
    circuit = ref.parse(text)
    assert circuit.num_qubits == gen.SIM_QUBITS and circuit.num_hybits == gen.SIM_HYBITS
    assert "CZ" not in circuit.names
    ctrl = sum(1 for _, _, c in circuit.ops if c)
    assert all(1 <= len(c) <= 3 for _, _, c in circuit.ops if c)
    assert abs(ctrl / len(circuit.ops) - 0.2) < 0.03
    assert "!q" in text


def test_reference_kernel_matches_dense_controlled_gate():
    # CTRL !q0 : H q1 on two qubits is H on q1 where q0 = 0
    circuit = ref.parse("qubits 2\nCTRL !q0 : H q1\n")
    want = np.eye(4, dtype=complex)
    want[:2, :2] = ref.FIXED["H"]
    assert np.allclose(ref.circuit_matrix(circuit), want)


def test_search_targets_have_half_zeros():
    rng = np.random.default_rng(5)
    for n in (14, 15, 16):
        x = gen.bitstring(rng, n)
        assert len(x) == n and x.count("0") == n // 2


def test_minimal_rounds_reaches_p_min():
    N = 1 << 14
    k = ref.minimal_rounds(N, 0.5, 0.99)
    assert ref.predicted_success(N, 0.5, k) >= 0.99 > ref.predicted_success(N, 0.5, k - 1)
