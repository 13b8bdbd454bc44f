import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqc.core import (
    BitKind,
    LqcError,
    RegisterLayout,
    StateVector,
    basis_state,
    encode_bits,
    metric_for_kinds,
    metric_vector,
    pseudo_norm,
)


PER_BIT_METRIC = {"q": np.array([1.0, 1.0]), "h": np.array([1.0, -1.0])}


def kron_metric(kinds):
    """Independent oracle: explicit Kronecker product of per-bit metrics."""
    eta = np.array([1.0])
    for kind in kinds:
        eta = np.kron(eta, PER_BIT_METRIC[BitKind(kind).value])
    return eta


layouts_strategy = st.lists(st.sampled_from("qh"), min_size=1, max_size=10).map(
    lambda ks: RegisterLayout(tuple(ks))
)


class TestMetricSign:
    """The sign of each basis index, read from `metric_vector`."""

    def test_no_hybit_set(self):
        layout = RegisterLayout.of(1, 1)
        assert metric_vector(layout)[encode_bits(layout, [0, 0])] == 1

    def test_both_set_qubit_hybit(self):
        # |1,1bar> carries one hybit excitation, so the sign is -1
        layout = RegisterLayout.of(1, 1)
        assert metric_vector(layout)[encode_bits(layout, [1, 1])] == -1

    def test_two_hybits_both_set(self):
        # diag(1,-1) x diag(1,-1) has +1 at entry (3,3)
        layout = RegisterLayout.of(0, 2)
        assert metric_vector(layout)[encode_bits(layout, [1, 1])] == 1

    def test_out_of_range(self):
        # one sign per basis index and none beyond
        layout = RegisterLayout.of(1, 0)
        assert metric_vector(layout).shape == (layout.dimension,)
        with pytest.raises(IndexError):
            metric_vector(layout)[2]

    @given(layouts_strategy)
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_kron_oracle(self, layout):
        assert np.array_equal(metric_vector(layout), kron_metric(layout.kinds))


class TestPseudoNorm:
    def test_single_hybit(self):
        layout = RegisterLayout.of(0, 1)
        state = StateVector(layout, np.array([np.sqrt(2), 1.0]))
        assert pseudo_norm(state) == pytest.approx(1.0, abs=1e-14)

    def test_single_qubit(self):
        layout = RegisterLayout.of(1, 0)
        state = StateVector(layout, np.array([1, 1]) / np.sqrt(2))
        assert pseudo_norm(state) == pytest.approx(1.0, abs=1e-14)

    def test_cancellation(self):
        layout = RegisterLayout.of(1, 1)
        state = StateVector(layout, np.ones(4))
        assert pseudo_norm(state) == pytest.approx(0.0, abs=1e-14)

    @given(layouts_strategy)
    @settings(max_examples=30, deadline=None)
    def test_matches_quadratic_form(self, layout):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        state = StateVector(layout, amps)
        eta = kron_metric(layout.kinds)
        expected = float(np.real(np.conj(amps) @ (eta * amps)))
        assert pseudo_norm(state) == pytest.approx(expected, abs=1e-10)


class TestStateVector:
    @pytest.mark.parametrize("shape", [(3,), (4, 1), (2, 2, 2), (8,)])
    def test_wrong_shape_refused(self, shape):
        # a flat array of 2^n amplitudes or a [2]*n tensor, nothing else
        layout = RegisterLayout.of(1, 1)
        assert StateVector(layout, np.zeros((2, 2))).amps.shape == (4,)
        with pytest.raises(ValueError, match="expected"):
            StateVector(layout, np.zeros(shape))


class TestBasisState:
    def test_all_zero(self):
        state = basis_state(RegisterLayout.of(1, 1), [0, 0])
        assert np.array_equal(state.amps, [1, 0, 0, 0])

    def test_big_endian_index(self):
        # bit 0 is the most significant bit, so (1,0) lands on index 2
        state = basis_state(RegisterLayout.of(2, 0), [1, 0])
        assert state.amps[2] == 1.0 and np.count_nonzero(state.amps) == 1

    def test_hybit_one_has_negative_norm(self):
        state = basis_state(RegisterLayout.of(0, 1), [1])
        assert pseudo_norm(state) == pytest.approx(-1.0, abs=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            basis_state(RegisterLayout.of(2, 0), [0])

    def test_entry_not_a_bit(self):
        with pytest.raises(ValueError, match="0 or 1"):
            basis_state(RegisterLayout.of(2, 0), [2, 0])

    def test_accepts_string(self):
        state = basis_state(RegisterLayout.of(2, 0), "01")
        assert state.amps[1] == 1.0

    @given(layouts_strategy)
    @settings(max_examples=30, deadline=None)
    def test_norm_equals_metric_sign(self, layout):
        rng = np.random.default_rng(layout.num_bits)
        bits = rng.integers(0, 2, size=layout.num_bits)
        state = basis_state(layout, list(bits))
        idx = encode_bits(layout, bits)
        assert pseudo_norm(state) == float(metric_vector(layout)[idx])


class TestLayout:
    def test_of_counts(self):
        layout = RegisterLayout.of(2, 1)
        assert layout.num_qubits == 2
        assert layout.num_hybits == 1
        assert layout.dimension == 8

    @pytest.mark.parametrize("counts", [(-1, 0), (0, -1)])
    def test_negative_counts_refused(self, counts):
        with pytest.raises(ValueError, match="nonnegative"):
            RegisterLayout.of(*counts)

    @pytest.mark.parametrize("position", [-1, 3])
    def test_bit_weight_out_of_range(self, position):
        layout = RegisterLayout.of(2, 1)
        assert [layout.bit_weight(p) for p in range(3)] == [4, 2, 1]
        with pytest.raises(IndexError, match="out of range"):
            layout.bit_weight(position)

    def test_interleaved_accepted(self):
        layout = RegisterLayout((BitKind.HYBIT, BitKind.QUBIT))
        # hybit is bit 0, the MSB: indices 2 and 3 carry its excitation
        assert metric_vector(layout).tolist() == [1, 1, -1, -1]

    def test_string_coercion(self):
        layout = RegisterLayout(("q", "h"))
        assert layout.kinds == (BitKind.QUBIT, BitKind.HYBIT)

    def test_position_tables(self):
        layout = RegisterLayout("hqqhq")
        assert layout.positions(BitKind.QUBIT) == (1, 2, 4)
        assert layout.positions(BitKind.HYBIT) == (0, 3)
        assert layout.hybit_index_mask == 0b10010
        assert (layout.num_qubits, layout.num_hybits) == (3, 2)

    @given(layouts_strategy)
    @settings(max_examples=40, deadline=None)
    def test_tables_agree_with_kinds(self, layout):
        for kind in BitKind:
            places = tuple(p for p, k in enumerate(layout.kinds) if k is kind)
            assert layout.positions(kind) == places

    def test_tables_leave_identity_to_kinds(self):
        a = RegisterLayout("qhq")
        b = RegisterLayout((BitKind.QUBIT, BitKind.HYBIT, BitKind.QUBIT))
        assert a == b and hash(a) == hash(b)
        assert a != RegisterLayout("qqh")
        assert repr(a) == (
            "RegisterLayout(kinds=(<BitKind.QUBIT: 'q'>, <BitKind.HYBIT: 'h'>, "
            "<BitKind.QUBIT: 'q'>))"
        )
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a)
        assert c.positions(BitKind.HYBIT) == (1,)


class TestMetricForKinds:
    @pytest.mark.parametrize("nbits", range(1, 7))
    def test_matches_kron_reference(self, nbits):
        for kinds in itertools.product("qh", repeat=nbits):
            got = metric_for_kinds("".join(kinds))
            assert got.shape == (1 << nbits,)
            assert np.array_equal(got, kron_metric(kinds))

    def test_empty_list_is_the_scalar_one(self):
        assert np.array_equal(metric_for_kinds([]), [1])

    def test_accepts_kinds_and_letters(self):
        assert np.array_equal(
            metric_for_kinds([BitKind.HYBIT, BitKind.QUBIT]), metric_for_kinds("hq")
        )

    def test_metric_vector_is_the_metric_of_the_kinds(self):
        layout = RegisterLayout("qhhqh")
        assert np.array_equal(metric_vector(layout), metric_for_kinds(layout.kinds))
        assert metric_vector(layout).dtype == np.int8
