"""The benchmark's reference reader still reads what the package writes.

`perfbench/ref.py` parses the `.lqc` text that `lqc synth` prints and
checks it against the input isometry; it reads only the subset the package
writes today (for example, DEFGATEs on one bit). `gen.py`, `ref.py` and
`workloads.py` are imported here as they are, so that a change to what
`serialize` or `compile` emits fails this test instead of every `synth` op
of a benchmark run.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import perfbench_modules
from lqc.circuit import parse, serialize
from lqc.core import RegisterLayout
from lqc.synthesis import compile

gen, ref, workloads = perfbench_modules("gen", "ref", "workloads")


@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("layout", workloads.SYNTH_LAYOUTS + workloads.APPROX_LAYOUTS)
def test_reader_rebuilds_synthesized_isometry(layout, seed):
    A = gen.random_isometry(layout, np.random.default_rng(seed))
    text = serialize(compile(A, RegisterLayout(layout)).circuit)
    err = float(np.max(np.abs(ref.circuit_matrix(ref.parse(text)) - A)))
    assert err <= workloads.EPS_RECON


def test_reader_sees_the_same_sim_circuit_after_a_round_trip():
    text = gen.sim_circuit(np.random.default_rng(41))
    want, got = ref.parse(text), ref.parse(serialize(parse(text)))
    assert (got.num_qubits, got.num_hybits) == (want.num_qubits, want.num_hybits)
    assert got.names == want.names
    assert len(got.ops) == len(want.ops)
    for (gm, gt, gc), (wm, wt, wc) in zip(got.ops, want.ops):
        assert (gt, gc) == (wt, wc)
        assert np.array_equal(gm, wm)
