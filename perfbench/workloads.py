"""The four workloads: how each cycle of ops is generated and how each op's
output is checked against the reference code.

An op is one or two in-process `lqc` CLI calls. `execute` runs the calls
(timed by the caller); `check` runs afterwards, untimed, and returns a
mismatch message or None plus facts about the output that per-layer metrics
aggregate.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import ref

EPS_RECON = 1e-8
# agreement asked of printed errors and probabilities that the reference
# recomputes in a different order of floating-point operations
PRINT_TOL = 1e-10
SHOTS = 100_000
# per-outcome sample bound |c - n p| <= Z sd + Z^2 (Bernstein form); with
# 2^18 outcomes a correct sampler trips it with probability below 1e-5
SAMPLE_Z = 7.0

SEARCH_SIZES = (14, 15, 16)
SEARCH_CHI = 0.5
SEARCH_PMIN = 0.99

SYNTH_LAYOUTS = ("qqqq", "qqqh", "qqhh", "qhhh", "qqqqq", "qqqqh")
APPROX_LAYOUTS = ("qq", "qh", "hh")
APPROX_SYNTH_TOL = 0.05
APPROX_WORD_TOL = 1e-3
APPROX_WORDS = (("qubit", 16), ("hybit", 16), ("qubit", 20), ("hybit", 20))


@dataclass
class Result:
    code: int
    out: str
    err: str


@dataclass
class Op:
    """`name` is the op type (command plus size or layout); every cycle of
    a workload holds one op of each type."""

    name: str
    execute: Callable[[Callable[[list], Result]], list]
    check: Callable[[list], tuple]


@dataclass
class Outcome:
    op: Op
    seconds: float
    codes: list
    mismatch: str | None
    facts: dict = field(default_factory=dict)
    # host-speed probe time around the op (run.calibration_seconds)
    calibration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.mismatch is None and all(c == 0 for c in self.codes)


def _field(text: str, name: str) -> str:
    m = re.search(rf"^{re.escape(name)} = (.*)$", text, re.MULTILINE)
    if m is None:
        raise ValueError(f"no '{name} = ' line")
    return m.group(1)


def _single(args: list) -> Callable:
    return lambda call: [call(args)]


def _ir_size(circuit: ref.Circuit) -> int:
    # the parser expands each `!` control into an X before and after
    return sum(1 + 2 * sum(1 for _, v in ctrl if v == 0) for _, _, ctrl in circuit.ops)


# ---------------------------------------------------------------------------
# sim


def sim_cycle(workdir: Path, rng: np.random.Generator, index: int) -> list[Op]:
    text = gen.sim_circuit(rng)
    path = workdir / f"sim{index}.lqc"
    path.write_text(text)
    circuit = ref.parse(text)
    probs, mass = ref.observe(ref.simulate(circuit), circuit.num_qubits, circuit.num_hybits)
    nq, emitted = circuit.num_qubits, _ir_size(circuit)
    seed = int(rng.integers(2**31))

    def check_run(results):
        out = results[0].out
        got_mass = float(_field(out, "# observable_mass"))
        if abs(got_mass - mass) > PRINT_TOL * max(1.0, mass):
            return f"observable mass {got_mass!r} != reference {mass!r}", {}
        got = _keyed(out.splitlines()[1:], nq, float)
        worst = float(np.max(np.abs(got - probs)))
        if worst > PRINT_TOL:
            return f"probability off by {worst:.3g}", {}
        return None, {"emitted": emitted}

    def check_sample(results):
        counts = _keyed(results[0].out.splitlines(), nq, int)
        if counts.sum() != SHOTS:
            return f"counts sum to {counts.sum()}, not {SHOTS}", {}
        expect = SHOTS * probs
        sd = np.sqrt(expect * (1.0 - probs))
        excess = np.abs(counts - expect) - (SAMPLE_Z * sd + SAMPLE_Z**2)
        if np.max(excess) > 0:
            at = int(np.argmax(excess))
            return f"count {counts[at]} at {at:0{nq}b} is outside the bound of {expect[at]:.1f}", {}
        return None, {"emitted": emitted}

    return [
        Op("run", _single(["run", str(path)]), check_run),
        Op(
            "sample",
            _single(["sample", str(path), "--shots", str(SHOTS), "--seed", str(seed)]),
            check_sample,
        ),
    ]


def _keyed(lines: list[str], nq: int, cast) -> np.ndarray:
    """`bitstring TAB value` lines as a dense array over qubit indices."""
    out = np.zeros(1 << nq)
    if lines:
        keys, values = zip(*(line.split("\t") for line in lines))
        if any(len(k) != nq for k in keys) or len(set(keys)) != len(keys):
            raise ValueError("malformed or repeated bitstring keys")
        out[[int(k, 2) for k in keys]] = [cast(v) for v in values]
    return out


# ---------------------------------------------------------------------------
# search


def search_cycle(workdir: Path, rng: np.random.Generator, index: int) -> list[Op]:
    ops = []
    for n in SEARCH_SIZES:
        x = gen.bitstring(rng, n)
        N = 1 << n
        k_min = ref.minimal_rounds(N, SEARCH_CHI, SEARCH_PMIN)
        emitted = n + 2 * (2 * x.count("0") + 1) + 1

        def check(results, N=N, k_min=k_min, emitted=emitted):
            out = results[0].out
            k = int(_field(out, "k"))
            if k != k_min:
                return f"k = {k}, minimal round count is {k_min}", {}
            closed = ref.predicted_success(N, SEARCH_CHI, k)
            simulated = float(_field(out, "simulated"))
            if abs(simulated - closed) > 1e-9:
                return f"simulated {simulated!r} vs closed form {closed!r}", {}
            return None, {"emitted": emitted}

        ops.append(Op(f"search:n={n}", _single(["search", "--n", str(n), "--x", x]), check))
    return ops


# ---------------------------------------------------------------------------
# synth


def _synth_args(path: Path, layout: str) -> list[str]:
    return ["synth", str(path), "--qubits", str(layout.count("q")), "--hybits", str(layout.count("h"))]


def _circuit_facts(circuit: ref.Circuit, layout: str) -> dict:
    ctrl = Counter(min(len(c), 4) for _, _, c in circuit.ops)
    facts = {f"gates.{layout}": len(circuit.ops), "emitted": len(circuit.ops)}
    facts.update({f"ctrl{c}": ctrl.get(c, 0) for c in range(5)})
    facts["X"] = circuit.names.count("X")
    return facts


def synth_cycle(workdir: Path, rng: np.random.Generator, index: int) -> list[Op]:
    ops = []
    for layout in SYNTH_LAYOUTS:
        A = gen.random_isometry(layout, rng)
        mat = workdir / f"synth{index}_{layout}.mat"
        mat.write_text(gen.matrix_text(A, layout))
        emitted_path = workdir / f"synth{index}_{layout}.lqc"

        def execute(call, mat=mat, layout=layout, emitted_path=emitted_path):
            first = call(_synth_args(mat, layout) + ["--exact"])
            if first.code != 0:
                return [first]
            emitted_path.write_text(first.out)
            return [first, call(["verify", str(emitted_path)])]

        def check(results, A=A, layout=layout):
            circuit = ref.parse(results[0].out)
            err = float(np.max(np.abs(ref.circuit_matrix(circuit) - A)))
            if err > EPS_RECON:
                return f"emitted circuit misses the input by {err:.3g}", {}
            if results[1].out.splitlines()[-1] != "PASS":
                return "verify did not print PASS", {}
            return None, _circuit_facts(circuit, layout)

        ops.append(Op(f"synth:{layout}", execute, check))
    return ops


# ---------------------------------------------------------------------------
# approx


def approx_cycle(workdir: Path, rng: np.random.Generator, index: int) -> list[Op]:
    ops = []
    for layout in APPROX_LAYOUTS:
        A = gen.random_isometry(layout, rng)
        mat = workdir / f"approx{index}_{layout}.mat"
        mat.write_text(gen.matrix_text(A, layout))

        def check_synth(results, A=A, layout=layout):
            circuit = ref.parse(results[0].out)
            err = ref.projective_distance(A, ref.circuit_matrix(circuit))
            printed = float(_field(results[0].err, "reconstruction_error"))
            if abs(err - printed) > 1e-9 * max(1.0, float(np.max(np.abs(A))) ** 2):
                return f"printed error {printed!r}, recomputed {err!r}", {}
            facts = _circuit_facts(circuit, layout)
            facts["approx_err"] = err
            return None, facts

        args = _synth_args(mat, layout) + ["--approx", str(APPROX_SYNTH_TOL)]
        ops.append(Op(f"synth_approx:{layout}", _single(args), check_synth))

    for kind, depth in APPROX_WORDS:
        target = gen.random_isometry(kind[0], rng)
        mat = workdir / f"approx{index}_{kind}{depth}.mat"
        mat.write_text(gen.matrix_text(target, kind[0]))

        def check_word(results, target=target, kind=kind):
            out = results[0].out
            letters = _field(out, "word").split()
            if letters == ["<empty>"]:
                letters = []
            err = ref.projective_distance(target, ref.word_matrix(letters, kind))
            printed = float(_field(out, "projective_error"))
            if abs(err - printed) > PRINT_TOL * max(1.0, err):
                return f"printed error {printed!r}, recomputed {err!r}", {}
            if (_field(out, "tol_met") == "true") != (printed < APPROX_WORD_TOL):
                return "tol_met disagrees with the printed error", {}
            return None, {"approx_err": err}

        args = [
            "approx", str(mat), "--kind", kind,
            "--tol", str(APPROX_WORD_TOL), "--depth", str(depth),
        ]
        ops.append(Op(f"approx:{kind}{depth}", _single(args), check_word))
    return ops


WORKLOADS = {
    "sim": sim_cycle,
    "search": search_cycle,
    "synth": synth_cycle,
    "approx": approx_cycle,
}

# op seconds of one cycle on the reference host (the median sum over op types
# of the scaled per-type medians, perfbench/README.md); a run holds the
# number of whole cycles that fills --seconds there
CYCLE_SECONDS = {
    "sim": 7.3,
    "search": 5.1,
    "synth": 7.4,
    "approx": 12.2,
}
