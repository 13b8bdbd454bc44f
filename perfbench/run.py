"""lqc benchmark: closed-loop, single-client workloads over the `lqc` CLI.

    python3 perfbench/run.py --workload {sim,search,synth,approx,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; lqc is imported from its `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads; the CLI reads LQC_THREADS too
THREADS = "1"
os.environ["LQC_THREADS"] = THREADS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np

import arith
import spans
from workloads import APPROX_LAYOUTS, CYCLE_SECONDS, SYNTH_LAYOUTS, WORKLOADS, Outcome, Result

SETUP_REPEATS = 5
CALIBRATION_LOOPS = 300_000
# median of calibration_seconds() on the reference host (the 2-core Xeon of
# perfbench/README.md) while the workloads ran
NOMINAL_CALIBRATION_S = 0.0175
IMPORTTIME_REPEATS = 3
EXIT_UNCAUGHT = -1

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def import_lqc():
    """Import lqc.cli from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import lqc.cli
    except ImportError as e:
        sys.stderr.write(f"error: cannot import lqc from {SRC}: {e}\n")
        sys.exit(2)
    if Path(lqc.cli.__file__).resolve().parents[1] != SRC.resolve():
        sys.stderr.write(f"error: lqc was imported from {lqc.cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return lqc.cli


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_seconds(repeats: int) -> float:
    """Median wall time from spawning a fresh interpreter until
    `import lqc.cli` returns in it (CLOCK_MONOTONIC is shared by processes),
    scaled to the reference host like the op times. One untimed import
    first compiles the bytecode caches."""
    code = "import time, lqc.cli; print(time.monotonic())"
    samples = []
    for i in range(repeats + 1):
        before = calibration_seconds()
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        took = float(done.stdout.split()[-1]) - start
        if i:
            samples.append(host_seconds(took, (before + calibration_seconds()) / 2))
    return statistics.median(samples)


def scipy_import_seconds(repeats: int) -> float:
    """Median cumulative `scipy.linalg` import time under -X importtime."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lqc.cli"], env=_child_env(),
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        cumulative = 0.0
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
                cumulative = float(parts[1]) * 1e-6
        samples.append(cumulative)
    return statistics.median(samples)


def copy_bytes_per_s() -> float:
    """Computed bytes per second of a 16 MiB complex128 copy (read + write)."""
    src = np.ones(1 << 20, dtype=complex)
    dst = np.empty_like(src)
    samples = []
    for _ in range(21):
        start = time.perf_counter()
        np.copyto(dst, src)
        samples.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(samples)


def make_call(cli):
    def call(argv: list) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = EXIT_UNCAUGHT
        return Result(code, out.getvalue(), err.getvalue())

    return call


def timed(op, call) -> Outcome:
    start = time.perf_counter()
    results = op.execute(call)
    took = time.perf_counter() - start
    codes = [r.code for r in results]
    mismatch, facts = None, {}
    if all(c == 0 for c in codes):
        try:
            mismatch, facts = op.check(results)
        except (ValueError, IndexError, KeyError) as e:
            mismatch = f"unreadable output: {e!r}"
    else:
        last = (results[-1].err.strip() or results[-1].out.strip()).splitlines()
        facts = {"error": last[-1] if last else ""}
    return Outcome(op, took, codes, mismatch, facts)


def warm_up(op, call) -> None:
    """Run the first op of a run once, untimed and unchecked. The first free
    of a large array raises glibc's mmap threshold, after which big arrays
    come from heap pages that are already mapped; only later ops show that
    steady state."""
    op.execute(call)


def cycle_count(workload: str, seconds: float) -> int:
    """Whole cycles that fill `seconds` of op time on the reference host.
    The count, and with it every input and every failure, follows from the
    seed and `seconds` alone, so repeated runs of one seed attempt the same
    ops and fail the same ones."""
    return max(1, math.ceil(seconds / CYCLE_SECONDS[workload]))


def measure(cycle, cycles: int, workdir: Path, rng, call, tracer=None):
    """`cycles` whole cycles of ops, one after the other. Given a tracer,
    every op also runs under it, before or after its untraced run in
    alternating order, so that drift and cache warmth cancel out of the
    overhead. Returns (untraced, traced) outcomes."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []

    def run_traced(op):
        with spans.installed(tracer):
            traced.append(timed(op, call))

    for index in range(cycles):
        for op in cycle(workdir, rng, index):
            if not plain:
                warm_up(op, call)
            traced_first = tracer is not None and len(plain) % 2 == 1
            if traced_first:
                run_traced(op)
            before = calibration_seconds()
            plain.append(timed(op, call))
            plain[-1].calibration_s = (before + calibration_seconds()) / 2
            if tracer is not None and not traced_first:
                run_traced(op)
    return plain, traced


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: the host-speed probe. On a shared
    host the same op varies by 15-25% from one minute to the next, and this
    loop slows down with it."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return time.perf_counter() - start


def host_seconds(seconds: float, calibration_s: float) -> float:
    """Measured seconds scaled to the reference host's speed."""
    return seconds * NOMINAL_CALIBRATION_S / calibration_s


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict:
    """Op times are scaled to the reference host by the probe run just
    before and after each op. ops_per_s and op_p50_s take medians per op
    type (see arith). Every attempted op counts at its measured time: most
    synth ops fail today, so a median with failures counted as infinitely
    slow is infinite there (it is printed as a comment line)."""
    if not any(o.ok for o in outcomes):
        raise SystemExit("error: no op succeeded")
    scaled = [host_seconds(o.seconds, o.calibration_s) for o in outcomes]
    types = [o.op.name for o in outcomes]
    return {
        "setup_s": setup_s,
        "ops_per_s": arith.goodput(scaled, [o.ok for o in outcomes], types),
        "op_p50_s": arith.median_of_medians(scaled, types),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def _mean_fact(outcomes: list[Outcome], key: str) -> float:
    values = [o.facts[key] for o in outcomes if key in o.facts]
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer: spans.Tracer, traced: list[Outcome], every: list[Outcome],
              copy_bps: float, scipy_s: float, overhead: float) -> dict:
    """Per-layer metrics. Times and counts are per op of the traced pass
    unless the name says per call; exit counts cover both passes."""
    n = len(traced)
    t, c = tracer, tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for cls in spans.GATE_CLASSES:
        span = f"simulator.apply.{cls}"
        calls, busy = t.calls(span), t.total(span)
        m[f"simulator.apply.calls.{cls}"] = (calls / n, "count")
        m[f"simulator.apply.busy_s.{cls}"] = (busy / n, "s")
        m[f"simulator.apply.per_call_s.{cls}"] = (busy / calls if calls else 0.0, "s")
        frac = arith.bandwidth_fraction(c[f"simulator.apply.bytes.{cls}"], busy, copy_bps)
        m[f"simulator.apply.bw_frac.{cls}"] = (frac, "ratio")
    m["simulator.copy_GBps"] = (copy_bps / 1e9, "GB/s")
    for name in ("run", "observe", "sample", "format"):
        m[f"simulator.{name}.s"] = (t.total(f"simulator.{name}") / n, "s")
    m["simulator.observe.calls"] = (t.calls("simulator.observe") / n, "count")

    m["circuit.parse.s"] = (t.total("circuit.parse") / n, "s")
    m["circuit.parse.instructions"] = (c["circuit.parse.instructions"] / n, "count")
    m["circuit.serialize.s"] = (t.total("circuit.serialize") / n, "s")
    m["circuit.to_matrix.s"] = (t.total("circuit.to_matrix") / n, "s")
    m["circuit.to_matrix.calls"] = (t.calls("circuit.to_matrix") / n, "count")
    m["circuit.validate.s"] = (t.total("circuit.validate") / n, "s")
    m["circuit.validate.instructions"] = (c["circuit.validate.instructions"] / n, "count")
    emitted = sum(o.facts.get("emitted", 0) for o in traced)
    per_emitted = c["circuit.validate.instructions"] / emitted if emitted else 0.0
    m["circuit.validate.per_emitted"] = (per_emitted, "ratio")
    m["gates.isometry_residual.s"] = (t.total("gates.isometry_residual") / n, "s")
    m["core.metric_vector.s"] = (t.total("core.metric_vector") / n, "s")

    m["synthesis.factorize.s"] = (t.total("synthesis.factorize") / n, "s")
    m["synthesis.factorize.factors"] = (c["synthesis.factorize.factors"] / n, "count")
    m["synthesis.lower.self_s"] = (t.self_time("synthesis.compile") / n, "s")
    m["synthesis.compile.s"] = (t.total("synthesis.compile") / n, "s")
    for layout in SYNTH_LAYOUTS + APPROX_LAYOUTS:
        m[f"synthesis.emitted.gates.{layout}"] = (_mean_fact(traced, f"gates.{layout}"), "count")
    for k in range(5):
        m[f"synthesis.emitted.ctrl{k}"] = (_mean_fact(traced, f"ctrl{k}"), "count")
    m["synthesis.emitted.X"] = (_mean_fact(traced, "X"), "count")
    word_calls = {k: t.calls(f"synthesis.words.{k}") for k in ("qubit", "hybit")}
    word_s = {k: t.total(f"synthesis.words.{k}") for k in ("qubit", "hybit")}
    m["synthesis.words.calls"] = (sum(word_calls.values()) / n, "count")
    m["synthesis.words.s"] = (sum(word_s.values()) / n, "s")
    for k in ("qubit", "hybit"):
        per_call = word_s[k] / word_calls[k] if word_calls[k] else 0.0
        m[f"synthesis.words.per_call_s.{k}"] = (per_call, "s")

    m["search.choose_k.s"] = (t.total("search.choose_k") / n, "s")
    m["search.build.s"] = (t.total("search.build") / n, "s")
    m["search.run.self_s"] = (t.self_time("search.run") / n, "s")
    rounds = c["search.round.circuits"]
    instructions = c["search.round.instructions"]
    m["search.round.instructions"] = (instructions / rounds if rounds else 0.0, "count")
    m["search.round.x_share"] = (c["search.round.x"] / instructions if instructions else 0.0, "ratio")

    m["cli.self_s"] = (t.self_time("cli.main") / n, "s")
    m["cli.import.scipy_s"] = (scipy_s, "s")
    codes = Counter(code for o in every for code in o.codes if code != 0)
    for code in (1, 2, 3, 4):
        m[f"cli.exit.{code}"] = (codes.get(code, 0), "count")
    m["cli.exit.uncaught"] = (codes.get(EXIT_UNCAUGHT, 0), "count")
    m["fail_ratio"] = (sum(1 for o in every if not o.ok) / len(every), "ratio")
    m["approx_err"] = (_mean_fact(traced, "approx_err"), "1")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def run_workload(args) -> int:
    cli = import_lqc()
    call = make_call(cli)
    cycle = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": _git_sha(),
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,  # lqc.gates imports it
        "cores": os.cpu_count(),
        "threads": int(THREADS),
    }
    # SIGTERM unwinds like an exception, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            copy_bps = copy_bytes_per_s()
            scipy_s = scipy_import_seconds(IMPORTTIME_REPEATS)
            tracer = spans.Tracer()
            cycles = cycle_count(args.workload, args.seconds / 2)
            plain, traced = measure(cycle, cycles, workdir, rng, call, tracer)
            overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in plain) - 1
            every = plain + traced
            metrics = per_layer(tracer, traced, every, copy_bps, scipy_s, overhead)
        else:
            setup_s = setup_seconds(SETUP_REPEATS)
            every, _ = measure(cycle, cycle_count(args.workload, args.seconds), workdir, rng, call)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(every, setup_s).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    report(info, every, metrics)
    mismatches = [o for o in every if o.mismatch is not None]
    result = {
        "correct": not mismatches,
        "attempted": len(every),
        "failed": sum(1 for o in every if not o.ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(info: dict, outcomes: list[Outcome], metrics: dict) -> None:
    """Human-readable lines before the JSON result line."""
    print("# " + json.dumps(info))
    by_name: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_name.setdefault(o.op.name, []).append(o)
    for key, group in sorted(by_name.items()):
        times = [o.seconds for o in group]
        print(f"# op {key:<24} n={len(group):<4} ok={sum(o.ok for o in group):<4} "
              f"median_s={statistics.median(times):.4f}")
    latencies = [o.seconds for o in outcomes]
    ok = [o.ok for o in outcomes]
    probes = [o.calibration_s for o in outcomes if o.calibration_s]
    print(f"# ops={len(outcomes)} ok={sum(ok)} "
          f"p50_s_failed_as_inf={arith.percentile(latencies, 50, ok):.4f} (unscaled) "
          f"calibration_s={statistics.median(probes) if probes else 0:.4f}")
    for o in outcomes:
        if not o.ok:
            why = o.mismatch or f"exit {o.codes[-1]}: {o.facts.get('error', '')}"
            print(f"# failed {o.op.name}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:<24.10g} {unit}")


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        status |= subprocess.run(argv, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
