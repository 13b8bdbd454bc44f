"""Span tracing from outside the package: public functions of the lqc
modules are swapped, in every module that imported them, for wrappers that
record a span per call. Nothing under src/ is edited.

Spans are aggregated as they close (calls, total time, time covered by child
spans), so self time is total minus child time. One op is one span tree
rooted at `cli.main`; the process is single-threaded, so spans nest
strictly and child intervals never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

from arith import kernel_bytes

DENSE = frozenset({"H", "TAU", "BOOST"})
DIAG = frozenset({"T", "Z", "SZ", "SZD", "PHASE", "CZ"})
PERM = frozenset({"X", "Y"})
GATE_CLASSES = ("dense", "diag", "perm", "ctrl")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # name -> [calls, total seconds, seconds inside child spans]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        took = self.clock() - start
        agg = self.spans[name]
        agg[0] += 1
        agg[1] += took
        agg[2] += child
        if self._stack:
            self._stack[-1][2] += took

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def total(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        if name not in self.spans:
            return 0.0
        _, total, child = self.spans[name]
        return total - child


def gate_class(instr) -> str:
    """Kernel class of one instruction: ctrl if it has controls, else by the
    builtin name, else by the structure of its DEFGATE matrix."""
    if instr.controls:
        return "ctrl"
    if instr.matrix is None:
        if instr.gate in DENSE:
            return "dense"
        if instr.gate in DIAG:
            return "diag"
        if instr.gate in PERM:
            return "perm"
        raise ValueError(f"unclassified builtin {instr.gate}")
    m = instr.matrix
    nonzero = abs(m) > 0
    if not (nonzero.sum() - nonzero.diagonal().sum()):
        return "diag"
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return "perm"
    return "dense"


def _span(tracer: Tracer, name, fn: Callable, after=None) -> Callable:
    """Wrap fn in a span; `name` is a string or a function of the call's
    positional arguments, and `after(args, result)` records counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result)
        return result

    return traced


def _apply_span(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def traced(layout, tensor, instr):
        cls = gate_class(instr)
        tracer.enter(f"simulator.apply.{cls}")
        try:
            return fn(layout, tensor, instr)
        finally:
            tracer.exit()
            counts[f"simulator.apply.bytes.{cls}"] += kernel_bytes(tensor.size, len(instr.controls))

    return traced


def wrappers(tracer: Tracer) -> dict[tuple[str, str], Callable]:
    """(module, function) -> wrapper factory, one entry per traced function."""
    counts = tracer.counts

    def count_validated(args, _result):
        counts["circuit.validate.instructions"] += 1

    def count_parsed(_args, circuit):
        counts["circuit.parse.instructions"] += len(circuit.instructions)

    def count_factors(_args, factors):
        counts["synthesis.factorize.factors"] += len(factors)

    def count_round(_args, circuit):
        counts["search.round.circuits"] += 1
        counts["search.round.instructions"] += len(circuit.instructions)
        counts["search.round.x"] += sum(
            1 for i in circuit.instructions if i.gate == "X" and not i.controls
        )

    def word_kind(args) -> str:
        kind = str(getattr(args[1], "value", args[1]))
        return f"synthesis.words.{'qubit' if kind == 'q' else 'hybit'}"

    plain = {
        ("lqc.cli", "main"): ("cli.main", None),
        ("lqc.circuit", "parse"): ("circuit.parse", count_parsed),
        ("lqc.circuit", "serialize"): ("circuit.serialize", None),
        ("lqc.circuit", "to_matrix"): ("circuit.to_matrix", None),
        ("lqc.circuit", "validate_instruction"): ("circuit.validate", count_validated),
        ("lqc.gates", "isometry_residual"): ("gates.isometry_residual", None),
        ("lqc.core", "metric_vector"): ("core.metric_vector", None),
        ("lqc.simulator", "run"): ("simulator.run", None),
        ("lqc.simulator", "observe"): ("simulator.observe", None),
        ("lqc.simulator", "sample"): ("simulator.sample", None),
        ("lqc.simulator", "format_distribution"): ("simulator.format", None),
        ("lqc.search", "choose_k"): ("search.choose_k", None),
        ("lqc.search", "q_circuit"): ("search.build", count_round),
        ("lqc.search", "run_search"): ("search.run", None),
        ("lqc.synthesis.compiler", "compile"): ("synthesis.compile", None),
        ("lqc.synthesis.twolevel", "two_level_factorize"): ("synthesis.factorize", count_factors),
        ("lqc.synthesis.words", "word_search"): (word_kind, None),
    }
    out = {
        key: functools.partial(_span, tracer, name, after=after)
        for key, (name, after) in plain.items()
    }
    out[("lqc.simulator", "apply_to_tensor")] = functools.partial(_apply_span, tracer)
    return out


class installed:
    """Context manager that swaps every alias of each traced function in the
    loaded lqc modules for its wrapper, and restores them on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [m for n, m in list(sys.modules.items()) if n == "lqc" or n.startswith("lqc.")]
        for (mod_name, fn_name), factory in wrappers(self.tracer).items():
            original = getattr(sys.modules[mod_name], fn_name)
            wrapped = factory(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._undo.append((module, attr, original))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
