"""Arithmetic behind the reported metrics, kept apart so its tests can feed
it synthetic timings."""

from __future__ import annotations

import math
import statistics
from typing import Hashable, Sequence

COMPLEX_BYTES = 16


def percentile(latencies: Sequence[float], q: float, ok: Sequence[bool] | None = None) -> float:
    """q-th percentile (0 <= q <= 100) of op latencies, interpolating
    linearly between ranks as statistics.median does. Given `ok` flags, a
    failed op counts as infinitely slow."""
    if ok is None:
        ok = [True] * len(latencies)
    if not latencies or len(latencies) != len(ok):
        raise ValueError("need one ok flag per latency, and at least one op")
    values = sorted(t if good else math.inf for t, good in zip(latencies, ok))
    pos = (len(values) - 1) * q / 100.0
    lo, frac = int(pos), pos - int(pos)
    if frac == 0.0:
        return values[lo]
    a, b = values[lo], values[lo + 1]
    return math.inf if math.inf in (a, b) else a + (b - a) * frac


def _by_group(values: Sequence, groups: Sequence[Hashable]) -> list[list]:
    out: dict = {}
    for value, group in zip(values, groups):
        out.setdefault(group, []).append(value)
    return list(out.values())


def goodput(latencies: Sequence[float], ok: Sequence[bool], types: Sequence[Hashable]) -> float:
    """Successful ops per second of op time, for a cycle holding one op of
    each type: the sum over types of the median success (1 or 0) of that
    type's ops, over the sum of their median latencies. Failed ops keep
    their time in the latencies and add nothing above the line. With one op
    per type this is successes over total time; with more, one input that
    passes where its type nearly always fails, or one slow op, moves
    neither median."""
    busy = sum(statistics.median(v) for v in _by_group(latencies, types))
    if busy <= 0.0:
        raise ValueError("goodput needs a positive op time")
    good = _by_group([1.0 if g else 0.0 for g in ok], types)
    return sum(statistics.median(v) for v in good) / busy


def median_of_medians(values: Sequence[float], groups: Sequence[Hashable]) -> float:
    """Median over groups of each group's median value. Used with op types
    as groups: a workload's op types differ in cost by up to 10x, so the
    plain median of a mixed sample falls in the gap between two types and
    jumps with the slowest op of one and the fastest of the other."""
    return statistics.median(statistics.median(v) for v in _by_group(values, groups))


def kernel_bytes(amplitudes: int, controls: int) -> int:
    """Computed bytes one kernel pass reads and writes: every complex128
    entry of the all-ones control slice once each way, 2 * 16 B *
    amplitudes / 2^controls. `amplitudes` counts trailing batch axes too.
    Cache misses are not modelled."""
    return 2 * COMPLEX_BYTES * (amplitudes >> controls)


def bandwidth_fraction(nbytes: float, busy_s: float, copy_bytes_per_s: float) -> float:
    """Achieved computed bytes per second over the measured copy rate."""
    if busy_s <= 0.0 or copy_bytes_per_s <= 0.0:
        return 0.0
    return nbytes / busy_s / copy_bytes_per_s
