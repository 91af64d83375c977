"""Statistics, host-time and registry helpers for the workloads and runner.

Percentiles are nearest-rank over the sorted samples, so every reported
latency is one that a real operation actually had.  A percentile is
only reported when at least :data:`MIN_BEYOND` samples lie beyond it:
with fewer, "p99" is just the maximum under another name.

Host time is rescaled to a fixed host speed.  On a shared machine the
same process runs 30-50 % faster or slower for seconds at a time (the
neighbours change, not the program), which would swamp any change in
the simulator's own cost.  :func:`reference_s` times a small pure-Python
loop that uses nothing from the program; :class:`HostMeter` times it
every :data:`SAMPLE_S` during a set-up or timed phase and rescales each
stretch of host time to what it would have been had the loop taken
:data:`REFERENCE_S`.
The raw wall-clock numbers are kept alongside for reference.
"""

from __future__ import annotations

import math
import signal
import time
from typing import Dict, Iterable, Sequence, Tuple

#: samples that must lie beyond a percentile before it may be reported
MIN_BEYOND = 10

#: tail percentiles in order of preference; the first one the sample
#: count supports is the workload's reported tail
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def beyond(n: int, p: float) -> int:
    """Samples strictly after the nearest-rank ``p`` percentile."""
    return n - rank(n, p)


def percentile(ordered: Sequence[int], p: float) -> int:
    """Nearest-rank percentile of already sorted samples.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it.
    """
    n = len(ordered)
    if n == 0 or beyond(n, p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; have {n} samples"
        )
    return ordered[rank(n, p) - 1]


def tail(ordered: Sequence[int], cap: float = 100.0) -> Tuple[float, int]:
    """The highest :data:`TAIL_LADDER` percentile, at most ``cap``, that
    the samples support."""
    for p in TAIL_LADDER:
        if p <= cap and beyond(len(ordered), p) >= MIN_BEYOND:
            return p, ordered[rank(len(ordered), p) - 1]
    raise ValueError(f"{len(ordered)} samples support no tail percentile")


#: the reference loop's duration at the host speed results are scaled to
REFERENCE_S = 0.001
#: how often (host seconds) a :class:`HostMeter` re-times the loop
SAMPLE_S = 0.25


def _reference_loop() -> int:
    # dict/list/str/tuple churn: the kind of work the simulator does
    table = {}
    for i in range(3000):
        table[i] = (i * 7) % 13
    total = 0
    for key, value in table.items():
        total += key * value
    ordered = sorted(table.values())
    objs = [(i, str(i)) for i in range(500)]
    return total + len(ordered) + len(objs)


def reference_s() -> float:
    """Host seconds of one reference loop right now (best of two)."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(wall_s: float, ref_before: float, ref_after: float) -> float:
    """``wall_s`` host seconds rescaled to the reference host speed."""
    return wall_s * REFERENCE_S / ((ref_before + ref_after) / 2)


class HostMeter:
    """Host seconds of a ``with`` block, rescaled to the reference speed.

    While the block runs, an interval timer (``SIGALRM``) re-times the
    reference loop every :data:`SAMPLE_S` between two bytecodes of
    whatever is running; each stretch of host time is rescaled by the
    loop times at its two ends, and the loop's own time is left out.
    With ``rescale=False`` (the traced run, whose profiler would slow
    the loop too) it only keeps wall time.
    """

    def __init__(self, rescale: bool = True) -> None:
        self.rescale = rescale
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._ref = REFERENCE_S
        self._start = 0.0
        self._previous_handler = None

    def __enter__(self) -> "HostMeter":
        if self.rescale:
            self._ref = reference_s()
            self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.rescale:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self._close()

    def _sample(self, _signum, _frame) -> None:
        self._close()

    def _close(self) -> None:
        wall = time.perf_counter() - self._start
        ref = reference_s() if self.rescale else REFERENCE_S
        self.wall_s += wall
        self.scaled_s += scaled(wall, self._ref, ref)
        self._ref = ref
        self._start = time.perf_counter()


def ns_to_ms(ns: float) -> float:
    return ns / 1e6


def ratio(num: float, den: float) -> float:
    """``num / den``, and 0 for a layer the workload never reached."""
    return num / den if den else 0.0


def counter_totals(registries: Iterable) -> Dict[str, int]:
    """Every registry counter summed over its labels, by ``subsystem.name``.

    Deltas of two such snapshots give a layer's work over a window
    without caring which VM, session or shard did it.
    """
    totals: Dict[str, int] = {}
    for registry in registries:
        for (subsystem, name, _labels), metric in registry.walk():
            if metric.kind == "counter":
                key = f"{subsystem}.{name}" if subsystem else name
                totals[key] = totals.get(key, 0) + metric.value
    return totals


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {
        k: v - before.get(k, 0) for k, v in after.items()
        if v != before.get(k, 0)
    }
