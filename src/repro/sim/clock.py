"""Deterministic virtual clock.

All timing in the simulation is charged against a :class:`Clock`
instance rather than wall time, so a benchmark run is bit-for-bit
reproducible.  Components that consume time (devices, the host kernel,
the cost model) hold a reference to the same clock and ``advance`` it.
"""

from __future__ import annotations

from typing import Callable, List

from repro.units import fmt_time


class Clock:
    """Monotonic virtual clock measured in integer nanoseconds."""

    def __init__(self, start_ns: int = 0):
        if start_ns < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = start_ns
        self._observers: List[Callable[[int, int], None]] = []

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def advance(self, delta_ns: int) -> int:
        """Move the clock forward by ``delta_ns`` and return the new time."""
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative time {delta_ns}")
        old = self._now
        self._now += delta_ns
        for observer in self._observers:
            observer(old, self._now)
        return self._now

    def subscribe(self, observer: Callable[[int, int], None]) -> None:
        """Register ``observer(old_ns, new_ns)`` called on every advance."""
        self._observers.append(observer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(t={fmt_time(self._now)})"


class Stopwatch:
    """Measures a span of virtual time on a :class:`Clock`.

    Usage::

        with Stopwatch(clock) as sw:
            ...do simulated work...
        print(sw.elapsed)
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        self._start = 0
        self._stop: int = -1

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now
        self._stop = -1
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop = self._clock.now

    @property
    def elapsed(self) -> int:
        """Elapsed nanoseconds (live value while the span is open)."""
        end = self._clock.now if self._stop < 0 else self._stop
        return end - self._start
