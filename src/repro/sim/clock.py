"""Deterministic virtual clock.

All timing in the simulation is charged against a :class:`Clock`
instance rather than wall time, so a benchmark run is bit-for-bit
reproducible.  Components that consume time (devices, the host kernel,
the cost model) hold a reference to the same clock and ``advance`` it.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

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

    def unsubscribe(self, observer: Callable[[int, int], None]) -> None:
        """Remove a subscribed observer (no-op if absent).

        Observers that outlive their owner — a monitor's time series
        after ``detach()``, a tracer from a finished session — would
        otherwise keep firing on every advance for the clock's whole
        lifetime.
        """
        if observer in self._observers:
            self._observers.remove(observer)

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


class TimeSeries:
    """Append-only series of (time, value) samples on a virtual clock.

    Besides explicit :meth:`record` calls, a series can *follow* a
    probe function, sampling it on every clock advance.  A following
    series holds a clock observer and MUST be :meth:`close`\\ d when its
    owner goes away (session detach, monitor teardown) or the observer
    leaks and keeps firing forever.
    """

    def __init__(self, clock: Clock):
        self._clock = clock
        self.samples: List[Tuple[int, float]] = []
        self._observer: Callable[[int, int], None] | None = None

    def record(self, value: float) -> None:
        self.samples.append((self._clock.now, value))

    def follow(self, probe: Callable[[], float]) -> None:
        """Sample ``probe()`` on every clock advance until closed."""
        if self._observer is not None:
            raise ValueError("time series is already following a probe")

        def observer(_old_ns: int, new_ns: int) -> None:
            self.samples.append((new_ns, float(probe())))

        self._observer = observer
        self._clock.subscribe(observer)

    def close(self) -> None:
        """Detach from the clock; idempotent."""
        if self._observer is not None:
            self._clock.unsubscribe(self._observer)
            self._observer = None

    @property
    def following(self) -> bool:
        return self._observer is not None

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples recorded")
        return sum(v for _, v in self.samples) / len(self.samples)
