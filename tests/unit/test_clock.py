"""Virtual clock and stopwatch."""

import pytest

from repro.sim.clock import Clock, Stopwatch


def test_clock_starts_at_zero():
    assert Clock().now == 0


def test_clock_advances():
    clock = Clock()
    assert clock.advance(100) == 100
    assert clock.advance(50) == 150
    assert clock.now == 150


def test_clock_rejects_negative_advance():
    clock = Clock()
    with pytest.raises(ValueError):
        clock.advance(-1)


def test_clock_rejects_negative_start():
    with pytest.raises(ValueError):
        Clock(start_ns=-5)


def test_clock_observers_fire():
    clock = Clock()
    seen = []
    clock.subscribe(lambda old, new: seen.append((old, new)))
    clock.advance(10)
    clock.advance(20)
    assert seen == [(0, 10), (10, 30)]


def test_stopwatch_measures_span():
    clock = Clock()
    clock.advance(5)
    with Stopwatch(clock) as sw:
        clock.advance(100)
    clock.advance(999)  # after the span: must not count
    assert sw.elapsed == 100


def test_stopwatch_live_reading():
    clock = Clock()
    sw = Stopwatch(clock)
    with sw:
        clock.advance(42)
        assert sw.elapsed == 42
