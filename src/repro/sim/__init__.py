"""Deterministic simulation substrate: clock, scheduler, costs, RNG."""

from repro.sim.clock import Clock, Stopwatch
from repro.sim.costs import CostModel, CostParams
from repro.sim.rng import derive_seed, stream
from repro.sim.sched import (
    Completion,
    PeriodicTimer,
    Poll,
    Scheduler,
    SchedulerError,
    Task,
    Timer,
    Waitable,
    run_inline,
)

__all__ = [
    "Clock",
    "Stopwatch",
    "CostModel",
    "CostParams",
    "derive_seed",
    "stream",
    "Completion",
    "PeriodicTimer",
    "Poll",
    "Scheduler",
    "SchedulerError",
    "Task",
    "Timer",
    "Waitable",
    "run_inline",
]
