"""Deterministic discrete-event scheduler: the concurrency substrate.

Everything concurrent in the simulation — interleaved attach pipelines,
two VMs' virtqueues draining side by side, a serverless autoscaler
racing a debugger — runs on this scheduler.  It is a classic
discrete-event core (gem5-style) built for *replayability*:

* **Priority queue of timed events.**  Each entry is keyed by
  ``(time_ns, priority, tiebreak, seq)``.  ``tiebreak`` is drawn from a
  seed-derived :mod:`repro.sim.rng` stream, so events scheduled for the
  *same* instant execute in a seed-determined order rather than in
  insertion order: changing the seed explores a different (but still
  exactly reproducible) interleaving, which is what makes the chaos
  suite's concurrency coverage meaningful.  ``seq`` is a monotonic
  counter that makes every key unique, so heap comparisons never fall
  through to the callbacks.
* **The existing virtual** :class:`~repro.sim.clock.Clock` **is the
  time source.**  The scheduler never moves time backwards: an event's
  callback may itself charge costs (advancing the clock inline), and a
  later-queued event that is now "in the past" simply runs at the
  current time.  Outside :class:`~repro.sim.costs.CostModel`, only the
  loop, :func:`run_inline`'s timed yields and the CLI move the clock.
* **Cooperative tasks, no threads.**  A :class:`Task` wraps a plain
  generator.  Yield protocol:

  - ``yield`` / ``yield "label"`` — reschedule cooperatively at the
    current time (other ready events may run in between);
  - ``yield Poll("label")`` — the same, from a task polling for
    progress made elsewhere (a used-ring completion, console output);
  - ``yield <int ns>`` — sleep that many virtual nanoseconds;
  - ``yield <Waitable>`` — park until the waitable completes; the
    waitable's result becomes the value of the ``yield`` expression,
    its error is re-raised inside the generator.

  No wall clock, no threads, no OS scheduler: the interleaving is a
  pure function of (event times, priorities, seed), which is why two
  runs with the same seed record bit-identical span streams (one
  ``sched.turn`` span per task turn).
* **One body per blocking operation.**  A synchronous entry point
  (``Vmsh.attach``, ``VmshConsole.run_command``, ``VHivePlatform.invoke``,
  the queued blk calls, ...) is :func:`run_inline` over the same
  generator a scheduler task runs, under the same yield rules with
  nothing to interleave.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional

from repro.obs import Observability
from repro.sim import rng as simrng
from repro.sim.clock import Clock

#: recycled heap-entry slabs kept per scheduler — enough to cover the
#: in-flight window of a 1k-VM fleet without unbounded growth.
_ENTRY_POOL_MAX = 4096

#: compact the heap once tombstones outnumber live entries (and there
#: are enough of them for the O(n) rebuild to amortise).
_TOMBSTONE_MIN = 64


class SchedulerError(RuntimeError):
    """Misuse of the scheduler (bad yield, nested run, runaway loop)."""


class Waitable:
    """A one-shot completion a task can ``yield`` on."""

    __slots__ = ("_done", "_result", "_error", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Waitable"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def result(self) -> Any:
        """The completion value; re-raises the stored error, if any."""
        if not self._done:
            raise SchedulerError("waitable has not completed")
        if self._error is not None:
            raise self._error
        return self._result

    def add_done_callback(self, fn: Callable[["Waitable"], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _finish(self, result: Any = None,
                error: Optional[BaseException] = None) -> None:
        if self._done:
            raise SchedulerError("waitable completed twice")
        self._done = True
        self._result = result
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Poll(str):
    """A labelled yield that waits for progress made elsewhere.

    A task polling for what another task or a deferred wakeup will
    produce yields its label as a ``Poll``.  The scheduler runs it
    again next turn, exactly as after the plain label; :func:`run_inline`,
    where nothing else runs, raises instead of spinning.
    """

    __slots__ = ()


class Completion(Waitable):
    """Externally-settable :class:`Waitable` (a one-shot event/future)."""

    __slots__ = ()

    def set(self, result: Any = None) -> None:
        if not self._done:
            self._finish(result=result)

    def fail(self, error: BaseException) -> None:
        if not self._done:
            self._finish(error=error)


class Timer:
    """Handle for one scheduled event; ``cancel()`` elides it.

    Cancellation is *lazy*: the heap entry stays queued as a tombstone
    and is skipped (uncounted) when popped.  The owning scheduler
    tracks the tombstone population and compacts the heap in place once
    the dead entries outnumber the live ones, so a cancelled-timer
    storm cannot degrade every later push/pop.
    """

    __slots__ = ("time_ns", "label", "fn", "cancelled", "fired", "_sched")

    def __init__(self, time_ns: int, fn: Callable[[], None], label: str,
                 sched: "Scheduler"):
        self.time_ns = time_ns
        self.label = label
        self.fn = fn
        self.cancelled = False
        self.fired = False
        self._sched = sched

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if not self.fired:
            self._sched._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "armed")
        return f"Timer({self.label!r} @ {self.time_ns} ns, {state})"


class PeriodicTimer:
    """Fires ``fn`` every ``period_ns`` until cancelled (drift-free)."""

    def __init__(self, sched: "Scheduler", period_ns: int,
                 fn: Callable[[], None], label: str):
        if period_ns <= 0:
            raise SchedulerError("periodic timer needs a positive period")
        self._sched = sched
        self.period_ns = period_ns
        self.fn = fn
        self.label = label
        self.cancelled = False
        self.fire_count = 0
        self._arm(sched.clock.now + period_ns)

    def _arm(self, when_ns: int) -> None:
        self._timer = self._sched.at(when_ns, self._fire, label=self.label)

    def _fire(self) -> None:
        if self.cancelled:
            return
        due = self._timer.time_ns
        self.fire_count += 1
        self.fn()
        if not self.cancelled:
            # Next fire is period-aligned to the *due* time, not to
            # whenever fn() finished charging costs (at() clamps to now).
            self._arm(due + self.period_ns)

    def cancel(self) -> None:
        self.cancelled = True
        self._timer.cancel()


class Task(Waitable):
    """A cooperative generator task driven by the scheduler."""

    __slots__ = ("_sched", "_gen", "label", "steps", "cancelled", "_track")

    def __init__(self, sched: "Scheduler", gen: Generator, label: str):
        super().__init__()
        self._sched = sched
        self._gen = gen
        self.label = label
        self.steps = 0
        self.cancelled = False
        #: the span track each turn is recorded on
        self._track = f"task:{label}"

    def cancel(self) -> None:
        """Close the generator; waiters see a result of ``None``."""
        if self._done:
            return
        self.cancelled = True
        self._gen.close()
        self._finish(result=None)

    def _step(self, value: Any = None,
              throw: Optional[BaseException] = None) -> None:
        if self._done:
            return
        self.steps += 1
        sched = self._sched
        # Batched like the loop's events counter: accumulated here,
        # flushed into the registry at loop exit — final totals are
        # identical, one Counter.inc per run instead of per turn.
        sched._turns_pending += 1
        spans = sched.obs.spans
        turn = spans.open_turn(self._track, self.steps)
        try:
            if throw is not None:
                yielded = self._gen.throw(throw)
            else:
                yielded = self._gen.send(value)
        except StopIteration as stop:
            spans.close_turn(turn, "return")
            self._finish(result=stop.value)
            return
        except BaseException as exc:
            spans.close_turn(turn, type(exc).__name__)
            self._finish(error=exc)
            return
        spans.close_turn(turn)
        self._park(yielded)

    def _park(self, yielded: Any) -> None:
        # Calls at() directly (after() would re-read the clock property
        # a second time) — same timer labels, same single tiebreak draw
        # per park, so interleavings are untouched.
        sched = self._sched
        kind = type(yielded)
        # Exact-type dispatch: the common yields (None / plain int /
        # plain str) resolve in one identity check each; `type is int`
        # naturally excludes bool, so the subclass guard only runs on
        # the cold fallback chain below.
        if yielded is None:
            sched.at(0, self._step, label=self.label)
        elif kind is int:
            if yielded < 0:
                raise SchedulerError(
                    f"task {self.label!r} yielded a negative sleep"
                )
            sched.at(sched.clock._now + yielded, self._step, label=self.label)
        elif kind is str:
            sched.at(0, self._step, label=yielded)
        elif isinstance(yielded, Waitable):
            yielded.add_done_callback(self._resume_from)
        elif isinstance(yielded, bool):
            raise SchedulerError(f"task {self.label!r} yielded a bool")
        elif isinstance(yielded, str):
            sched.at(0, self._step, label=yielded)
        elif isinstance(yielded, int):
            if yielded < 0:
                raise SchedulerError(
                    f"task {self.label!r} yielded a negative sleep"
                )
            sched.at(sched.clock._now + yielded, self._step, label=self.label)
        else:
            raise SchedulerError(
                f"task {self.label!r} yielded unsupported {yielded!r}"
            )

    def _resume_from(self, waitable: Waitable) -> None:
        error = waitable._error
        if error is not None:
            self._sched.at(0, lambda: self._step(throw=error), label=self.label)
        elif waitable._result is None:
            # The common wake (gates/joins carry no value): _step's
            # default value is None, so the bound method itself is the
            # callback — no closure allocation on the handoff path.
            self._sched.at(0, self._step, label=self.label)
        else:
            result = waitable._result
            self._sched.at(0, lambda: self._step(result), label=self.label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "running"
        return f"Task({self.label!r}, {state}, steps={self.steps})"


class Scheduler:
    """Deterministic discrete-event loop over a virtual clock."""

    def __init__(self, clock: Optional[Clock] = None, label: str = "sched",
                 master_seed: int = simrng.MASTER_SEED,
                 obs: Optional[Observability] = None):
        self.clock = clock if clock is not None else Clock()
        self.label = label
        self._tiebreak = simrng.stream(f"sched:{label}", master_seed)
        # Heap entries are 5-slot *lists* (not tuples) so popped slabs
        # can be recycled through ``_entry_pool`` — ``at()`` on the hot
        # path then costs zero allocations besides the Timer itself.
        # Lists compare elementwise exactly like tuples and ``seq``
        # keeps every key unique, so heap order is unchanged.
        self._heap: List[list] = []
        self._entry_pool: List[list] = []
        self._tombstones = 0
        self._seq = itertools.count()
        #: interned "start:<label>" strings so spawn storms don't build
        #: the same f-string once per task.
        self._start_labels: dict = {}
        #: task turns accumulated since the last loop exit (flushed
        #: into the ``task_turns`` counter by the loop).
        self._turns_pending = 0
        #: True while an event loop (run_until_idle/run_until/run) is
        #: dispatching — the flag :meth:`HostKernel.wakeup` gates on.
        self.running = False
        #: total events dispatched over the scheduler's lifetime
        self.events_run = 0
        #: observability hub (``repro.obs.Observability``; a private
        #: one when none is given, as ``CostModel`` builds): every task
        #: turn records a span on that task's track and dispatch/spawn
        #: counts land in the registry.
        self.obs = obs if obs is not None else Observability(self.clock)
        scope = self.obs.metrics.scope("sched", loop=label)
        self._m_events = scope.counter("events_dispatched")
        self._m_spawned = scope.counter("tasks_spawned")
        self._m_turns = scope.counter("task_turns")

    # -- scheduling primitives ------------------------------------------------

    @property
    def now(self) -> int:
        return self.clock.now

    def pending(self) -> int:
        """Events still queued (cancelled entries included until popped)."""
        return len(self._heap)

    def at(self, time_ns: int, fn: Callable[[], None],
           label: str = "event", priority: int = 0) -> Timer:
        """Schedule ``fn`` at absolute virtual time ``time_ns``.

        Times in the past are clamped to *now* — the clock never runs
        backwards.  Ties on (time, priority) are broken by a
        seed-derived random draw, then by insertion order.
        """
        now = self.clock._now
        when = time_ns if time_ns > now else now
        timer = Timer(when, fn, label, self)
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = priority
            entry[2] = self._tiebreak.getrandbits(32)
            entry[3] = next(self._seq)
            entry[4] = timer
        else:
            entry = [when, priority, self._tiebreak.getrandbits(32),
                     next(self._seq), timer]
        heapq.heappush(self._heap, entry)
        return timer

    def _note_cancelled(self) -> None:
        """Count a heap tombstone; compact once they dominate the heap."""
        self._tombstones += 1
        heap = self._heap
        if self._tombstones > _TOMBSTONE_MIN and self._tombstones * 2 > len(heap):
            # In-place rebuild so loops holding a local binding to the
            # heap list observe the compaction.  Filtering preserves
            # the entries' total order keys, so the surviving pop
            # sequence is exactly the lazy-deletion one minus skips.
            heap[:] = [e for e in heap if not e[4].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0

    def after(self, delta_ns: int, fn: Callable[[], None],
              label: str = "event", priority: int = 0) -> Timer:
        return self.at(self.clock._now + delta_ns, fn, label=label,
                       priority=priority)

    def call_soon(self, fn: Callable[[], None], label: str = "event") -> Timer:
        # at() clamps past times to now, so 0 means "now" — one frame
        # and one clock read cheaper than going through after().
        return self.at(0, fn, label=label)

    def every(self, period_ns: int, fn: Callable[[], None],
              label: str = "timer") -> PeriodicTimer:
        return PeriodicTimer(self, period_ns, fn, label)

    def spawn(self, gen: Generator, label: str = "task") -> Task:
        """Wrap a generator into a :class:`Task`; first step runs soon."""
        task = Task(self, gen, label)
        self._m_spawned.inc()
        labels = self._start_labels
        start = labels.get(label)
        if start is None:
            start = labels[label] = f"start:{label}"
        self.at(0, task._step, label=start)
        return task

    # -- event loops ----------------------------------------------------------

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Dispatch events until the queue empties; returns the count."""
        return self._loop(None, None, max_events)

    def run_until(self, deadline_ns: int, max_events: int = 1_000_000) -> int:
        """Dispatch events due up to ``deadline_ns``, then land there."""
        ran = self._loop(deadline_ns, None, max_events)
        if self.clock.now < deadline_ns:
            self.clock.advance(deadline_ns - self.clock.now)
        return ran

    def run(self, *waitables: Waitable, max_events: int = 1_000_000) -> List[Any]:
        """Dispatch until every given waitable completes.

        Returns their results in order (errors re-raise).  Raises if
        the queue drains with a waitable still pending — a deadlocked
        task, usually one parked on a completion nobody will set.

        Completion is tracked with an O(1) countdown fed by
        done-callbacks rather than a re-scan of every waitable per
        event: the loop exits as soon as the event that completed the
        last waitable returns.
        """
        remaining = [0]

        def _one_done(_w: Waitable) -> None:
            remaining[0] -= 1

        seen = set()
        for w in waitables:
            if id(w) in seen:       # duplicates must not double-count
                continue
            seen.add(id(w))
            if not w.done:
                remaining[0] += 1
                w.add_done_callback(_one_done)
        self._loop(None, remaining, max_events)
        if remaining[0]:
            stuck = [w for w in waitables if not w.done]
            raise SchedulerError(
                f"scheduler went idle with {len(stuck)} waitable(s) pending: "
                + ", ".join(getattr(w, "label", repr(w)) for w in stuck)
            )
        return [w.result() for w in waitables]

    def _loop(self, deadline_ns: Optional[int],
              remaining: Optional[list], max_events: int) -> int:
        """Batched dispatch: the one loop behind all three entry points.

        Hot-path disciplines: hoisted local bindings (heap/clock/pool),
        a drain that only touches the clock when time actually moves
        (same-timestamp runs skip the advance branch), tombstones
        recycled without counting, popped entry slabs returned to the
        freelist, and the per-event registry increment batched into one
        ``inc(ran)`` at loop exit (nothing reads the counter mid-loop;
        exports see the same total).
        """
        if self.running:
            raise SchedulerError("scheduler loop is already running")
        self.running = True
        heap = self._heap
        pool = self._entry_pool
        heappop = heapq.heappop
        clock = self.clock
        ran = 0
        try:
            while True:
                if remaining is not None and not remaining[0]:
                    break
                if not heap:
                    break
                time_ns = heap[0][0]
                if deadline_ns is not None and time_ns > deadline_ns:
                    break
                if ran >= max_events:
                    raise SchedulerError(
                        f"scheduler exceeded {max_events} events (runaway loop?)"
                    )
                entry = heappop(heap)
                timer = entry[4]
                entry[4] = None
                if len(pool) < _ENTRY_POOL_MAX:
                    pool.append(entry)
                if timer.cancelled:
                    self._tombstones -= 1
                    continue
                if time_ns > clock._now:
                    clock.advance(time_ns - clock._now)
                timer.fired = True
                self.events_run += 1
                ran += 1
                timer.fn()
        finally:
            self.running = False
            if ran:
                self._m_events.inc(ran)
            if self._turns_pending:
                self._m_turns.inc(self._turns_pending)
                self._turns_pending = 0
        return ran


def run_inline(gen: Generator, clock: Clock) -> Any:
    """Run a task generator to completion outside the event loop.

    The scheduler's yield rules, with nothing to interleave: a bare or
    labelled yield resumes at once, an int sleeps by advancing
    ``clock``, and a :class:`Waitable` must already be done (its result
    is sent in, its error thrown in).  A wait that cannot be met
    inline (a pending waitable, a :class:`Poll`) and the yields the
    scheduler rejects (a negative int, a bool, anything else) throw a
    :class:`SchedulerError` into the generator at the yield, so its
    handlers (an attach's rollback) run before the error propagates.
    Returns the generator's return value.
    """
    value = error = None
    while True:
        try:
            yielded = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        value = error = None
        kind = type(yielded)
        if yielded is None or kind is str:
            continue
        if kind is int and yielded >= 0:
            clock.advance(yielded)
            continue
        if isinstance(yielded, Waitable):
            if yielded._done:
                value, error = yielded._result, yielded._error
                continue
            problem = "waits on a pending waitable"
        elif isinstance(yielded, Poll):
            problem = f"polls {str(yielded)!r}, which only other tasks satisfy"
        elif kind is int:
            problem = "yielded a negative sleep"
        elif kind is bool:
            problem = "yielded a bool"
        else:
            problem = f"yielded unsupported {yielded!r}"
        error = SchedulerError(f"inline run {problem}")
