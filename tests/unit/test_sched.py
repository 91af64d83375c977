"""Discrete-event scheduler: ordering, timers, tasks, determinism."""

import pytest

from repro.sim import rng as simrng
from repro.sim.clock import Clock
from repro.sim.sched import (
    Completion,
    Poll,
    Scheduler,
    SchedulerError,
    Task,
    Waitable,
    run_inline,
)


def make_sched(seed: int = 7) -> Scheduler:
    return Scheduler(Clock(), label="test", master_seed=seed)


def key_order(seed: int, keys) -> list:
    """Indices of ``keys`` (``(time_ns, priority)`` per ``at()`` call,
    in call order) in the order their heap keys dispatch them: one
    ``sched:test`` tiebreak draw per call, then the call's ``seq``."""
    draws = simrng.stream("sched:test", seed)
    full = [(time_ns, priority, draws.getrandbits(32), seq)
            for seq, (time_ns, priority) in enumerate(keys)]
    return sorted(range(len(keys)), key=full.__getitem__)


# -- event ordering ---------------------------------------------------------------


def test_events_run_in_time_order():
    sched = make_sched()
    order = []
    sched.at(300, lambda: order.append("c"))
    sched.at(100, lambda: order.append("a"))
    sched.at(200, lambda: order.append("b"))
    sched.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sched.clock.now == 300


def test_clock_advances_to_event_times():
    sched = make_sched()
    times = []
    sched.at(50, lambda: times.append(sched.now))
    sched.at(500, lambda: times.append(sched.now))
    sched.run_until_idle()
    assert times == [50, 500]


def test_past_events_clamp_to_now():
    sched = make_sched()
    sched.clock.advance(1000)
    timer = sched.at(10, lambda: None)
    assert timer.time_ns == 1000  # never schedules into the past
    fired_at = []
    sched.at(0, lambda: fired_at.append(sched.now))
    sched.run_until_idle()
    assert fired_at == [1000]
    assert sched.clock.now == 1000


def test_priority_orders_same_time_events():
    sched = make_sched()
    order = []
    sched.at(100, lambda: order.append("late"), priority=10)
    sched.at(100, lambda: order.append("early"), priority=-10)
    sched.run_until_idle()
    assert order == ["early", "late"]


def test_same_time_tiebreak_is_seed_deterministic():
    def interleaving(seed):
        sched = Scheduler(Clock(), label="tie", master_seed=seed)
        order = []
        for name in "abcdefgh":
            sched.at(100, lambda name=name: order.append(name))
        sched.run_until_idle()
        return order

    assert interleaving(1) == interleaving(1)
    assert interleaving(2) == interleaving(2)
    # Different seeds explore different interleavings of the same
    # events (with 8! possible orders a collision would be suspicious).
    assert interleaving(1) != interleaving(2)


def test_timer_cancel_elides_event():
    sched = make_sched()
    fired = []
    keep = sched.at(100, lambda: fired.append("keep"))
    drop = sched.at(100, lambda: fired.append("drop"))
    drop.cancel()
    sched.run_until_idle()
    assert fired == ["keep"]
    assert keep.fired and not drop.fired


def test_events_scheduled_during_dispatch_run():
    sched = make_sched()
    order = []

    def first():
        order.append("first")
        sched.after(10, lambda: order.append("second"))

    sched.at(5, first)
    sched.run_until_idle()
    assert order == ["first", "second"]
    assert sched.clock.now == 15


# -- run loops --------------------------------------------------------------------


def test_run_until_lands_on_deadline():
    sched = make_sched()
    fired = []
    sched.at(100, lambda: fired.append(100))
    sched.at(900, lambda: fired.append(900))
    sched.run_until(500)
    assert fired == [100]
    assert sched.clock.now == 500  # landed exactly on the deadline
    sched.run_until_idle()
    assert fired == [100, 900]


def test_run_until_idle_returns_dispatch_count():
    sched = make_sched()
    for t in (10, 20, 30):
        sched.at(t, lambda: None)
    cancelled = sched.at(40, lambda: None)
    cancelled.cancel()
    assert sched.run_until_idle() == 3
    assert sched.events_run == 3


def test_runaway_loop_is_detected():
    sched = make_sched()

    def rearm():
        sched.call_soon(rearm)

    sched.call_soon(rearm)
    with pytest.raises(SchedulerError, match="runaway"):
        sched.run_until_idle(max_events=50)


def test_nested_run_is_rejected():
    sched = make_sched()
    errors = []

    def nested():
        try:
            sched.run_until_idle()
        except SchedulerError as exc:
            errors.append(str(exc))

    sched.call_soon(nested)
    sched.run_until_idle()
    assert errors and "already running" in errors[0]


# -- periodic timers --------------------------------------------------------------


def test_periodic_timer_is_drift_free():
    sched = make_sched()
    ticks = []

    def tick():
        ticks.append(sched.now)
        sched.clock.advance(3)  # work inside the tick must not skew the period

    sched.every(100, tick)
    sched.run_until(1000)
    assert ticks == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]


def test_periodic_timer_cancel_and_fire_count():
    sched = make_sched()
    timer = sched.every(10, lambda: None)
    sched.run_until(35)
    timer.cancel()
    sched.run_until(100)
    assert timer.fire_count == 3
    assert timer.cancelled


def test_periodic_timer_rejects_nonpositive_period():
    sched = make_sched()
    with pytest.raises(SchedulerError):
        sched.every(0, lambda: None)


# -- waitables --------------------------------------------------------------------


def test_waitable_result_before_done_raises():
    with pytest.raises(SchedulerError):
        Waitable().result()


def test_completion_set_and_callbacks():
    done = Completion()
    seen = []
    done.add_done_callback(lambda w: seen.append(w.result()))
    done.set(42)
    assert done.done and seen == [42]
    # A callback added after completion fires immediately.
    done.add_done_callback(lambda w: seen.append(w.result()))
    assert seen == [42, 42]


def test_completion_fail_reraises():
    done = Completion()
    done.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        done.result()


# -- tasks ------------------------------------------------------------------------


def test_task_yield_none_and_str_are_cooperative():
    sched = make_sched()
    order = []

    def gen(name):
        order.append(f"{name}:0")
        yield
        order.append(f"{name}:1")
        yield "named-step"
        order.append(f"{name}:2")

    sched.spawn(gen("a"), label="a")
    sched.spawn(gen("b"), label="b")
    sched.run_until_idle()
    # Both tasks complete all steps, interleaved at the same instant.
    assert sorted(order) == ["a:0", "a:1", "a:2", "b:0", "b:1", "b:2"]
    assert sched.clock.now == 0  # cooperative yields consume no time


def test_task_yield_int_sleeps():
    sched = make_sched()
    marks = []

    def gen():
        marks.append(sched.now)
        yield 100
        marks.append(sched.now)
        yield 250
        marks.append(sched.now)
        return "done"

    task = sched.spawn(gen())
    (result,) = sched.run(task)
    assert result == "done"
    assert marks == [0, 100, 350]


def test_task_yield_waitable_receives_result():
    sched = make_sched()
    gate = Completion()

    def gen():
        value = yield gate
        return value * 2

    task = sched.spawn(gen())
    sched.after(50, lambda: gate.set(21))
    (result,) = sched.run(task)
    assert result == 42


def test_task_yield_waitable_error_propagates():
    sched = make_sched()
    gate = Completion()

    def gen():
        try:
            yield gate
        except RuntimeError as exc:
            return f"caught {exc}"

    task = sched.spawn(gen())
    sched.after(10, lambda: gate.fail(RuntimeError("io error")))
    (result,) = sched.run(task)
    assert result == "caught io error"


def test_task_waits_on_another_task():
    sched = make_sched()

    def child():
        yield 100
        return "child-result"

    def parent(child_task):
        got = yield child_task
        return f"parent saw {got}"

    child_task = sched.spawn(child(), label="child")
    parent_task = sched.spawn(parent(child_task), label="parent")
    results = sched.run(parent_task)
    assert results == ["parent saw child-result"]


def test_task_exception_is_stored_and_reraised():
    sched = make_sched()

    def gen():
        yield 10
        raise KeyError("lost")

    task = sched.spawn(gen())
    sched.run_until_idle()
    assert task.done and isinstance(task.error, KeyError)
    with pytest.raises(KeyError):
        task.result()


def test_task_yield_bool_is_rejected():
    sched = make_sched()

    def gen():
        yield True

    sched.spawn(gen())
    with pytest.raises(SchedulerError, match="bool"):
        sched.run_until_idle()


def test_task_yield_negative_sleep_is_rejected():
    sched = make_sched()

    def gen():
        yield -5

    sched.spawn(gen())
    with pytest.raises(SchedulerError, match="negative"):
        sched.run_until_idle()


def test_task_yield_garbage_is_rejected():
    sched = make_sched()

    def gen():
        yield object()

    sched.spawn(gen())
    with pytest.raises(SchedulerError, match="unsupported"):
        sched.run_until_idle()


def test_task_cancel_closes_generator():
    sched = make_sched()
    cleaned = []

    def gen():
        try:
            yield 1000
        finally:
            cleaned.append(True)

    task = sched.spawn(gen())
    sched.run_until(10)
    task.cancel()
    assert task.done and task.cancelled and cleaned == [True]
    sched.run_until_idle()  # the orphaned wakeup is a no-op


def test_run_detects_deadlock():
    sched = make_sched()
    forever = Completion()

    def gen():
        yield forever  # nobody ever sets this

    task = sched.spawn(gen(), label="stuck-task")
    with pytest.raises(SchedulerError, match="stuck-task"):
        sched.run(task)


def test_run_returns_results_in_order():
    sched = make_sched()

    def gen(delay, value):
        yield delay
        return value

    slow = sched.spawn(gen(500, "slow"))
    fast = sched.spawn(gen(10, "fast"))
    assert sched.run(slow, fast) == ["slow", "fast"]


# -- the inline driver --------------------------------------------------------------


def test_inline_int_yield_advances_the_clock_by_exactly_that_much():
    clock = Clock()

    def gen():
        yield 250
        first = clock.now
        yield 0
        yield 1_000
        return first

    assert run_inline(gen(), clock) == 250
    assert clock.now == 1_250


def test_inline_bare_and_labelled_yields_resume_at_once():
    clock = Clock()
    seen = []

    def gen():
        seen.append((yield))
        seen.append((yield "step"))
        return "done"

    assert run_inline(gen(), clock) == "done"
    assert seen == [None, None]
    assert clock.now == 0


def test_inline_done_completion_sends_its_result_in():
    ok = Completion()
    ok.set("payload")

    def gen():
        return (yield ok)

    assert run_inline(gen(), Clock()) == "payload"


def test_inline_failed_completion_throws_its_error_in():
    failed = Completion()
    failed.fail(KeyError("lost"))
    caught = []

    def gen():
        try:
            yield failed
        except KeyError as exc:
            caught.append(exc)
        return "recovered"

    assert run_inline(gen(), Clock()) == "recovered"
    assert caught and caught[0] is failed.error


@pytest.mark.parametrize("yielded, match", [
    (Completion(), "pending waitable"),
    (Poll("console-wait"), "polls 'console-wait'"),
    (-5, "negative"),
    (True, "bool"),
    (object(), "unsupported"),
], ids=["pending-waitable", "poll", "negative-int", "bool", "garbage"])
def test_inline_refuses_a_wait_it_cannot_meet(yielded, match):
    cleaned = []

    def gen():
        try:
            yield yielded
        finally:
            cleaned.append(True)   # the error is thrown in at the yield

    with pytest.raises(SchedulerError, match=match):
        run_inline(gen(), Clock())
    assert cleaned == [True]


def test_poll_parks_like_its_label_under_the_scheduler():
    """A task yields a Poll where it polls; the scheduler runs it again
    next turn exactly as after the plain label, same interleaving."""
    def interleaving(labels):
        sched = make_sched()
        order = []

        def gen():
            for label in labels:
                order.append("task")
                yield label

        task = sched.spawn(gen(), label="poller")
        for name in "xyz":
            sched.at(0, lambda name=name: order.append(name))
        sched.run(task)
        return order, sched.events_run

    assert interleaving([Poll("a"), Poll("b")]) == interleaving(["a", "b"])


# -- full-stream determinism ------------------------------------------------------


def test_same_seed_same_event_stream():
    def run(seed):
        sched = Scheduler(Clock(), label="replay", master_seed=seed)
        log = []

        def worker(name, period):
            for step in range(5):
                log.append((sched.now, name, step))
                yield period

        for name in ("w1", "w2", "w3"):
            sched.spawn(worker(name, 100), label=name)
        sched.every(70, lambda: log.append((sched.now, "timer", -1)))
        sched.run_until(600)
        return log

    assert run(0xAB) == run(0xAB)


# -- slab pooling, tombstones, key order ------------------------------------------


def test_cancelled_timer_storm_compacts_heap():
    # Lazy deletion must not let a cancel storm pin the heap: once
    # tombstones dominate, the heap is rebuilt in place and pending()
    # falls back to roughly the live entry count.
    sched = make_sched()
    storm = [sched.at(1_000 + i, lambda: None) for i in range(1_000)]
    fired = []
    sched.at(5_000, lambda: fired.append(True), label="keeper")
    for timer in storm:
        timer.cancel()
    assert sched.pending() < 200          # ~1000 dead entries compacted away
    sched.run_until_idle()
    assert fired == [True]                # survivors still dispatch
    assert sched.pending() == 0


def test_compaction_preserves_survivor_order():
    # Cancelled entries leave the heap mid-storm; the survivors must
    # still dispatch in exactly their heap-key order.
    keys = [(100 + i % 10, i % 3) for i in range(400)]
    sched = make_sched(seed=11)
    order = []
    timers = [
        sched.at(time_ns, lambda i=i: order.append(i), priority=priority)
        for i, (time_ns, priority) in enumerate(keys)
    ]
    for i, timer in enumerate(timers):
        if i % 4:                          # cancel 75% -> trips compaction
            timer.cancel()
    assert sched.pending() < len(keys)     # compaction dropped tombstones
    sched.run_until_idle()
    assert order == [i for i in key_order(11, keys) if i % 4 == 0]
    assert sched.events_run == len(order) == 100
    assert sched.now == max(keys[i][0] for i in order)


def test_same_timestamp_batch_dispatches_in_key_order():
    # A same-instant batch resolves by (priority, seeded tiebreak, seq).
    keys = [(100, i % 3) for i in range(64)]
    sched = make_sched(seed=7)
    order = []
    for i, (time_ns, priority) in enumerate(keys):
        sched.at(time_ns, lambda i=i: order.append(i), priority=priority)
    sched.run_until_idle()
    assert order == key_order(7, keys)
    # The seeded tiebreak, not insertion order, decides within a priority.
    assert order != sorted(range(64), key=lambda i: keys[i][1])


def test_fast_and_legacy_loops_agree_under_cancel_storm():
    # The batched loop must dispatch a cancel storm's survivors exactly as
    # a one-pop-per-event loop would: in heap-key order, with the same
    # event count and final clock.
    keys = [(10 * (i % 7), 0) for i in range(300)]
    sched = make_sched(seed=3)
    order = []
    timers = [
        sched.at(time_ns, lambda i=i: order.append(i))
        for i, (time_ns, _) in enumerate(keys)
    ]
    for i, timer in enumerate(timers):
        if i % 3 == 0:
            timer.cancel()
    sched.run_until_idle()
    survivors = [i for i in key_order(3, keys) if i % 3]
    assert order == survivors
    assert sched.events_run == len(survivors) == 200
    assert sched.now == max(keys[i][0] for i in survivors)


def test_entry_pool_recycles_heap_slabs():
    sched = make_sched()
    for i in range(16):
        sched.at(i, lambda: None)
    assert sched._entry_pool == []
    sched.run_until_idle()
    assert len(sched._entry_pool) == 16    # popped slabs land in the pool
    recycled = {id(entry) for entry in sched._entry_pool}
    for i in range(16):
        sched.at(i, lambda: None)
    assert sched._entry_pool == []         # drained by the new schedules
    assert {id(entry) for entry in sched._heap} == recycled
    sched.run_until_idle()


def test_entry_pool_is_bounded():
    from repro.sim.sched import _ENTRY_POOL_MAX

    sched = make_sched()
    for i in range(_ENTRY_POOL_MAX + 512):
        sched.at(i, lambda: None)
    sched.run_until_idle()
    assert len(sched._entry_pool) == _ENTRY_POOL_MAX


def test_run_tolerates_duplicate_and_completed_waitables():
    sched = make_sched()

    def job():
        yield 10
        return "ok"

    done = Completion()
    done.set(42)
    task = sched.spawn(job())
    # Duplicates must not double-count in the O(1) completion countdown,
    # and an already-done waitable needs no events at all.
    assert sched.run(task, task, done, task) == ["ok", "ok", 42, "ok"]
    assert sched.run(done) == [42]
