"""Unit coverage for the observability spine (``repro.obs``).

Everything here runs against a bare ``Clock`` — no testbed, no VMs —
so it pins the *mechanisms*: registry keying and type safety, span
nesting across tracks, the span stream its sinks see, the exporters'
formats and the trace-event validator.
"""

import json

import pytest

from repro.obs import Observability
from repro.obs.export import (
    metrics_json,
    perfetto_trace,
    prometheus_text,
    validate_trace_events,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.sim.clock import Clock
from repro.sim.sched import Scheduler


# -- metrics registry -----------------------------------------------------------


def test_registry_get_or_create_shares_objects():
    reg = MetricsRegistry()
    a = reg.scope("kvm", vm=7).counter("vmexits")
    b = reg.scope("kvm").counter("vmexits", vm=7)
    assert a is b
    a.inc(3)
    assert b.value == 3


def test_registry_scope_paths_and_labels_merge():
    reg = MetricsRegistry()
    child = reg.scope("virtio", "blk", device="d0").scope("q", queue=1)
    metric = child.counter("kicks")
    assert metric.labels == (("device", "d0"), ("queue", "1"))
    snap = reg.snapshot()
    assert list(snap) == ['virtio.blk.q.kicks{device="d0",queue="1"}']


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.gauge("x")


def test_registry_walk_is_scoped_and_sorted():
    reg = MetricsRegistry()
    reg.scope("b").counter("two")
    reg.scope("a").counter("one")
    reg.scope("ab").counter("three")       # prefix of neither scope
    keys = [key[0] for key, _ in reg.scope("a").walk()]
    assert keys == ["a"]
    all_keys = [key[0] for key, _ in reg.walk()]
    assert all_keys == sorted(all_keys)


def test_histogram_exact_samples():
    reg = MetricsRegistry()
    h = reg.histogram("depth")
    h.observe(1, n=3)
    h.observe(8)
    assert h.count == 4 and h.sum == 11
    assert reg.snapshot()["depth"]["samples"] == {"1": 3, "8": 1}


# -- spans ----------------------------------------------------------------------


def test_spans_nest_per_track():
    clock = Clock()
    rec = SpanRecorder(clock)
    outer = rec.begin("outer", track="t1")
    other = rec.begin("elsewhere", track="t2")
    inner = rec.begin("inner", track="t1")
    assert inner.parent_sid == outer.sid
    assert other.parent_sid is None        # separate track, separate stack
    clock.advance(100)
    rec.end(inner)
    rec.end(outer)
    assert inner.duration_ns == 100
    assert rec.open_spans() == [other]


def test_span_out_of_order_close_pops_abandoned_children():
    rec = SpanRecorder(Clock())
    outer = rec.begin("outer")
    rec.begin("abandoned")
    rec.end(outer)
    assert rec.open_spans() == []


def test_span_cap_drops_new_spans_keeps_history():
    rec = SpanRecorder(Clock(), max_spans=2)
    first = rec.begin("a")
    rec.begin("b")
    rec.begin("c")
    assert len(rec.spans) == 2 and rec.dropped_spans == 1
    assert rec.spans[0] is first           # history never evicted


def test_span_context_manager_records_failure_status():
    rec = SpanRecorder(Clock())
    with pytest.raises(ValueError):
        with rec.span("work"):
            raise ValueError("boom")
    assert rec.spans[0].attrs["status"] == "ValueError"


# -- exporters ------------------------------------------------------------------


def _small_hub():
    hub = Observability(Clock())
    hub.metrics.scope("kvm", vm=1).counter("vmexits").inc(5)
    hub.metrics.scope("blk").histogram("depth").observe(2, n=3)
    with hub.span("attach", track="a", pid=1):
        hub.clock_noop = None              # attrs only; no timing needed
    return hub


def test_metrics_json_is_sorted_and_stable():
    hub = _small_hub()
    text = metrics_json(hub.metrics)
    assert text == metrics_json(hub.metrics)
    loaded = json.loads(text)
    assert loaded['kvm.vmexits{vm="1"}'] == {"kind": "counter", "value": 5}


def test_prometheus_text_renders_counters_and_histograms():
    text = prometheus_text(_small_hub().metrics)
    assert '# TYPE vmsh_kvm_vmexits counter' in text
    assert 'vmsh_kvm_vmexits{vm="1"} 5' in text
    assert 'vmsh_blk_depth_bucket{le="2"} 3' in text
    assert 'vmsh_blk_depth_bucket{le="+Inf"} 3' in text
    assert 'vmsh_blk_depth_sum 6' in text
    assert 'vmsh_blk_depth_count 3' in text


def test_perfetto_trace_shape_and_validator_accept():
    clock = Clock()
    hub = Observability(clock)
    span = hub.spans.begin("attach", track="attach:1")
    clock.advance(2_000)
    hub.spans.begin("attach.step", track="attach:1", step="stop_vcpus")
    clock.advance(1_000)
    trace = perfetto_trace(hub.spans)
    assert validate_trace_events(trace) == []
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 2
    # Open spans render to the current clock and are flagged.
    assert all(e["args"]["open"] for e in xs)
    names = {e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"}
    assert "attach:1" in names


def test_validator_flags_malformed_traces():
    assert validate_trace_events({"displayTimeUnit": "ns"})
    assert validate_trace_events({"traceEvents": [{"ph": "X"}]})
    bad_dur = {"traceEvents": [
        {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
    ]}
    assert validate_trace_events(bad_dur)
    ok = {"traceEvents": [
        {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1}
    ]}
    assert validate_trace_events(ok) == []


def test_observability_ids_are_per_hub():
    clock = Clock()
    a, b = Observability(clock), Observability(clock)
    assert a.next_id("attach") == 1
    assert a.next_id("attach") == 2
    assert a.next_id("gateway") == 1       # independent streams per kind
    assert b.next_id("attach") == 1        # and per hub (determinism)


# -- the span stream ------------------------------------------------------------


def test_span_sinks_see_every_open_close_and_instant():
    clock = Clock()
    rec = SpanRecorder(clock, max_spans=2)
    seen = []
    rec.sinks.append(lambda kind, span: seen.append((kind, span.name)))
    outer = rec.begin("outer", track="t")
    clock.advance(5)
    rec.instant("mark", track="t")
    inner = rec.begin("inner", track="t")      # past max_spans: dropped
    rec.end(inner)
    rec.end(outer)
    assert seen == [
        ("open", "outer"), ("instant", "mark"), ("open", "inner"),
        ("close", "inner"), ("close", "outer"),
    ]
    assert rec.dropped_spans == 1
    assert rec.next_sid == 4                   # the cursor counts it too


def test_instant_nests_under_the_open_span_without_touching_the_stack():
    clock = Clock()
    rec = SpanRecorder(clock)
    outer = rec.begin("outer", track="t")
    clock.advance(7)
    mark = rec.instant("mark", track="t", name="x")  # "name" is an attr
    assert (mark.parent_sid, mark.start_ns, mark.end_ns) == (outer.sid, 7, 7)
    assert mark.attrs == {"name": "x"}
    assert rec.open_spans() == [outer]
    assert rec.instant("alone", track="u").parent_sid is None


# -- scheduler turns, kept as rows -------------------------------------------------


def _observed_scheduler(max_spans=250_000):
    clock = Clock()
    hub = Observability(clock, max_spans=max_spans)
    return Scheduler(clock, label="t", obs=hub), hub.spans


def test_open_turn_shows_mid_turn_and_parents_spans_on_its_track():
    sched, rec = _observed_scheduler()
    seen = {}

    def worker():
        seen["open"] = [(s.name, s.track, s.attrs) for s in rec.open_spans()]
        inner = rec.begin("work", track="task:w")
        rec.end(inner)
        mark = rec.instant("mark", track="task:w")
        seen["parents"] = (inner.parent_sid, mark.parent_sid)
        yield
        rec.begin("abandoned", track="task:w")    # the turn's close pops it
        yield 5

    rec.instant("before", track="zeta")
    sched.run(sched.spawn(worker(), label="w"))
    rec.instant("after", track="alpha")
    assert rec.tracks() == ["zeta", "task:w", "alpha"]    # first-use order
    assert seen["open"] == [("sched.turn", "task:w", {"turn": 1})]
    turns = rec.find("sched.turn")
    assert [t.attrs["turn"] for t in turns] == [1, 2, 3]
    assert seen["parents"] == (turns[0].sid, turns[0].sid)
    abandoned, = rec.find("abandoned")
    assert abandoned.parent_sid == turns[1].sid and abandoned.end_ns is None
    assert rec.open_spans() == []
    assert [s.sid for s in rec.spans] == list(range(1, rec.next_sid))
    assert len(rec) == len(rec.spans) == rec.next_sid - 1
    assert (turns[2].start_ns, turns[2].attrs.get("outcome")) == (5, "return")


def test_turn_outcomes_return_and_exception_name():
    sched, rec = _observed_scheduler()

    def ok():
        yield
        return 7

    def boom():
        yield
        raise KeyError("x")

    good, bad = sched.spawn(ok(), label="ok"), sched.spawn(boom(), label="boom")
    sched.run_until_idle()
    assert good.result() == 7 and isinstance(bad.error, KeyError)
    outcomes = {
        (t.track, t.attrs["turn"]): t.attrs.get("outcome")
        for t in rec.find("sched.turn")
    }
    assert outcomes == {
        ("task:ok", 1): None, ("task:ok", 2): "return",
        ("task:boom", 1): None, ("task:boom", 2): "KeyError",
    }
    # Same as the close event a sink would have seen: the turn number
    # first, the outcome merged in at close.
    last, = rec.find("sched.turn", track="task:ok")[1:]
    assert list(last.attrs) == ["turn", "outcome"]
    assert last.end_ns is not None and last.parent_sid is None


def test_turns_past_max_spans_are_dropped_but_reach_sinks():
    sched, rec = _observed_scheduler(max_spans=3)
    events = []
    rec.sinks.append(
        lambda kind, span: events.append((kind, span.sid, span.attrs.get("turn")))
    )

    def worker():
        for _ in range(3):
            yield

    sched.run(sched.spawn(worker(), label="w"))
    assert len(rec) == 3 and len(rec.spans) == 3
    assert rec.dropped_spans == 1 and rec.next_sid == 5
    assert events == [
        (kind, sid, sid) for sid in range(1, 5) for kind in ("open", "close")
    ]
    assert [s.attrs["turn"] for s in rec.spans] == [1, 2, 3]


# -- handle cache (PR 8) --------------------------------------------------------


def test_handle_cache_reuses_metric_without_tree_walk():
    reg = MetricsRegistry()
    scope = reg.scope("sched", loop="main")
    first = scope.counter("events_dispatched")
    # Same call shape resolves through the interned handle cache to the
    # identical object — and the cache is shared across scope() copies.
    assert scope.counter("events_dispatched") is first
    assert reg.scope("sched", loop="main").counter("events_dispatched") is first
    assert len(reg._handles) == 1


def test_handle_cache_distinguishes_labels_and_kinds():
    reg = MetricsRegistry()
    a = reg.scope("fleet", shard=0).counter("invocations")
    b = reg.scope("fleet", shard=1).counter("invocations")
    assert a is not b
    a.inc()
    assert (a.value, b.value) == (1, 0)


def test_handle_cache_tolerates_unhashable_labels():
    reg = MetricsRegistry()
    # Unhashable label values can't be cache keys; the slow path must
    # still serve them (and keep serving the same object).
    a = reg.counter("odd", tags=["x"])
    b = reg.counter("odd", tags=["x"])
    assert a is b
    assert len(reg._handles) == 0


def test_discard_purges_stale_handles():
    reg = MetricsRegistry()
    counter = reg.scope("kvm", vm=3).counter("vmexits")
    counter.inc(7)
    reg.scope("kvm", vm=3).discard("vmexits")
    fresh = reg.scope("kvm", vm=3).counter("vmexits")
    # A cached handle surviving discard() would resurrect the dead
    # object — and its stale count — at the same call site.
    assert fresh is not counter
    assert fresh.value == 0

