"""Observability exports are part of the determinism contract.

PR 4's fleet suite pins the span stream of its own fleet run; this one
pins the PR 5 exports: the JSON metrics snapshot and the Perfetto span
trace of the canonical observed fleet run must be
byte-identical across two same-seed runs — span IDs, label order,
histogram sample keys and all — and must diverge across seeds (the
interleaving differs *and* the seed gauge differs).
"""

import json

from repro.bench.fleet_obs import run_observed_fleet
from repro.obs.export import validate_trace_events

from tests.chaos.conftest import MASTER_SEED


def _exports(seed):
    tb = run_observed_fleet(seed)
    return tb.obs.metrics_json(), tb.obs.perfetto_json()


def test_obs_exports_same_seed_byte_identical():
    metrics_a, trace_a = _exports(MASTER_SEED)
    metrics_b, trace_b = _exports(MASTER_SEED)
    assert metrics_a == metrics_b
    assert trace_a == trace_b


def test_obs_exports_different_seed_diverge():
    metrics_a, trace_a = _exports(MASTER_SEED)
    metrics_b, trace_b = _exports(MASTER_SEED + 1)
    assert metrics_a != metrics_b
    assert trace_a != trace_b


def test_fleet_perfetto_trace_is_valid_and_nested():
    """The 8-VM trace loads: schema-clean, attach steps under the root."""
    tb = run_observed_fleet(MASTER_SEED)
    trace = json.loads(tb.obs.perfetto_json())
    assert validate_trace_events(trace) == []

    recorder = tb.obs.spans
    steps = recorder.find("attach.step")
    assert len(steps) >= 11          # at least one full pipeline's steps
    roots = {s.sid for s in recorder.find("attach")}
    assert roots
    # Every step span is parented (directly) under an attach root.
    assert all(s.parent_sid in roots for s in steps)
    # The rolled-back attempt nests its rollback under the same root.
    rollbacks = recorder.find("txn.rollback")
    assert len(rollbacks) == 1 and rollbacks[0].parent_sid in roots


def test_fleet_metrics_snapshot_reflects_the_run():
    tb = run_observed_fleet(MASTER_SEED)
    snap = tb.obs.metrics_snapshot()

    def total(name):
        return sum(
            v["value"] for k, v in snap.items()
            if k.split("{")[0] == name and v["kind"] == "counter"
        )

    assert total("txn.commits") == 4          # neighbour + 2 + monitor
    assert total("txn.rollbacks") == 1
    assert total("faults.injected") == 1
    assert total("kvm.vmexits") > 0
    assert total("sched.events_dispatched") > 0
    assert total("vring.used_publishes") > 0


def test_a_sink_does_not_change_the_recorded_run():
    """Turn rows take one path with or without a sink: the traffic
    scenario exports the same trace, metrics and span count either
    way, while the sink sees every turn open and close."""
    from repro.replay.scenarios import run_scenario

    seen = []

    def tap(tb):
        tb.obs.spans.sinks.append(lambda kind, span: seen.append(span.name))

    params = {"seed": MASTER_SEED}
    plain = run_scenario("traffic", params).testbed
    tapped = run_scenario("traffic", params, on_testbed=tap).testbed
    assert tapped.obs.perfetto_json() == plain.obs.perfetto_json()
    assert tapped.obs.metrics_json() == plain.obs.metrics_json()
    assert len(tapped.obs.spans.spans) == len(plain.obs.spans.spans)
    turns = len(plain.obs.spans.find("sched.turn"))
    assert turns and seen.count("sched.turn") == 2 * turns
