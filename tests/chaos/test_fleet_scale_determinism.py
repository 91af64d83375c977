"""Fleet-scale byte-identity of the sharded control plane.

Two fresh same-seed control-plane runs on a default ``Testbed`` (the
batched dispatch loop with seeded tie-breaks, slab-pooled heap
entries, interned metric handles and every span recorded) must export
**byte-identical** metrics and Perfetto JSON, at fleet size 8 (one
shard) and again at 64 (four shards).  Every request is spawned at
once, so each shard's 4-slot in-flight cap throttles and queues
requests at both sizes.  A second seed must give a different, equally
reproducible run.

These runs cancel a handful of timers and never compact the heap;
``test_cancelled_timer_storm_compacts_heap`` and
``test_compaction_preserves_survivor_order`` (tests/unit/test_sched.py)
cover compaction.
"""

from repro.testbed import Testbed
from repro.usecases.fleet import FleetControlPlane

from tests.chaos.conftest import MASTER_SEED

INVOCATIONS_PER_FN = 4


def _plane_exports(fleet, seed):
    """One control-plane run -> (metrics, perfetto)."""
    tb = Testbed(seed=seed)
    sched = tb.scheduler
    shards = max(1, fleet // 16)
    plane = FleetControlPlane(
        tb,
        shards=shards,
        max_inflight_per_shard=4,
        log_level="WARN",
    )
    names = [f"fn-{n}" for n in range(fleet)]
    for name in names:
        plane.deploy(name, lambda payload: {"ok": payload["n"]})
    plane.start_autoscalers(sched, period_ns=1_000_000_000)
    total = fleet * INVOCATIONS_PER_FN
    tasks = [
        sched.spawn(plane.invoke_task(names[k % fleet], {"n": k}), label="inv")
        for k in range(total)
    ]
    results = sched.run(*tasks, max_events=20_000_000)
    plane.stop_autoscalers()
    assert results == [{"ok": k} for k in range(total)]
    return tb.obs.metrics_json(), tb.obs.perfetto_json()


def _assert_byte_identical(fleet, seed):
    metrics_a, trace_a = _plane_exports(fleet, seed)
    metrics_b, trace_b = _plane_exports(fleet, seed)
    assert metrics_a == metrics_b
    assert trace_a == trace_b
    # Not a trivial pass: the runs actually exercised the plane.
    assert "fleet" in metrics_a and "invocations" in metrics_a
    assert "traceEvents" in trace_a


def test_fleet8_exports_are_byte_identical():
    _assert_byte_identical(8, MASTER_SEED)


def test_fleet64_exports_are_byte_identical():
    _assert_byte_identical(64, MASTER_SEED)


def test_fleet8_second_seed_differs_but_reproduces():
    # The identity is a property of the seed, not an accident of the
    # run hiding all variation: a different seed explores a different
    # (still byte-reproducible) execution.
    metrics_a, _ = _plane_exports(8, MASTER_SEED)
    metrics_b, _ = _plane_exports(8, MASTER_SEED ^ 0x5A5A)
    assert metrics_a != metrics_b
