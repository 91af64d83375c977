"""Fleet-scale byte-identity under every PR 8 fast path.

The hot-path work — slab-pooled heap entries, the zero-delay ready
ring, batched dispatch, interned metric handles, span levels, the
tracer's zero-copy emit — is only admissible if it never perturbs the
simulated execution.  This suite turns the whole optimized bundle on
at once (fast loop + ready ring + "fleet" span level + WARN logging)
and demands that two fresh same-seed control-plane runs export
**byte-identical** metrics and Perfetto JSON, at fleet size 8 and
again at 64 where the sharded admission paths and compaction actually
fire.
"""

from repro.testbed import Testbed
from repro.usecases.fleet import FleetControlPlane

from tests.chaos.conftest import MASTER_SEED

INVOCATIONS_PER_FN = 4


def _plane_exports(fleet, seed):
    """One optimized-bundle control-plane run -> (metrics, perfetto)."""
    tb = Testbed(seed=seed, obs_level="fleet")
    sched = tb.scheduler
    sched.fast = True
    sched.enable_ready_ring()
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
    # fast paths hiding all variation: a different seed explores a
    # different (still byte-reproducible) execution.
    metrics_a, _ = _plane_exports(8, MASTER_SEED)
    metrics_b, _ = _plane_exports(8, MASTER_SEED ^ 0x5A5A)
    assert metrics_a != metrics_b
