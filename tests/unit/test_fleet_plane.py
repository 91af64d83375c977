"""Admission control of the sharded serverless control plane.

Each shard caps its in-flight invocations; a request over the cap parks
FIFO and is handed the slot of the next request that finishes, so the
cap is never exceeded and parked requests are served in arrival order.
"""

from repro.testbed import Testbed
from repro.units import MSEC
from repro.usecases.fleet import FleetControlPlane

CAP = 2
#: arrival spacing: far below the route charge, so the later
#: requests queue behind the first two
GAP_NS = MSEC // 10


def _warm_fleet(names):
    tb = Testbed()
    fleet = FleetControlPlane(tb, max_inflight_per_shard=CAP)
    shard = fleet.shards[0]
    started = []

    def handler(payload):
        started.append((payload["k"], shard.inflight))
        return {"k": payload["k"]}

    for name in names:
        fleet.deploy(name, handler)
    warm = [tb.scheduler.spawn(fleet.invoke_task(name, {"k": -1}))
            for name in names]
    tb.scheduler.run(*warm)
    del started[:]
    return tb, fleet, shard, started


def _arrive(tb, invoke, n):
    """Spawn ``invoke(k)`` for k in 0..n-1, one every ``GAP_NS``."""
    tasks = []
    for k in range(n):
        tb.scheduler.after(k * GAP_NS, lambda k=k: tasks.append(
            tb.scheduler.spawn(invoke(k), label=f"req{k}")))
    tb.scheduler.run_until_idle()
    return tasks


def test_invoke_task_never_exceeds_the_cap_and_serves_parked_requests_fifo():
    tb, fleet, shard, started = _warm_fleet(["f", "g"])
    tasks = _arrive(tb, lambda k: fleet.invoke_task("fg"[k % 2], {"k": k}), 6)
    assert [t.result() for t in tasks] == [{"k": k} for k in range(6)]
    assert [k for k, _ in started] == list(range(6))
    assert all(inflight <= CAP for _, inflight in started)
    assert fleet.total_throttled() == 4
    assert shard.inflight == 0 and not shard.waiters


def test_invoke_over_task_hands_freed_slots_to_parked_requests_fifo():
    tb, fleet, shard, started = _warm_fleet(["f"])
    # Request 0 holds its slot far longer than request 1, so slots free
    # up out of arrival order; the parked requests still run in order.
    holds = [10 * MSEC, MSEC, MSEC // 2, 2 * MSEC, MSEC // 4, MSEC]
    running = []
    peak = [0]

    def invoke(k):
        def execute(shard, instance):
            started.append((k, shard.inflight))
            running.append(k)
            peak[0] = max(peak[0], len(running))
            yield holds[k]
            running.remove(k)
            return {"k": k}

        return fleet.invoke_over_task("f", execute)

    tasks = _arrive(tb, invoke, len(holds))
    assert [t.result() for t in tasks] == [{"k": k} for k in range(6)]
    assert [k for k, _ in started] == list(range(6))
    assert all(inflight <= CAP for _, inflight in started)
    assert peak[0] == CAP
    assert fleet.total_throttled() == 4
    assert shard.inflight == 0 and not shard.waiters
