"""Traffic-plane determinism: same seed, same everything.

The traffic run layers open/closed-loop load, the net fabric, chaos
legs and the fleet control plane on one scheduler — the acceptance
bar is that the *entire composite* replays bit-identically per seed,
and that the seed actually matters.  So must a NIC fleet with the
snapshot pool, whose restores plug into fresh fabric ports.
"""

from repro.testbed import Testbed
from repro.units import MSEC, SEC
from repro.usecases.fleet import FleetControlPlane
from repro.usecases.traffic import TrafficPlane, run_traffic

from .conftest import MASTER_SEED


def _fingerprint(plane):
    return (plane.summary(), tuple(plane.latencies_ns))


def test_open_loop_traffic_is_seed_deterministic():
    a = _fingerprint(run_traffic(seed=MASTER_SEED, requests=96)[1])
    b = _fingerprint(run_traffic(seed=MASTER_SEED, requests=96)[1])
    assert a == b


def test_closed_loop_traffic_is_seed_deterministic():
    a = _fingerprint(
        run_traffic(seed=MASTER_SEED, requests=64, mode="closed")[1]
    )
    b = _fingerprint(
        run_traffic(seed=MASTER_SEED, requests=64, mode="closed")[1]
    )
    assert a == b


def test_different_seed_diverges():
    a = _fingerprint(
        run_traffic(seed=MASTER_SEED, requests=64, mode="closed",
                    drop_rate=0.05)[1]
    )
    b = _fingerprint(
        run_traffic(seed=MASTER_SEED + 1, requests=64, mode="closed",
                    drop_rate=0.05)[1]
    )
    assert a != b


def test_chaos_legs_do_not_break_determinism():
    """All three chaos legs plus fabric drops, twice: identical."""
    kwargs = dict(seed=MASTER_SEED, requests=80, drop_rate=0.02)
    a = _fingerprint(run_traffic(**kwargs)[1])
    b = _fingerprint(run_traffic(**kwargs)[1])
    assert a == b
    summary = a[0]
    assert summary["fabric_dropped"] > 0
    assert "attached" in summary["attach_log"]


def _pool_traffic(seed):
    """Two phases of 40 open-loop requests on a NIC fleet with the
    snapshot pool, each followed by 3 s of idle: 8 cold boots, then
    8 pool restores serving over their own NICs."""
    tb = Testbed(seed=seed)
    fleet = FleetControlPlane(tb, shards=2, snapshot_pool=True, nic=True,
                              max_inflight_per_shard=8, log_level="WARN")
    plane = TrafficPlane(tb, fleet)
    names = [f"fn-{i}" for i in range(8)]
    for i, name in enumerate(names):
        fleet.deploy(name, lambda payload, i=i: {"fn": i, "echo": payload["i"]})
    fleet.start_autoscalers(tb.scheduler, period_ns=SEC)
    for _ in range(2):
        first = len(plane.tasks)
        tb.scheduler.run(tb.scheduler.spawn(
            plane.open_loop_task(names, 40, 2 * MSEC), label="traffic:pacer"
        ))
        tb.scheduler.run(*plane.tasks[first:])
        tb.scheduler.run_until(tb.clock.now + 3 * SEC)
    return tb, plane


def test_nic_fleet_with_snapshot_pool_is_seed_deterministic():
    runs = [_pool_traffic(MASTER_SEED) for _ in range(2)]
    a, b = ((_fingerprint(plane), tb.obs.metrics_json()) for tb, plane in runs)
    assert a == b
    tb, plane = runs[0]
    assert plane.summary()["completed"] == 80
    assert tb.costs.count("faas_pool_hit") == 8
