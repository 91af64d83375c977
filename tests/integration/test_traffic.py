"""End-to-end serverless traffic over vmsh-net (PR 10 acceptance).

Eight functions on a two-shard fleet serve real request/response
frames through the fabric, while a debug shell attaches mid-traffic,
a second attach is killed by an armed fault plan and rolled back, and
a noisy neighbor floods a victim's ingress — all inside one
deterministic simulation.  With the snapshot pool, the instances
restored after a scale-down serve over NICs of their own: there is one
request path.
"""

import pytest

from repro.errors import ReproError
from repro.sim.rng import MASTER_SEED
from repro.testbed import Testbed
from repro.units import MSEC, SEC
from repro.usecases.fleet import FleetControlPlane
from repro.usecases.traffic import TrafficPlane, run_traffic


@pytest.fixture(scope="module")
def traffic_run():
    return run_traffic(seed=MASTER_SEED, requests=120)


def test_every_request_completes_over_the_fabric(traffic_run):
    tb, plane = traffic_run
    s = plane.summary()
    assert s["requests"] == 120
    assert s["completed"] == 120
    assert s["timeouts"] == 0
    assert s["fabric_delivered"] >= 2 * 120


def test_at_least_eight_vms_serve(traffic_run):
    tb, plane = traffic_run
    assert plane.servers_installed >= 8
    serving = [
        inst
        for inst in plane.fleet.live_instances()
        if inst.hypervisor.nics["net0"].frames_rx > 0
    ]
    assert len(serving) >= 8


def test_mid_traffic_attach_and_rollback_both_ran(traffic_run):
    tb, plane = traffic_run
    assert "attached" in plane.attach_log
    assert "detached" in plane.attach_log
    assert any(e.startswith("rolled-back:") for e in plane.attach_log)


def test_noisy_neighbor_flood_is_absorbed_as_junk(traffic_run):
    tb, plane = traffic_run
    assert plane.flood_frames > 0
    assert plane.junk_frames == plane.flood_frames
    # the flood cost the victim time but no request was lost to it
    assert plane.summary()["completed"] == 120


def test_latency_histogram_shape(traffic_run):
    tb, plane = traffic_run
    lat = plane.percentiles()
    assert set(lat) == {"p50", "p90", "p99", "p999", "max"}
    assert 0 < lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["p999"] <= lat["max"]
    # cold starts put a long tail above the warm median
    assert lat["p99"] > 5 * lat["p50"]


def test_closed_loop_mode_completes_all_requests():
    tb, plane = run_traffic(seed=MASTER_SEED, requests=64, mode="closed",
                            workers=8)
    s = plane.summary()
    assert s["completed"] == 64
    assert plane.servers_installed >= 8


def test_fabric_drops_surface_as_timeouts():
    tb, plane = run_traffic(seed=MASTER_SEED, requests=80, mode="closed",
                            chaos=(), drop_rate=0.03)
    s = plane.summary()
    assert s["fabric_dropped"] > 0
    assert s["timeouts"] > 0
    assert s["completed"] + s["timeouts"] == 80
    # timed-out requests stay out of the latency distribution
    assert len(plane.latencies_ns) == s["completed"]


def test_traffic_plane_needs_a_nic_fleet():
    tb = Testbed(seed=MASTER_SEED)
    with pytest.raises(ReproError, match="nic=True"):
        TrafficPlane(tb, FleetControlPlane(tb, shards=2))


def _pool_fleet(functions=8, shards=2, log_level="WARN"):
    """A NIC fleet with the snapshot pool and the autoscalers running."""
    tb = Testbed(seed=MASTER_SEED)
    fleet = FleetControlPlane(tb, shards=shards, snapshot_pool=True, nic=True,
                              max_inflight_per_shard=8, log_level=log_level)
    plane = TrafficPlane(tb, fleet)
    names = [f"fn-{i}" for i in range(functions)]
    for i, name in enumerate(names):
        fleet.deploy(name, lambda payload, i=i: {"fn": i, "echo": payload["i"]})
    fleet.start_autoscalers(tb.scheduler, period_ns=SEC)
    return tb, fleet, plane, names


def _idle(tb, ns=3 * SEC):
    """Let the autoscalers scale down every instance left idle."""
    tb.scheduler.run_until(tb.clock.now + ns)


def test_pool_restores_serve_over_their_own_nic():
    """Two phases of open-loop load, each followed by enough idle time
    for every instance to be scaled down: the second phase runs on pool
    restores, and each restore serves over a NIC of its own."""
    tb, fleet, plane, names = _pool_fleet()
    for _ in range(2):
        first = len(plane.tasks)
        tb.scheduler.run(tb.scheduler.spawn(
            plane.open_loop_task(names, 40, 2 * MSEC), label="traffic:pacer"
        ))
        tb.scheduler.run(*plane.tasks[first:])
        _idle(tb)
    s = plane.summary()
    assert (s["requests"], s["completed"], s["timeouts"]) == (80, 80, 0)
    assert s["fabric_delivered"] == 2 * 80
    assert tb.costs.count("faas_pool_hit") == 8
    assert s["servers"] == 16          # 8 cold boots, 8 restores
    assert fleet.live_instances() == []
    # each scaled-down VM took its port off the fabric as it exited
    assert [port.name for port in plane.fabric._ports.values()] == [
        "traffic-loadgen"
    ]


def test_request_after_a_pool_restore_runs_on_the_restored_instance():
    tb, fleet, plane, _ = _pool_fleet(functions=1, shards=1, log_level="INFO")
    platform = fleet.shards[0].platform

    def request():
        tb.scheduler.run(tb.scheduler.spawn(plane.request_task("fn-0", {"i": 0})))

    request()
    _idle(tb)                          # inst-1 is scaled down
    assert platform.live_instances() == []
    request()
    (restored,) = platform.live_instances()
    assert restored.instance_id == "inst-2"
    assert tb.costs.count("faas_pool_hit") == 1
    invokes = [line.instance_id for line in platform.logs
               if line.message.startswith("invoke fn-0")]
    assert invokes == ["inst-1", "inst-2"]
    assert restored.hypervisor.nics["net0"].frames_rx == 1
