"""NetFabric unit behavior: routing, timing, contention, drops."""

import pytest

from repro.errors import VmshError
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.sim.netfab import NetFabric
from repro.sim.sched import Scheduler
from repro.virtio.net import make_frame


def _fabric(label, **kwargs):
    clock = Clock()
    return NetFabric(Scheduler(clock, label=label), CostModel(clock), **kwargs)


@pytest.fixture()
def fab():
    # CostParams' links: 50 us one way, 1,250 B/us.
    return _fabric("netfab-test")


def _count(fab, name):
    """One of the fabric's ``netfab`` counters, read from the registry."""
    scope = fab.costs.obs.metrics.scope("netfab", fabric="netfab")
    return scope.counter(name).value


def _pair(fab):
    a = fab.attach("a")
    b = fab.attach("b")
    got_a, got_b = [], []
    a.connect(got_a.append)
    b.connect(got_b.append)
    return a, b, got_a, got_b


def test_unicast_routes_by_destination_mac(fab):
    a, b, got_a, got_b = _pair(fab)
    frame = make_frame(b.mac, a.mac, b"hello")
    a.transmit(frame)
    fab.scheduler.run_until_idle()
    assert got_b == [frame]
    assert got_a == []
    assert _count(fab, "frames") == 1
    assert b.rx_frames == 1 and a.tx_frames == 1


def test_broadcast_floods_every_other_port(fab):
    a, b, got_a, got_b = _pair(fab)
    c = fab.attach("c")
    got_c = []
    c.connect(got_c.append)
    frame = make_frame(b"\xff" * 6, a.mac, b"all")
    a.transmit(frame)
    fab.scheduler.run_until_idle()
    assert got_b == [frame] and got_c == [frame]
    assert got_a == [], "no self-delivery on broadcast"


def test_unknown_destination_counts_unrouted(fab):
    a, b, got_a, got_b = _pair(fab)
    a.transmit(make_frame(b"\x0a" * 6, a.mac, b"void"))
    fab.scheduler.run_until_idle()
    assert _count(fab, "unrouted") == 1
    assert _count(fab, "frames") == 0


def test_runt_frame_rejected(fab):
    a, _b, _ga, _gb = _pair(fab)
    with pytest.raises(VmshError):
        fab.transmit(a, b"\x00" * 6)


def test_duplicate_mac_rejected(fab):
    a = fab.attach("a")
    with pytest.raises(VmshError):
        fab.attach("imposter", mac=a.mac)


def test_frames_take_latency_plus_serialization(fab):
    a, b, _ga, got_b = _pair(fab)
    arrival = []
    b.connect(lambda f: arrival.append(fab.scheduler.now))
    frame = make_frame(b.mac, a.mac, b"\x00" * 113)  # 125 bytes total
    a.transmit(frame)
    fab.scheduler.run_until_idle()
    # 125B at 1250 B/us = 100ns serialization, paid at egress AND
    # ingress, plus 50us one-way latency.
    assert arrival == [100 + 50_000 + 100]


def test_flooder_delays_the_victims_other_traffic(fab):
    a, b, _ga, _gb = _pair(fab)
    flooder = fab.attach("flooder")
    small_at = []
    b.connect(lambda f: small_at.append(fab.scheduler.now)
              if f[12:] == b"small" else None)
    small = make_frame(b.mac, a.mac, b"small")
    ser = fab.serialization_ns(len(small))
    unloaded = 2 * ser + fab.latency_ns
    for _ in range(64):
        flooder.transmit(make_frame(b.mac, flooder.mac, b"\x00" * 1238))
    a.transmit(small)
    fab.scheduler.run_until_idle()
    # the small frame queued behind the flood at the victim's ingress:
    # 64 flood frames of 1250B each occupy 64us of ingress time on top
    # of the small frame's ~50us unloaded delivery.
    assert small_at and small_at[0] > unloaded + 60_000


def test_seeded_drops_are_deterministic():
    def run(seed):
        fab = _fabric("drops", master_seed=seed, drop_rate=0.2)
        a = fab.attach("a")
        b = fab.attach("b")
        b.connect(lambda f: None)
        for i in range(100):
            a.transmit(make_frame(b.mac, a.mac, b"%d" % i))
        fab.scheduler.run_until_idle()
        return _count(fab, "dropped"), _count(fab, "frames")

    first = run(1234)
    assert first == run(1234)
    assert first[0] > 0 and first[1] > 0
    assert first != run(5678)


def test_alloc_mac_is_locally_administered_and_unique(fab):
    macs = {fab.alloc_mac() for _ in range(16)}
    assert len(macs) == 16
    assert all(m.startswith(b"\x52\x54\x00") for m in macs)


def test_detach_makes_port_unroutable(fab):
    a, b, _ga, got_b = _pair(fab)
    fab.detach(b)
    a.transmit(make_frame(b.mac, a.mac, b"gone"))
    fab.scheduler.run_until_idle()
    assert got_b == []
    assert _count(fab, "unrouted") == 1


def test_frame_to_a_port_that_left_in_flight_is_unrouted(fab):
    a, b, _ga, got_b = _pair(fab)
    a.transmit(make_frame(b.mac, a.mac, b"on the wire"))
    fab.detach(b)                       # e.g. its VM exited
    fab.scheduler.run_until_idle()
    assert got_b == []
    assert _count(fab, "unrouted") == 1
    assert _count(fab, "frames") == 0
