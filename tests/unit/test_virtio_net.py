"""vmsh-net on the shared device core: frames, steering, negotiation.

The per-VMM quirk rows (``VIRTIO_NET_QUEUE_PAIRS_MAX``,
``VIRTIO_EVENT_IDX``) are pinned here too: a driver must not be able
to ack a feature its VMM never offered, and pair counts clamp to the
flavor's ceiling.
"""

import pytest

from repro.errors import VirtioError
from repro.hypervisors.flavors import (
    CloudHypervisor,
    Crosvm,
    Firecracker,
    Kvmtool,
    Qemu,
)
from repro.testbed import Testbed
from repro.virtio import constants as C
from repro.virtio.net import (
    BROADCAST_MAC,
    frame_dst,
    frame_payload,
    frame_src,
    make_frame,
)


def _nic_pair(flavor=Qemu, **launch_kwargs):
    tb = Testbed()
    kwargs = {"seccomp": False} if flavor is Firecracker else {}
    kwargs.update(launch_kwargs)
    hv = tb.launch(flavor, nic=True, **kwargs)
    return tb, hv, hv.guest.net_devices["eth0"], hv.nics["net0"]


# -- frame helpers -----------------------------------------------------------

def test_frame_roundtrip():
    frame = make_frame(b"\x02" * 6, b"\x04" * 6, b"hello")
    assert frame_dst(frame) == b"\x02" * 6
    assert frame_src(frame) == b"\x04" * 6
    assert frame_payload(frame) == b"hello"


def test_bad_mac_length_rejected():
    with pytest.raises(VirtioError):
        make_frame(b"\x02" * 5, b"\x04" * 6, b"x")


def test_oversized_frame_rejected():
    with pytest.raises(VirtioError):
        make_frame(b"\x02" * 6, b"\x04" * 6, b"\x00" * 4096)


# -- device/driver data path -------------------------------------------------

def test_guest_probes_nic_with_device_mac():
    _tb, hv, nic, device = _nic_pair()
    assert nic.mac == device.mac
    assert nic.link_up


def test_tx_frame_reaches_the_fabric_sink():
    _tb, hv, nic, device = _nic_pair()
    seen = []
    device.connect_tx(lambda frame, pair: seen.append((frame, pair)))
    frame = make_frame(BROADCAST_MAC, nic.mac, b"out")
    nic.send(frame)
    assert seen == [(frame, 0)]
    assert device.frames_tx == 1


def test_rx_frame_reaches_the_driver_callback():
    _tb, hv, nic, device = _nic_pair()
    got = []
    nic.on_receive(lambda frame, pair: got.append((frame, pair)))
    frame = make_frame(device.mac, b"\x02" * 6, b"in")
    device.deliver(frame)
    assert got == [(frame, 0)]
    assert device.frames_rx == 1


def test_rx_burst_keeps_frame_payloads_distinct():
    """Batched RX completions must not cross buffers: the driver
    harvests the whole batch before reposting any head (a reposted
    head can collide with a later completion in the same batch)."""
    _tb, hv, nic, device = _nic_pair()
    got = []
    nic.on_receive(lambda frame, pair: got.append(frame_payload(frame)))
    peer = b"\x02" * 6
    # Queue several frames while the flush is deferred by stealing the
    # ring's readiness, then let one delivery flush them all at once.
    device._pending_rx[0].extend(
        make_frame(device.mac, peer, b"frame-%d" % i) for i in range(4)
    )
    device.deliver(make_frame(device.mac, peer, b"frame-4"))
    assert got == [b"frame-%d" % i for i in range(5)]


def test_rx_backlog_drops_beyond_limit():
    _tb, hv, nic, device = _nic_pair()
    # fill the pending queue past the backlog with the ring stalled
    device.queues[0].ready = False
    frame = make_frame(device.mac, b"\x02" * 6, b"x")
    for _ in range(device.RX_BACKLOG + 5):
        device.deliver(frame)
    assert device.rx_dropped == 5


def test_runt_inbound_frame_rejected():
    _tb, hv, nic, device = _nic_pair()
    with pytest.raises(VirtioError):
        device.deliver(b"\x00" * 6)


# -- multi-queue negotiation and quirk rows ----------------------------------

FLAVOR_PAIR_CEILING = [
    (Qemu, 8),
    (Crosvm, 4),
    (Firecracker, 1),
    (Kvmtool, 1),
    (CloudHypervisor, 8),
]


@pytest.mark.parametrize("flavor,ceiling", FLAVOR_PAIR_CEILING)
def test_queue_pairs_clamp_to_the_flavor_ceiling(flavor, ceiling):
    _tb, hv, nic, device = _nic_pair(flavor, nic_queue_pairs=8)
    assert device.queue_pairs == ceiling
    assert nic.queue_pairs == ceiling
    assert len(nic.rx_rings) == ceiling
    assert len(nic.tx_rings) == ceiling


def test_single_pair_device_does_not_offer_mq():
    _tb, hv, nic, device = _nic_pair(Kvmtool, nic_queue_pairs=8)
    assert not device.device_features & C.VIRTIO_NET_F_MQ
    assert device.pairs_in_use == 1


def test_acking_unoffered_mq_raises():
    _tb, hv, nic, device = _nic_pair(Firecracker, nic_queue_pairs=4)
    with pytest.raises(VirtioError, match="unoffered"):
        nic.transport.write32(
            C.REG_DRIVER_FEATURES,
            nic.transport.features | C.VIRTIO_NET_F_MQ,
        )


def test_acking_event_idx_on_kvmtool_raises():
    _tb, hv, nic, device = _nic_pair(Kvmtool)
    assert not device.device_features & C.VIRTIO_RING_F_EVENT_IDX
    with pytest.raises(VirtioError, match="unoffered"):
        nic.transport.write32(
            C.REG_DRIVER_FEATURES,
            nic.transport.features | C.VIRTIO_RING_F_EVENT_IDX,
        )


def test_multiqueue_steering_spreads_flows():
    _tb, hv, nic, device = _nic_pair(Qemu, nic_queue_pairs=4)
    pairs_hit = set()
    got = []
    nic.on_receive(lambda frame, pair: got.append(pair))
    for i in range(32):
        src = bytes([0x02, 0, 0, 0, 0, i])
        device.deliver(make_frame(device.mac, src, b"flow"))
    pairs_hit.update(got)
    assert len(got) == 32
    assert len(pairs_hit) > 1, "flow hash uses more than one pair"
    # the same flow always lands on the same pair
    first = got[0]
    device.deliver(make_frame(device.mac, bytes([0x02, 0, 0, 0, 0, 0]), b"x"))
    assert got[-1] == first


def test_explicit_pair_delivery_bounds_checked():
    _tb, hv, nic, device = _nic_pair(Qemu, nic_queue_pairs=2)
    with pytest.raises(VirtioError):
        device.deliver(make_frame(device.mac, b"\x02" * 6, b"x"), pair=7)


@pytest.mark.parametrize("flavor, kicks, suppressed", [
    (Qemu, 1, 19),          # EVENT_IDX: one doorbell for the window
    (Kvmtool, 20, 0),       # always-notify: one doorbell per frame
], ids=["qemu", "kvmtool"])
def test_tx_burst_windows_are_doorbell_efficient(flavor, kicks, suppressed):
    tb, hv, nic, device = _nic_pair(flavor)
    assert nic.transport.event_idx == flavor.VIRTIO_EVENT_IDX
    sink = []
    device.connect_tx(lambda frame, pair: sink.append(frame))
    frames = [make_frame(BROADCAST_MAC, nic.mac, b"b%d" % i)
              for i in range(20)]
    before = tb.costs.count("kicks"), tb.costs.count("kick_suppressed")
    nic.send_burst(frames)
    assert sink == frames
    assert device.frames_tx == 20
    assert (tb.costs.count("kicks") - before[0],
            tb.costs.count("kick_suppressed") - before[1]) == (kicks, suppressed)
