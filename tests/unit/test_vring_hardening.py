"""DeviceRing descriptor-parse hardening (PR 7 satellite).

A hostile or buggy guest driver can publish garbage: descriptor
loops, out-of-range indices, zero-length buffers, addresses outside
any memslot, a corrupt ``used_event``.  The device side must reject
each with :class:`VirtioError` (counted per-reason in the metrics
registry as ``vring.parse_errors{reason=...}``) and the queue must
stay usable afterwards — never crash, never corrupt, never wedge.
"""

import pytest

from repro.errors import VirtioError
from repro.mem.physmem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.replay.scenarios import VIRTIO_ABUSES, AttachCase, run_attach_case
from repro.units import MiB
from repro.virtio.constants import VRING_DESC_F_NEXT
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.vring import AVAIL_HEADER, DESC_SIZE, DeviceRing, DriverRing

QUEUE = 8
DESC, AVAIL, USED = 0x1000, 0x2000, 0x3000


class BoundedMemory(GuestMemoryAccessor):
    """Raw memory accessor that can also answer :meth:`covers` — the
    pre-check hook the hardened parser uses to veto unmapped GPAs."""

    def __init__(self, size_bytes):
        super().__init__(MetricsRegistry())
        self._mem = PhysicalMemory(size_bytes)
        self._size = size_bytes

    def covers(self, gpa, length):
        return 0 <= gpa and gpa + length <= self._size

    def read(self, gpa, length):
        return self._mem.read(gpa, length)

    def write(self, gpa, data):
        self._mem.write(gpa, data)


@pytest.fixture()
def harness():
    registry = MetricsRegistry()
    scope = registry.scope("vring", device="test", queue=0)
    mem = BoundedMemory(1 * MiB)
    driver = DriverRing(mem, DESC, AVAIL, USED, QUEUE)
    device = DeviceRing(mem, DESC, AVAIL, USED, QUEUE, metrics=scope)
    return registry, mem, driver, device


def _write_desc(mem, index, addr, length, flags, nxt):
    base = DESC + index * DESC_SIZE
    mem.write_u64(base, addr)
    mem.write_u32(base + 8, length)
    mem.write_u16(base + 12, flags)
    mem.write_u16(base + 14, nxt)


def _publish(mem, driver, head):
    slot = driver._avail_idx % driver.size
    mem.write_u16(AVAIL + AVAIL_HEADER + slot * 2, head)
    driver._avail_idx = (driver._avail_idx + 1) & 0xFFFF
    mem.write_u16(AVAIL + 2, driver._avail_idx)


def _counter_value(registry, reason):
    for key, metric in registry.walk():
        if key[1] == "parse_errors" and ("reason", reason) in key[2]:
            return metric.value
    return 0


def _pop_one(device):
    heads = device.pop_available()
    assert heads, "driver published a chain"
    return heads[0]


def test_descriptor_self_loop_raises(harness):
    registry, mem, driver, device = harness
    _write_desc(mem, 0, 0x8000, 64, VRING_DESC_F_NEXT, 0)
    _publish(mem, driver, 0)
    with pytest.raises(VirtioError, match="loop"):
        device.read_chain(_pop_one(device))
    assert _counter_value(registry, "desc_loop") == 1


def test_descriptor_cross_loop_raises(harness):
    registry, mem, driver, device = harness
    _write_desc(mem, 0, 0x8000, 64, VRING_DESC_F_NEXT, 1)
    _write_desc(mem, 1, 0x8000, 64, VRING_DESC_F_NEXT, 0)
    _publish(mem, driver, 0)
    with pytest.raises(VirtioError, match="loop"):
        device.read_chain(_pop_one(device))
    assert _counter_value(registry, "desc_loop") == 1


def test_out_of_range_descriptor_index_raises(harness):
    registry, mem, driver, device = harness
    _write_desc(mem, 0, 0x8000, 64, VRING_DESC_F_NEXT, QUEUE + 3)
    _publish(mem, driver, 0)
    with pytest.raises(VirtioError, match="out of range"):
        device.read_chain(_pop_one(device))
    assert _counter_value(registry, "desc_index") == 1


def test_zero_length_descriptor_raises(harness):
    registry, mem, driver, device = harness
    _write_desc(mem, 0, 0x8000, 0, 0, 0)
    _publish(mem, driver, 0)
    with pytest.raises(VirtioError, match="zero-length"):
        device.read_chain(_pop_one(device))
    assert _counter_value(registry, "zero_len") == 1


def test_unmapped_gpa_descriptor_raises(harness):
    registry, mem, driver, device = harness
    _write_desc(mem, 0, 0x40_0000_0000, 64, 0, 0)
    _publish(mem, driver, 0)
    with pytest.raises(VirtioError, match="unmapped"):
        device.read_chain(_pop_one(device))
    assert _counter_value(registry, "bad_gpa") == 1


def test_avail_overflow_raises(harness):
    registry, mem, driver, device = harness
    mem.write_u16(AVAIL + 2, QUEUE + 5)     # idx runs past queue size
    with pytest.raises(VirtioError, match="advanced past"):
        device.pop_available()
    assert _counter_value(registry, "avail_overflow") == 1


def test_valid_chain_still_parses_after_rejection(harness):
    """The queue survives rejected garbage: a well-formed chain
    published afterwards parses normally."""
    registry, mem, driver, device = harness
    _write_desc(mem, 0, 0x8000, 0, 0, 0)
    _publish(mem, driver, 0)
    with pytest.raises(VirtioError):
        device.read_chain(_pop_one(device))
    # The driver API reuses descriptor 0 for a legitimate chain.
    driver._free = list(range(QUEUE))
    head = driver.add_chain([(0x8000, 64, False), (0x9000, 32, True)])
    driver.kick_prepare()
    chain = device.read_chain(_pop_one(device))
    assert chain[0].index == head
    assert [(d.addr, d.length, d.device_writable) for d in chain] == [
        (0x8000, 64, False),
        (0x9000, 32, True),
    ]
    assert _counter_value(registry, "zero_len") == 1


def test_parse_errors_unmetered_ring_still_raises():
    """A scope no one reads: the error is raised, not only counted."""
    mem = BoundedMemory(1 * MiB)
    driver = DriverRing(mem, DESC, AVAIL, USED, QUEUE)
    device = DeviceRing(mem, DESC, AVAIL, USED, QUEUE,
                        metrics=MetricsRegistry().scope("vring"))
    _write_desc(mem, 0, 0x8000, 0, 0, 0)
    _publish(mem, driver, 0)
    with pytest.raises(VirtioError, match="zero-length"):
        device.read_chain(device.pop_available()[0])


#: the vring parse-error reason each abuse must trip.  The net abuses
#: reuse the ring-level validation paths (their names just say which
#: ring they scribble on); ``None`` marks abuses rejected elsewhere —
#: EVENT_IDX hint clamping and the net device's direction check raise
#: before any descriptor parse.
_ABUSE_REASON = {
    "bogus_used_event": None,
    "net_tx_desc_loop": "desc_loop",
    "net_tx_bad_gpa": "bad_gpa",
    "net_rx_bad_dir": None,
}


@pytest.mark.parametrize("abuse", VIRTIO_ABUSES)
def test_full_stack_survives_hostile_driver(abuse):
    """End to end: an attached guest abuses one of its virtio queues;
    the device rejects the garbage and the queue keeps working."""
    result = run_attach_case(AttachCase(virtio_abuse=abuse))
    assert result.outcome == "attached"
    assert result.violations == []
    reason = _ABUSE_REASON.get(abuse, abuse)
    if reason is not None:
        assert f"ctr:vring.parse_errors{{reason={reason}}}" in result.coverage
