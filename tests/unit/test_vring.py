"""Split virtqueues: descriptor chains, avail/used rings, batching."""

import pytest

from repro.errors import VirtioError
from repro.kvm.api import KvmSystem
from repro.host.kernel import HostKernel
from repro.mem.physmem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.units import MiB
from repro.virtio.core import GuestTxPath
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.vring import (
    DESC_SIZE,
    DeviceRing,
    DriverRing,
    avail_ring_size,
    desc_table_size,
    used_ring_size,
)


class DirectMemory(GuestMemoryAccessor):
    """Adapter giving PhysicalMemory the accessor interface."""

    def __init__(self, mem: PhysicalMemory):
        super().__init__(MetricsRegistry())
        self._mem = mem

    def read(self, gpa, length):
        return self._mem.read(gpa, length)

    def write(self, gpa, data):
        self._mem.write(gpa, data)


@pytest.fixture()
def rings():
    mem = DirectMemory(PhysicalMemory(1 * MiB))
    size = 8
    desc, avail, used = 0x1000, 0x2000, 0x3000
    driver = DriverRing(mem, desc, avail, used, size)
    device = DeviceRing(mem, desc, avail, used, size,
                        metrics=MetricsRegistry().scope("vring"))
    return mem, driver, device


def test_ring_sizes():
    assert desc_table_size(8) == 8 * DESC_SIZE
    assert avail_ring_size(8) == 4 + 16
    assert used_ring_size(8) == 4 + 64


def test_queue_size_must_be_power_of_two():
    mem = DirectMemory(PhysicalMemory(1 * MiB))
    with pytest.raises(VirtioError):
        DriverRing(mem, 0x1000, 0x2000, 0x3000, 6)


def test_chain_roundtrip(rings):
    mem, driver, device = rings
    head = driver.add_chain([(0x10000, 100, False), (0x20000, 200, True)])
    heads = device.pop_available()
    assert heads == [head]
    chain = device.read_chain(head)
    assert [(d.addr, d.length, d.device_writable) for d in chain] == [
        (0x10000, 100, False),
        (0x20000, 200, True),
    ]
    device.push_used_batch([(head, 200)])
    completed = driver.collect_used()
    assert completed == [(head, 200)]


def test_descriptors_recycle(rings):
    _, driver, device = rings
    for round_ in range(30):  # 30 rounds of 2-desc chains on an 8-deep queue
        head = driver.add_chain([(0x1000, 1, False), (0x2000, 1, True)])
        assert device.pop_available() == [head]
        device.push_used_batch([(head, 0)])
        driver.collect_used()
    assert driver.free_descriptors == 8


def test_queue_full(rings):
    _, driver, _ = rings
    for _ in range(4):
        driver.add_chain([(0x1000, 1, False), (0x2000, 1, True)])
    with pytest.raises(VirtioError, match="queue full"):
        driver.add_chain([(0x1000, 1, False)])


def test_empty_chain_rejected(rings):
    _, driver, _ = rings
    with pytest.raises(VirtioError):
        driver.add_chain([])


def test_multiple_chains_one_notify(rings):
    _, driver, device = rings
    h1 = driver.add_chain([(0x1000, 1, False)])
    h2 = driver.add_chain([(0x2000, 1, False)])
    assert device.pop_available() == [h1, h2]
    assert device.pop_available() == []


def test_batched_table_snapshot(rings):
    _, driver, device = rings
    head = driver.add_chain([(0xAAAA000, 4, False), (0xBBBB000, 8, True)])
    table = device.read_table()
    chain = device.read_chain(head, table)
    assert chain[0].addr == 0xAAAA000
    assert chain[1].addr == 0xBBBB000


def test_device_completion_of_unknown_head_rejected(rings):
    mem, driver, device = rings
    head = driver.add_chain([(0x1000, 1, False)])
    device.pop_available()
    wrong = (head + 3) % 8
    device.push_used_batch([(wrong, 0)])  # not the published head
    with pytest.raises(VirtioError, match="unknown chain"):
        driver.collect_used()


def test_index_wraparound(rings):
    """avail/used indices are u16 running counters that must wrap."""
    _, driver, device = rings
    driver._avail_idx = 0xFFFE
    device._last_avail = 0xFFFE
    device._used_idx = 0xFFFE
    driver._last_used = 0xFFFE
    for _ in range(4):  # crosses the 0xFFFF -> 0 boundary
        head = driver.add_chain([(0x1000, 1, False)])
        assert device.pop_available() == [head]
        device.push_used_batch([(head, 1)])
        assert driver.collect_used() == [(head, 1)]


def test_completions_are_named_by_their_token(rings):
    _mem, driver, device = rings
    plain = driver.add_chain([(0x4000, 16, True)])
    driver.add_chain([(0x5000, 16, True)], token="rx-buffer")
    assert driver.in_flight_tokens() == [None, "rx-buffer"]
    device.push_used_batch([(head, 4) for head in device.pop_available()])
    assert driver.collect_used() == [(plain, 4), ("rx-buffer", 4)]
    assert driver.in_flight_tokens() == []


class _BumpKernel:
    """Just enough guest kernel for a driver path: RAM and pages."""

    def __init__(self, memory):
        self.memory = memory
        self._next = 0x10000

    def alloc_guest_pages(self, count):
        gpa, self._next = self._next, self._next + count * 4096
        return gpa


class _Doorbell:
    """A transport whose device completes each kick at once, or never."""

    def __init__(self, device=None):
        self.device = device

    def notify(self, index):
        if self.device is not None:
            self.device.push_used_batch(
                [(head, 0) for head in self.device.pop_available()])


def test_tx_path_served_inline_keeps_one_slot(rings):
    mem, driver, device = rings
    tx = GuestTxPath(_BumpKernel(mem), _Doorbell(device), driver, 1, pages=1)
    for n in range(3 * driver.size):
        tx.send(b"send %d" % n)
    assert tx.slots == [0x10000]
    assert driver.in_flight_tokens() == []


def test_tx_path_grows_a_slot_only_when_every_slot_is_in_flight(rings):
    mem, driver, device = rings
    tx = GuestTxPath(_BumpKernel(mem), _Doorbell(), driver, 1, pages=1)
    for n in range(driver.size):
        tx.send(b"send %d" % n)
    assert len(set(tx.slots)) == driver.size
    assert [mem.read(gpa, 6) for gpa in tx.slots] == [
        b"send %d" % n for n in range(driver.size)]
    with pytest.raises(VirtioError, match="in flight"):
        tx.send(b"one too many")
    # Once the device completes them, the next send collects and reuses.
    device.push_used_batch([(head, 0) for head in device.pop_available()])
    tx.send(b"again!")
    assert len(tx.slots) == driver.size
    assert driver.in_flight_tokens() == [tx.slots[0]]
    assert mem.read(tx.slots[0], 6) == b"again!"


def test_tx_path_refuses_a_send_larger_than_its_slot(rings):
    mem, driver, device = rings
    tx = GuestTxPath(_BumpKernel(mem), _Doorbell(device), driver, 1, pages=1)
    slot = tx.slots[0]
    tx.send(b"x" * 4096)
    with pytest.raises(VirtioError, match="exceeds its 4096-byte slot"):
        tx.send(b"y" * 4097)
    # Nothing was written or posted: not into the slot, not past it.
    assert mem.read(slot, 4097) == b"x" * 4096 + b"\x00"
    assert tx.slots == [slot]
    assert device.pop_available() == []
