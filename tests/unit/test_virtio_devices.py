"""virtio-mmio device model, virtio-blk, virtio-console end to end."""

import pytest

from repro.errors import VirtioError
from repro.guestos.blockcore import MemoryBlockDevice
from repro.host.files import HostFile
from repro.host.kernel import HostKernel
from repro.kvm.api import KvmSystem
from repro.testbed import Testbed
from repro.units import MiB, SECTOR_SIZE
from repro.virtio import constants as C
from repro.virtio.blk import (
    GuestVirtioBlkDisk,
    MappedImageBackend,
    RawDiskBackend,
    VirtioBlkDevice,
)
from repro.virtio.console import Pts
from repro.virtio.memio import InProcessAccessor
from repro.virtio.mmio import GuestVirtioTransport


@pytest.fixture()
def guest_env():
    """A booted QEMU guest with one virtio-blk disk."""
    tb = Testbed()
    hv = tb.launch_qemu(disk=tb.nvme_partition(32 * MiB))
    return tb, hv, hv.guest


def test_mmio_probe_magic_and_id(guest_env):
    tb, hv, guest = guest_env
    base = sorted(hv._mmio_devices)[0]
    transport = GuestVirtioTransport(guest, base, 32)
    assert transport.read32(C.REG_MAGIC) == C.MMIO_MAGIC
    assert transport.read32(C.REG_VERSION) == C.MMIO_VERSION
    assert transport.probe() == C.DEVICE_ID_BLOCK


def test_probe_of_empty_window_returns_none(guest_env):
    tb, hv, guest = guest_env
    transport = GuestVirtioTransport(guest, 0xDEAD0000, 33)
    assert transport.probe() is None


def test_blk_capacity_config(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    assert disk.capacity_sectors == (32 * MiB) // SECTOR_SIZE


def test_blk_sector_roundtrip(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    payload = bytes(range(256)) * 4  # 1024 bytes = 2 sectors
    disk.write_sectors(100, payload)
    assert disk.read_sectors(100, 2) == payload


def test_blk_large_transfer_chunks(guest_env):
    """Requests above the DMA pool size split transparently."""
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    payload = b"\x5c" * (2 * MiB)
    disk.write_sectors(0, payload)
    assert disk.read_sectors(0, len(payload) // SECTOR_SIZE) == payload


def test_blk_flush(guest_env):
    tb, hv, guest = guest_env
    guest.block_devices["vda"].flush()  # must complete without error


def test_blk_out_of_range_rejected(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    with pytest.raises(Exception):
        disk.read_sectors(disk.capacity_sectors, 1)


def test_device_exit_counts(guest_env):
    """One IO = notify exit + interrupt-ack register traffic."""
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    tb.costs.reset_counters()
    disk.read_sectors(0, 8)
    assert tb.costs.count("vmexit") >= 1
    assert tb.costs.count("irq_inject") == 1


def test_mapped_image_backend():
    from repro.sim.clock import Clock
    from repro.sim.costs import CostModel

    costs = CostModel(Clock())
    backend = MappedImageBackend(costs, b"\x00" * (1 * MiB))
    backend.write(4, b"\xaa" * 512)
    assert backend.read(4, 1) == b"\xaa" * 512
    assert backend.snapshot()[4 * 512 : 4 * 512 + 8] == b"\xaa" * 8


def test_mapped_image_backend_deepcopies_its_contents():
    """A VM graph deepcopy (snapshot freeze/clone) can reach a session's
    backend: the copy carries the written sectors in a mapping of its
    own."""
    import copy
    import pickle

    from repro.sim.clock import Clock
    from repro.sim.costs import CostModel

    costs = CostModel(Clock())
    backend = MappedImageBackend(costs, b"\x00" * 4096)
    backend.write(1, b"\xaa" * 512)
    clone = copy.deepcopy(backend, {id(costs): costs})
    assert clone._costs is costs
    assert clone.capacity_sectors == backend.capacity_sectors
    clone.write(2, b"\xbb" * 512)
    assert clone.read(1, 2) == b"\xaa" * 512 + b"\xbb" * 512
    assert backend.read(2, 1) == b"\x00" * 512
    restored = pickle.loads(pickle.dumps(backend))
    assert restored.snapshot() == backend.snapshot()


def test_mapped_image_backend_readonly():
    from repro.sim.clock import Clock
    from repro.sim.costs import CostModel

    backend = MappedImageBackend(CostModel(Clock()), b"\x00" * 4096, writable=False)
    with pytest.raises(VirtioError):
        backend.write(0, b"\x01" * 512)


def test_pts_buffers_until_device_connects():
    pts = Pts()
    pts.user_write(b"early\n")
    got = []
    pts.connect_device(got.append)
    assert got == [b"early\n"]
    pts.user_write(b"later\n")
    assert got == [b"early\n", b"later\n"]


def test_vmsh_console_roundtrip():
    """Full console path: pts -> virtqueues -> shell -> pts."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    result = session.console.run_command("echo console-works")
    assert result.output == "console-works"
    assert result.latency_ns > 0


def test_console_multiple_commands_ordered():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    outputs = [session.console.run_command(f"echo line{i}").output for i in range(5)]
    assert outputs == [f"line{i}" for i in range(5)]
