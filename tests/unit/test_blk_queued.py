"""Queued virtio-blk submission, EVENT_IDX negotiation, and the
device's request-validation paths.

Covers the PR's driver-side contract: at iodepth N with EVENT_IDX the
window rings one doorbell and harvests under one coalesced interrupt;
without the feature (or at depth 1) every request kicks, exactly as
before.  Also pins the ``_service_request`` error semantics: a chain
that fails — whether on validation or midway through its copy loop —
reports only the status byte, never a pre-failure byte count.
"""

import struct

import pytest

from repro.errors import VirtioError
from repro.testbed import Testbed
from repro.units import MiB, SECTOR_SIZE
from repro.virtio import constants as C
from repro.virtio.blk import BLK_HEADER_SIZE


def _batch_depth(tb):
    """The qemu-blk device's ``virtio.batch_depth`` histogram."""
    return tb.obs.metrics.scope(
        "virtio", device="qemu-system-x86_64-blk-disk0"
    ).histogram("batch_depth")


def _depths_since(hist, before):
    """Per-depth sample counts ``hist`` gained since ``before``."""
    return {depth: n - before.get(depth, 0)
            for depth, n in hist.samples.items() if n != before.get(depth, 0)}


@pytest.fixture()
def guest_env():
    """A booted QEMU guest with one virtio-blk disk."""
    tb = Testbed()
    hv = tb.launch_qemu(disk=tb.nvme_partition(32 * MiB))
    return tb, hv, hv.guest


# -- feature negotiation -----------------------------------------------------


def test_qemu_negotiates_event_idx(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    assert disk.transport.event_idx is True
    assert disk.ring.event_idx is True
    assert disk.transport.features & C.VIRTIO_RING_F_EVENT_IDX


def test_device_rejects_unoffered_feature_bits(guest_env):
    tb, hv, guest = guest_env
    transport = guest.block_devices["vda"].transport
    offered = transport.read32(C.REG_DEVICE_FEATURES)
    assert offered & C.VIRTIO_RING_F_EVENT_IDX
    assert offered & C.VIRTIO_F_VERSION_1
    with pytest.raises(VirtioError):
        transport.write32(C.REG_DRIVER_FEATURES, offered | (1 << 27))


def test_kvmtool_never_offers_event_idx():
    """Table-1 generality: lkvm's minimalist virtio lacks EVENT_IDX,
    and the same driver must keep working against it."""
    tb = Testbed()
    hv = tb.launch_kvmtool(disk=tb.nvme_partition(32 * MiB))
    disk = hv.guest.block_devices["vda"]
    assert disk.transport.event_idx is False
    assert disk.ring.event_idx is False
    payload = b"\x3c" * SECTOR_SIZE
    disk.write_sectors(7, payload)
    assert disk.read_sectors(7, 1) == payload


# -- queued submission -------------------------------------------------------


def test_queued_read_matches_sync_read(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    payload = bytes(range(256)) * 32            # 16 sectors
    disk.write_sectors(0, payload)
    disk.set_iodepth(4)
    try:
        results = disk.read_sectors_queued([(i * 2, 2) for i in range(8)])
    finally:
        disk.set_iodepth(1)
    assert b"".join(results) == payload
    assert results == [disk.read_sectors(i * 2, 2) for i in range(8)]


def test_queued_write_roundtrip(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    chunks = [bytes([i]) * SECTOR_SIZE for i in range(16)]
    disk.set_iodepth(8)
    try:
        disk.write_sectors_queued([(100 + i, chunk) for i, chunk in enumerate(chunks)])
    finally:
        disk.set_iodepth(1)
    assert disk.read_sectors(100, 16) == b"".join(chunks)


def test_queued_window_kicks_once_and_coalesces_interrupts(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    disk.write_sectors(0, b"\x11" * (16 * SECTOR_SIZE))
    disk.set_iodepth(8)
    tb.costs.reset_counters()
    depths = dict(_batch_depth(tb).samples)
    try:
        disk.read_sectors_queued([(i, 1) for i in range(16)])
    finally:
        disk.set_iodepth(1)
    # Two windows of eight: one doorbell and one interrupt per window.
    assert tb.costs.count("kicks") == 2
    assert tb.costs.count("kick_suppressed") == 14
    assert tb.costs.count("irq_coalesced") == 14
    assert tb.costs.count("irq_inject") == 2
    assert _depths_since(_batch_depth(tb), depths) == {8: 2}


def test_queued_depth_one_behaves_like_sync(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    disk.write_sectors(0, b"\x22" * (8 * SECTOR_SIZE))
    tb.costs.reset_counters()
    depths = dict(_batch_depth(tb).samples)
    start = tb.clock.now
    queued = disk.read_sectors_queued([(i, 1) for i in range(8)])
    queued_ns = tb.clock.now - start
    assert tb.costs.count("kicks") == 8
    assert tb.costs.count("kick_suppressed") == 0
    assert tb.costs.count("irq_coalesced") == 0
    assert tb.costs.count("irq_inject") == 8
    assert _depths_since(_batch_depth(tb), depths) == {1: 8}
    # The synchronous calls take exactly the same virtual time.
    start = tb.clock.now
    assert [disk.read_sectors(i, 1) for i in range(8)] == queued
    assert tb.clock.now - start == queued_ns


def test_queued_without_event_idx_kicks_per_request():
    tb = Testbed()
    hv = tb.launch_kvmtool(disk=tb.nvme_partition(32 * MiB))
    disk = hv.guest.block_devices["vda"]
    disk.write_sectors(0, b"\x44" * (8 * SECTOR_SIZE))
    disk.set_iodepth(4)
    tb.costs.reset_counters()
    try:
        results = disk.read_sectors_queued([(i, 1) for i in range(8)])
    finally:
        disk.set_iodepth(1)
    assert results == [b"\x44" * SECTOR_SIZE] * 8
    # No EVENT_IDX: the driver may not defer a single doorbell.
    assert tb.costs.count("kicks") == 8
    assert tb.costs.count("kick_suppressed") == 0


def test_set_iodepth_validates_range(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    with pytest.raises(VirtioError):
        disk.set_iodepth(0)
    with pytest.raises(VirtioError):
        disk.set_iodepth(disk.MAX_IODEPTH + 1)


def test_queued_request_must_fit_its_pool_slot(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    disk.set_iodepth(disk.MAX_IODEPTH)          # 8 KiB slots
    try:
        with pytest.raises(VirtioError):
            disk.read_sectors_queued([(0, 32)])  # 16 KiB request
    finally:
        disk.set_iodepth(1)


# -- synchronous requests are one-chain windows ------------------------------


def _disk(kind):
    """A booted QEMU guest's qemu-blk ``vda`` or an attached ``vmshblk0``."""
    tb = Testbed()
    if kind == "vda":
        hv = tb.launch_qemu(disk=tb.nvme_partition(32 * MiB))
        return tb, hv.guest.block_devices["vda"]
    hv = tb.launch_qemu()
    tb.vmsh().attach(hv.pid)
    return tb, hv.guest.vmsh_block


def _windows(tb, disk):
    """The driver's ``blk.window`` spans so far."""
    return [span for span in tb.obs.spans.spans
            if span.name == "blk.window" and span.track == f"blk:{disk.name}"]


@pytest.mark.parametrize("kind", ["vda", "vmshblk0"])
def test_sync_requests_run_as_depth_one_windows(kind):
    tb, disk = _disk(kind)
    sector = disk.capacity_sectors - 2048         # clear of the overlay fs
    payload = bytes(range(256)) * 16               # 4 KiB
    for call, windows in (
        (lambda: disk.write_sectors(sector, payload), 1),
        (lambda: disk.read_sectors(sector, 2048), 2),   # 1 MiB: two ops
        (disk.flush, 1),
    ):
        spans = _windows(tb, disk)
        call()
        opened = _windows(tb, disk)[len(spans):]
        assert len(opened) == windows
        assert all(span.attrs["depth"] == 1 for span in opened)
        assert all(span.end_ns is not None for span in opened)
    assert disk.read_sectors(sector, 8) == payload


@pytest.mark.parametrize("queued", [False, True], ids=["sync", "queued"])
def test_failed_request_closes_its_window_span(queued):
    """A request the device fails raises and closes its window span, so
    the next window on the track does not nest under it."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    disk = hv.guest.vmsh_block
    session.device_host.backend.writable = False
    sector = disk.capacity_sectors - 8
    with pytest.raises(VirtioError, match="IO error"):
        if queued:
            disk.write_sectors_queued([(sector, bytes(4096))])
        else:
            disk.write_sectors(sector, bytes(4096))
    assert not [s for s in tb.obs.spans.open_spans() if s.name == "blk.window"]
    disk.read_sectors(sector, 8)
    assert _windows(tb, disk)[-1].parent_sid is None


def test_one_chain_window_leaves_used_event_alone(guest_env):
    """A depth-1 window keeps the driver's ``used_event`` hint: with it
    far ahead, the device suppresses the interrupt and the window still
    harvests its completion from the used ring."""
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    payload = b"\x5a" * (8 * SECTOR_SIZE)
    disk.write_sectors(64, payload)
    disk.kernel.memory.write_u16(disk.ring.used_event_gpa, 0xBEEF)
    suppressed = tb.obs.metrics.scope(
        "vring", device="qemu-system-x86_64-blk-disk0", queue=0
    ).counter("interrupts_suppressed")
    before = suppressed.value
    assert disk.read_sectors_queued([(64, 8)]) == [payload]
    assert suppressed.value == before + 1


# -- _service_request error semantics ---------------------------------------


def _raw_submit(disk, buffers):
    """Push a hand-crafted chain and return its (status, written) pair."""
    head = disk.ring.add_chain(buffers)
    disk.transport.notify(0)
    completions = disk.ring.collect_used()
    assert [h for h, _ in completions] == [head]
    status_gpa = buffers[-1][0]
    return disk.kernel.memory.read(status_gpa, 1)[0], completions[0][1]


def test_read_of_non_sector_multiple_fails_with_ioerr(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    hdr, status = disk._hdr_gpa, disk._hdr_gpa + BLK_HEADER_SIZE
    disk.kernel.memory.write(hdr, struct.pack("<IIQ", C.VIRTIO_BLK_T_IN, 0, 0))
    status_byte, written = _raw_submit(disk, [
        (hdr, BLK_HEADER_SIZE, False),
        (disk._data_gpa, 100, True),            # not a sector multiple
        (status, 1, True),
    ])
    assert status_byte == C.VIRTIO_BLK_S_IOERR
    assert written == 1                          # the status byte only


def test_mid_chain_failure_reports_no_partial_progress(guest_env):
    """First buffer copies fine, second is read-only: the completion
    must not advertise the 512 bytes that landed before the error."""
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    hdr, status = disk._hdr_gpa, disk._hdr_gpa + BLK_HEADER_SIZE
    disk.kernel.memory.write(hdr, struct.pack("<IIQ", C.VIRTIO_BLK_T_IN, 0, 0))
    status_byte, written = _raw_submit(disk, [
        (hdr, BLK_HEADER_SIZE, False),
        (disk._data_gpa, SECTOR_SIZE, True),
        (disk._data_gpa + SECTOR_SIZE, SECTOR_SIZE, False),   # not writable
        (status, 1, True),
    ])
    assert status_byte == C.VIRTIO_BLK_S_IOERR
    assert written == 1


def test_unknown_request_type_reports_unsupp(guest_env):
    tb, hv, guest = guest_env
    disk = guest.block_devices["vda"]
    hdr, status = disk._hdr_gpa, disk._hdr_gpa + BLK_HEADER_SIZE
    disk.kernel.memory.write(hdr, struct.pack("<IIQ", 0x7F, 0, 0))
    status_byte, written = _raw_submit(disk, [
        (hdr, BLK_HEADER_SIZE, False),
        (status, 1, True),
    ])
    assert status_byte == C.VIRTIO_BLK_S_UNSUPP
    assert written == 1


# -- the attach-time knob ----------------------------------------------------


def test_vmsh_attach_event_idx_knob():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, event_idx=False)
    assert session.report.event_idx is False
    disk = hv.guest.vmsh_block
    assert disk.ring.event_idx is False
    tb.costs.reset_counters()
    data = disk.read_sectors(0, 2)
    assert len(data) == 2 * SECTOR_SIZE
    assert tb.costs.count("kicks") == 1
    assert tb.costs.count("kick_suppressed") == 0


def test_vmsh_attach_event_idx_default_on():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    assert session.report.event_idx is True
    assert hv.guest.vmsh_block.ring.event_idx is True
