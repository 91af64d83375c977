"""Core-module units: gateway, libbuild, overlay, device host."""

import pytest

from repro.core.gateway import GuestMemoryGateway
from repro.core.libbuild import (
    STAGE2_GUEST_PATH,
    STAGE2_PROGRAM_ID,
    VMSH_DEVICES,
    VMSH_MMIO_STRIDE,
    _stage2_binary,
    build_library,
    plan_library,
)
from repro.core.overlay import GUEST_MOUNT_ROOT, build_overlay
from repro.errors import SideloadError, VmshError
from repro.guestos.fs import Filesystem
from repro.guestos.kfunctions import REQUIRED_KERNEL_FUNCTIONS
from repro.guestos.loader import KERNEL_IMAGE_SIZE
from repro.guestos.version import KernelVersion
from repro.guestos.vfs import MountNamespace, Vfs
from repro.host.ebpf import MemslotSnooper
from repro.sideload import parse_blob
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.testbed import Testbed
from repro.units import MiB, PAGE_SIZE
from repro.virtio.pci import SLOT_STRIDE


# -- gateway ----------------------------------------------------------------

def _gateway():
    tb = Testbed()
    hv = tb.launch_qemu()
    vmsh = tb.host.spawn_process("vmsh-x")
    snooper = MemslotSnooper(tb.host, vmsh)
    snooper.attach()
    tb.host.syscall(hv.process.main_thread, "ioctl", hv.vm_fd,
                    "KVM_CHECK_EXTENSION", "X")
    records = snooper.read_map()
    snooper.detach()
    gateway = GuestMemoryGateway(tb.host, vmsh.main_thread, hv.pid, records)
    gateway.set_cr3(hv.guest.cr3)
    return tb, hv, gateway


def test_gateway_phys_matches_guest_memory():
    tb, hv, gateway = _gateway()
    hv.guest.memory.write(0x9000, b"through-the-gateway")
    assert gateway.phys.read(0x9000, 19) == b"through-the-gateway"


def test_gateway_virt_read_crosses_pages():
    tb, hv, gateway = _gateway()
    vbase = hv.guest.image.vbase
    direct = hv.guest.read_virt(vbase + 4090, 16)
    assert gateway.read_virt(vbase + 4090, 16) == direct


def test_gateway_write_virt_lands_in_guest():
    tb, hv, gateway = _gateway()
    target = hv.guest.image.vbase + 0x180000  # inside the mapped image
    gateway.write_virt(target, b"vmsh-was-here")
    assert hv.guest.read_virt(target, 13) == b"vmsh-was-here"


def test_gateway_requires_cr3_for_virt():
    tb, hv, gateway = _gateway()
    gateway.cr3 = 0
    with pytest.raises(SideloadError, match="CR3"):
        gateway.read_virt(hv.guest.image.vbase, 8)


def test_gateway_read_cstring():
    tb, hv, gateway = _gateway()
    banner_vaddr = hv.guest.image.symbols["linux_banner"]
    assert gateway.read_cstring(banner_vaddr).startswith("Linux version")


def test_gateway_charges_procvm_costs():
    tb, hv, gateway = _gateway()
    before = tb.costs.count("procvm_copy")
    gateway.read_virt(hv.guest.image.vbase, 4096)
    assert tb.costs.count("procvm_copy") > before


def _tlb(gateway):
    """(hits, misses) from the gateway's registry counters."""
    return (gateway.metrics.counter("tlb_hits").value,
            gateway.metrics.counter("tlb_misses").value)


def test_gateway_tlb_caches_page_walks():
    tb, hv, gateway = _gateway()
    vbase = hv.guest.image.vbase
    gateway.read_virt(vbase, 4 * PAGE_SIZE)
    hits, misses = _tlb(gateway)
    assert misses >= 4
    assert hits == 0
    before = tb.costs.count("procvm_copy")
    gateway.read_virt(vbase, 4 * PAGE_SIZE)
    hits, after = _tlb(gateway)
    assert after == misses
    assert hits >= 4
    # With walks cached the re-read pays only the data copy, not four
    # table reads per page.
    assert tb.costs.count("procvm_copy") - before <= 2
    assert 0.0 < gateway.tlb_hit_rate < 1.0
    # Rewriting the same CR3 value must not flush.
    gateway.set_cr3(gateway.cr3)
    gateway.read_virt(vbase, PAGE_SIZE)
    assert _tlb(gateway)[1] == misses


def test_gateway_refresh_memslots_flushes_tlb_keeps_stats():
    tb, hv, gateway = _gateway()
    vbase = hv.guest.image.vbase
    gateway.read_virt(vbase, PAGE_SIZE)
    stats = gateway.phys.stats
    reads_before = stats.as_dict()["reads"]
    gateway.refresh_memslots(gateway.translator.slots())
    assert gateway._tlb == {}
    assert gateway.phys.stats is stats          # counters stay cumulative
    assert stats.as_dict()["reads"] == reads_before
    misses = _tlb(gateway)[1]
    gateway.read_virt(vbase, PAGE_SIZE)         # still correct, re-walked
    assert _tlb(gateway)[1] > misses


def test_gateway_walk_counts_and_caches_as_translate_does():
    """The gateway's range walk counts one TLB miss for each address it
    decides or skips, and caches each page it finds mapped, so a later
    read of those pages hits the TLB on every page."""
    tb, hv, gateway = _gateway()
    vbase = hv.guest.image.vbase
    slot = 2 * MiB
    pages = KERNEL_IMAGE_SIZE // PAGE_SIZE
    with gateway.page_tables():
        slots = gateway.walk(vbase - 4 * slot, vbase + 3 * slot, slot)
        assert [vaddr for vaddr, mapped in slots if mapped] == [vbase]
        assert _tlb(gateway) == (0, 7)
        image = list(gateway.walk(vbase + PAGE_SIZE, vbase + slot + PAGE_SIZE))
        assert image[-1] == (vbase + KERNEL_IMAGE_SIZE, False)
        assert _tlb(gateway) == (0, 7 + pages)      # the unmapped page counts too
    gateway.read_virt(vbase, KERNEL_IMAGE_SIZE)
    assert _tlb(gateway) == (pages, 7 + pages)


def test_page_table_view_reads_each_table_page_once():
    tb, hv, gateway = _gateway()
    vbase = hv.guest.image.vbase
    with gateway.page_tables() as view:
        before = tb.costs.count("procvm_copy")
        assert all(mapped for _, mapped in gateway.walk(vbase, vbase + 8 * PAGE_SIZE))
        assert [mapped for _, mapped in gateway.walk(vbase - PAGE_SIZE, vbase)] == [False]
        # PML4, PDPT, PD and one PT page: one 4 KiB read each.
        assert tb.costs.count("procvm_copy") - before == 4
        with gateway.page_tables() as inner:
            assert inner is view                # nested blocks share it
    assert gateway._view is None                # and it ends with its block


def test_page_table_view_flushes_once_and_journals_old_tables_only():
    tb, hv, gateway = _gateway()
    mem = hv.guest.memory
    old_table = 0x9000                          # pre-existing guest RAM
    mem.write_u64(old_table + 8, 0x1111)
    fresh = range(0x20000, 0x22000)             # a zero-filled reserve
    mem.write_u64(fresh.start, 0xDEAD)          # never read: it is fresh
    before = tb.costs.count("procvm_copy")
    with gateway.page_tables(fresh=fresh) as view:
        assert view.read_u64(fresh.start) == 0
        view.write_u64(old_table + 8, 0x2222)
        view.write_u64(old_table + 16, 0)       # unchanged: not written
        view.write_u64(fresh.start, 0x3333)
        view.write_u64(fresh.start + 8, 0x4444)
        assert mem.read_u64(old_table + 8) == 0x1111    # still buffered
    # One 4 KiB read of the old table, one vectored write of both runs.
    assert tb.costs.count("procvm_copy") - before == 2
    assert mem.read_u64(old_table + 8) == 0x2222
    assert (mem.read_u64(fresh.start), mem.read_u64(fresh.start + 8)) == (
        0x3333, 0x4444,
    )
    assert view.journal == [(old_table + 8, 0x1111)]
    view.undo()
    assert mem.read_u64(old_table + 8) == 0x1111


# -- libbuild --------------------------------------------------------------------

def test_library_blob_is_parseable():
    plan = plan_library(KernelVersion(5, 10))
    blob = build_library(plan)
    parsed = parse_blob(lambda off, ln: blob[off : off + ln])
    assert parsed.program_id == "vmsh-kernel-lib"
    assert [r.name for r in parsed.relocs] == list(REQUIRED_KERNEL_FUNCTIONS)
    assert parsed.payload.startswith(b"#!SIMELF:vmsh-stage2")
    assert parsed.config["stage2_path"] == STAGE2_GUEST_PATH.encode()


def test_stage2_binary_matches_the_per_byte_filler():
    header = f"#!SIMELF:{STAGE2_PROGRAM_ID}\n".encode()
    body = bytes((i * 37 + 11) & 0xFF for i in range(32 * 1024))
    assert _stage2_binary() == header + body


def test_library_abi_tag_tracks_version():
    old = build_library(plan_library(KernelVersion(4, 4)))
    new = build_library(plan_library(KernelVersion(5, 10)))
    assert parse_blob(lambda o, l: old[o : o + l]).config["abi"] == b"pos_second"
    assert parse_blob(lambda o, l: new[o : o + l]).config["abi"] == b"pos_pointer"


def test_library_struct_payloads_differ_by_version():
    old = build_library(plan_library(KernelVersion(4, 4)))
    new = build_library(plan_library(KernelVersion(5, 10)))
    old_cfg = parse_blob(lambda o, l: old[o : o + l]).config
    new_cfg = parse_blob(lambda o, l: new[o : o + l]).config
    assert old_cfg["console_pdev"] != new_cfg["console_pdev"]


def test_plan_rejects_unknown_transport():
    with pytest.raises(ValueError):
        plan_library(KernelVersion(5, 10), transport="scsi")


def test_exec_device_config_only_when_requested():
    without = build_library(plan_library(KernelVersion(5, 10)))
    with_exec = build_library(plan_library(KernelVersion(5, 10), exec_device=True))
    assert b"exec_pdev" not in without
    assert "exec_pdev" in parse_blob(
        lambda o, l: with_exec[o : o + l]
    ).config


def test_device_table_prefixes_need_one_region_each():
    """VMSH serves a plan's register windows, and on pci their ECAM
    pages, as one ioregion each from the first row: that holds for
    every prefix of the table only if both run contiguously from the
    first row.  Interrupt routes must not collide either."""
    first = VMSH_DEVICES[0]
    for at, row in enumerate(VMSH_DEVICES):
        assert row.mmio == first.mmio + at * VMSH_MMIO_STRIDE
        assert row.ecam == first.ecam + at * SLOT_STRIDE
    for field in ("name", "gsi", "msi"):
        values = [getattr(row, field) for row in VMSH_DEVICES]
        assert len(set(values)) == len(values), field
    for exec_device, count in ((False, 2), (True, 3)):
        plan = plan_library(
            KernelVersion(5, 10), transport="pci", exec_device=exec_device
        )
        assert plan.devices == VMSH_DEVICES[:count]
        assert plan.regions() == [
            (first.mmio, count * VMSH_MMIO_STRIDE),
            (first.ecam, count * SLOT_STRIDE),
        ]


def test_command_travels_in_umh_args():
    plan = plan_library(KernelVersion(5, 10))
    blob = build_library(plan)
    from repro.guestos.kfunctions import UmhArgs

    config = parse_blob(lambda o, l: blob[o : o + l]).config
    umh = UmhArgs.unpack(config["umh"], KernelVersion(5, 10))
    assert "/bin/sh" in umh.argv


# -- overlay ---------------------------------------------------------------------------

def _base_namespace():
    costs = CostModel(Clock())
    ns = MountNamespace()
    vfs = Vfs(ns)
    root = Filesystem("ext4", costs=costs, label="guest-root")
    vfs.mount(root, "/")
    vfs.makedirs("/data")
    vfs.write_file("/etc-marker", b"guest")
    extra = Filesystem("xfs", costs=costs, label="guest-data")
    vfs.mount(extra, "/data")
    vfs.write_file("/data/db", b"payload")
    return ns, vfs


def test_overlay_moves_all_guest_mounts():
    base_ns, base_vfs = _base_namespace()
    image_fs = Filesystem("vmshfs", costs=CostModel(Clock()), label="image")
    result = build_overlay(image_fs, base_ns)
    overlay_vfs = result.vfs
    assert overlay_vfs.read_file(f"{GUEST_MOUNT_ROOT}/etc-marker") == b"guest"
    assert overlay_vfs.read_file(f"{GUEST_MOUNT_ROOT}/data/db") == b"payload"
    # Root of the overlay is the image, not the guest root.
    assert overlay_vfs.ns.root_mount().fs is image_fs


def test_overlay_does_not_mutate_base_namespace():
    base_ns, base_vfs = _base_namespace()
    mounts_before = [(m.path, m.fs.fs_id) for m in base_ns.mounts()]
    build_overlay(Filesystem("vmshfs", costs=CostModel(Clock())), base_ns)
    assert [(m.path, m.fs.fs_id) for m in base_ns.mounts()] == mounts_before
    assert base_vfs.read_file("/etc-marker") == b"guest"


def test_overlay_nested_mount_order():
    """Deeper mounts must land inside the relocated parents."""
    base_ns, base_vfs = _base_namespace()
    deeper = Filesystem("tmpfs", costs=CostModel(Clock()), label="deeper")
    base_vfs.makedirs("/data/cache")
    base_vfs.mount(deeper, "/data/cache")
    base_vfs.write_file("/data/cache/hot", b"hot")
    result = build_overlay(Filesystem("vmshfs", costs=CostModel(Clock())), base_ns)
    assert result.vfs.read_file(f"{GUEST_MOUNT_ROOT}/data/cache/hot") == b"hot"


def test_overlay_writes_stay_in_image():
    base_ns, base_vfs = _base_namespace()
    image_fs = Filesystem("vmshfs", costs=CostModel(Clock()))
    result = build_overlay(image_fs, base_ns)
    result.vfs.write_file("/only-overlay", b"x")
    assert not base_vfs.exists("/only-overlay")


# -- device host ------------------------------------------------------------------------

def test_device_host_rejects_foreign_mmio():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    host = session.device_host
    assert host.contains(host.mmio_base)
    assert not host.contains(0xD0000000)      # the hypervisor's region
    with pytest.raises(VmshError):
        host.handle_mmio(False, 0xD0000000, 4, 0)
