"""Core-module units: gateway, libbuild, overlay, device host."""

import pytest

from repro.core.gateway import GuestMemoryGateway
from repro.core.libbuild import (
    STAGE2_GUEST_PATH,
    STAGE2_PROGRAM_ID,
    _stage2_binary,
    build_library,
    plan_library,
)
from repro.core.overlay import GUEST_MOUNT_ROOT, build_overlay
from repro.errors import SideloadError, VmshError
from repro.guestos.fs import Filesystem
from repro.guestos.kfunctions import REQUIRED_KERNEL_FUNCTIONS
from repro.guestos.version import KernelVersion
from repro.guestos.vfs import MountNamespace, Vfs
from repro.host.ebpf import MemslotSnooper
from repro.sideload import parse_blob
from repro.testbed import Testbed
from repro.units import PAGE_SIZE


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


def test_gateway_tlb_caches_page_walks():
    tb, hv, gateway = _gateway()
    vbase = hv.guest.image.vbase
    gateway.read_virt(vbase, 4 * PAGE_SIZE)
    misses = gateway.tlb_misses
    assert misses >= 4
    assert gateway.tlb_hits == 0
    before = tb.costs.count("procvm_copy")
    gateway.read_virt(vbase, 4 * PAGE_SIZE)
    assert gateway.tlb_misses == misses
    assert gateway.tlb_hits >= 4
    # With walks cached the re-read pays only the data copy, not four
    # table reads per page.
    assert tb.costs.count("procvm_copy") - before <= 2
    assert 0.0 < gateway.tlb_hit_rate < 1.0
    # Rewriting the same CR3 value must not flush.
    gateway.set_cr3(gateway.cr3)
    gateway.read_virt(vbase, PAGE_SIZE)
    assert gateway.tlb_misses == misses


def test_gateway_refresh_memslots_flushes_tlb_keeps_stats():
    tb, hv, gateway = _gateway()
    vbase = hv.guest.image.vbase
    gateway.read_virt(vbase, PAGE_SIZE)
    stats = gateway.phys.stats
    reads_before = stats.reads
    gateway.refresh_memslots(gateway.translator.slots())
    assert gateway._tlb == {}
    assert gateway.phys.stats is stats          # counters stay cumulative
    assert stats.reads == reads_before
    misses = gateway.tlb_misses
    gateway.read_virt(vbase, PAGE_SIZE)         # still correct, re-walked
    assert gateway.tlb_misses > misses


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


def test_command_travels_in_umh_args():
    plan = plan_library(KernelVersion(5, 10), command="/bin/busybox")
    blob = build_library(plan)
    from repro.guestos.kfunctions import UmhArgs

    config = parse_blob(lambda o, l: blob[o : o + l]).config
    umh = UmhArgs.unpack(config["umh"], KernelVersion(5, 10))
    assert "/bin/busybox" in umh.argv


# -- overlay ---------------------------------------------------------------------------

def _base_namespace():
    ns = MountNamespace()
    vfs = Vfs(ns)
    root = Filesystem("ext4", label="guest-root")
    vfs.mount(root, "/")
    vfs.makedirs("/data")
    vfs.write_file("/etc-marker", b"guest")
    extra = Filesystem("xfs", label="guest-data")
    vfs.mount(extra, "/data")
    vfs.write_file("/data/db", b"payload")
    return ns, vfs


def test_overlay_moves_all_guest_mounts():
    base_ns, base_vfs = _base_namespace()
    image_fs = Filesystem("vmshfs", label="image")
    result = build_overlay(image_fs, base_ns)
    overlay_vfs = result.vfs
    assert overlay_vfs.read_file(f"{GUEST_MOUNT_ROOT}/etc-marker") == b"guest"
    assert overlay_vfs.read_file(f"{GUEST_MOUNT_ROOT}/data/db") == b"payload"
    # Root of the overlay is the image, not the guest root.
    assert overlay_vfs.ns.root_mount().fs is image_fs


def test_overlay_does_not_mutate_base_namespace():
    base_ns, base_vfs = _base_namespace()
    mounts_before = [(m.path, m.fs.fs_id) for m in base_ns.mounts()]
    build_overlay(Filesystem("vmshfs"), base_ns)
    assert [(m.path, m.fs.fs_id) for m in base_ns.mounts()] == mounts_before
    assert base_vfs.read_file("/etc-marker") == b"guest"


def test_overlay_nested_mount_order():
    """Deeper mounts must land inside the relocated parents."""
    base_ns, base_vfs = _base_namespace()
    deeper = Filesystem("tmpfs", label="deeper")
    base_vfs.makedirs("/data/cache")
    base_vfs.mount(deeper, "/data/cache")
    base_vfs.write_file("/data/cache/hot", b"hot")
    result = build_overlay(Filesystem("vmshfs"), base_ns)
    assert result.vfs.read_file(f"{GUEST_MOUNT_ROOT}/data/cache/hot") == b"hot"


def test_overlay_writes_stay_in_image():
    base_ns, base_vfs = _base_namespace()
    image_fs = Filesystem("vmshfs")
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
