"""Failure injection: every stage of the pipeline must fail loudly.

The point of modelling the side-load at byte level is that *wrong*
side-loads are detectable.  These tests corrupt each stage and assert
the precise failure mode.
"""

import struct

import pytest

from repro.core.gateway import GuestMemoryGateway
from repro.core.kernel_lib import KernelLibProgram
from repro.core.libbuild import build_library, plan_library
from repro.errors import (
    GuestPanicError,
    PtraceError,
    SideloadError,
    SymbolResolutionError,
    VfsError,
    VmshError,
)
from repro.guestos.version import KernelVersion
from repro.sideload import parse_blob, reloc_slot_offset
from repro.testbed import Testbed


def _booted():
    tb = Testbed()
    hv = tb.launch_qemu()
    return tb, hv


def test_unrelocated_library_panics_guest():
    """Jumping into a blob whose relocations were never patched."""
    tb, hv = _booted()
    guest = hv.guest
    plan = plan_library(KernelVersion(5, 10))
    blob = build_library(plan)
    gpa = guest.alloc_guest_pages((len(blob) + 4095) // 4096)
    guest.memory.write(gpa, blob)
    builder = guest.arch.builder(
        guest.memory.read_u64, guest.memory.write_u64, guest._alloc_table_page
    )
    lib_vaddr = guest.image.vbase + guest.image.size
    builder.map_range(guest.cr3, lib_vaddr, gpa, (len(blob) + 4095) // 4096 * 4096)
    with pytest.raises(GuestPanicError, match="unrelocated"):
        guest.execute_at(lib_vaddr, guest.boot_vcpu)


def test_wrong_version_structs_panic_guest():
    """Library built for v4.4 layouts side-loaded into a v5.10 guest."""
    tb, hv = _booted()
    guest = hv.guest
    plan = plan_library(KernelVersion(4, 4))       # wrong era on purpose
    blob = bytearray(build_library(plan))
    # Patch relocations correctly so only the struct layouts are wrong.
    from repro.guestos.kfunctions import REQUIRED_KERNEL_FUNCTIONS

    for index, name in enumerate(REQUIRED_KERNEL_FUNCTIONS):
        offset = reloc_slot_offset(bytes(blob), index)
        struct.pack_into("<Q", blob, offset, guest.image.symbols[name])
    gpa = guest.alloc_guest_pages((len(blob) + 4095) // 4096)
    guest.memory.write(gpa, bytes(blob))
    builder = guest.arch.builder(
        guest.memory.read_u64, guest.memory.write_u64, guest._alloc_table_page
    )
    lib_vaddr = guest.image.vbase + guest.image.size
    builder.map_range(guest.cr3, lib_vaddr, gpa, (len(blob) + 4095) // 4096 * 4096)
    with pytest.raises(GuestPanicError):
        guest.execute_at(lib_vaddr, guest.boot_vcpu)


def test_partially_mapped_blob_panics():
    """If VMSH maps too few pages, parsing runs off the mapping."""
    tb, hv = _booted()
    guest = hv.guest
    plan = plan_library(KernelVersion(5, 10))
    blob = build_library(plan)
    gpa = guest.alloc_guest_pages((len(blob) + 4095) // 4096)
    guest.memory.write(gpa, blob)
    builder = guest.arch.builder(
        guest.memory.read_u64, guest.memory.write_u64, guest._alloc_table_page
    )
    lib_vaddr = guest.image.vbase + guest.image.size
    builder.map_range(guest.cr3, lib_vaddr, gpa, 4096)   # only one page!
    with pytest.raises(GuestPanicError):
        guest.execute_at(lib_vaddr, guest.boot_vcpu)


def test_missing_symbol_aborts_attach_cleanly():
    """A guest whose kernel lacks a required export is unsupported."""
    tb, hv = _booted()
    guest = hv.guest
    sections = guest.image.sections
    # Remove 'kernel_wait4' from the strings section: the reference
    # check will reject its entry, so resolution must fail.
    strings = guest.read_virt(sections.strings_vaddr, sections.strings_size)
    broken = strings.replace(b"kernel_wait4\x00", b"kernel_w4it4\x00")
    guest.write_virt(sections.strings_vaddr, broken)
    with pytest.raises(SymbolResolutionError):
        tb.vmsh().attach(hv.pid)
    # The hypervisor must be released (ptrace detached) on failure.
    assert hv.process.tracer is None


def test_failed_attach_releases_ptrace():
    tb = Testbed()
    hv = tb.launch_cloud_hypervisor()
    from repro.errors import HypervisorNotSupportedError

    with pytest.raises(HypervisorNotSupportedError):
        tb.vmsh().attach(hv.pid)
    # A second attacher (e.g. a debugger) can take over.
    other = tb.host.spawn_process("gdb")
    from repro.host.ptrace import attach as ptrace_attach

    session = ptrace_attach(tb.host, other, hv.process)
    session.detach()


def test_attach_to_dead_process():
    from repro.errors import NoSuchProcessError

    tb, hv = _booted()
    tb.host.exit_process(hv.pid)
    with pytest.raises(NoSuchProcessError):
        tb.vmsh().attach(hv.pid)


def test_gateway_rejects_unmapped_gpa():
    tb, hv = _booted()
    from repro.host.ebpf import MemslotRecord
    from repro.virtio.memio import GpaTranslator

    translator = GpaTranslator([MemslotRecord(0, 0, 4096, 0x1000)])
    with pytest.raises(VmshError, match="not covered"):
        translator.to_hva(1 << 40, 8)


def test_corrupt_config_tlv_detected():
    tb, hv = _booted()
    guest = hv.guest
    plan = plan_library(KernelVersion(5, 10))
    blob = bytearray(build_library(plan))
    parsed = parse_blob(lambda off, ln: bytes(blob[off : off + ln]))
    # Find the config section offset from the header and shred it.
    header = struct.unpack_from("<16sIIIIIIIIIII", blob, 0)
    config_off, config_len = header[6], header[7]
    blob[config_off : config_off + 4] = b"\xff\xff\xff\xff"
    with pytest.raises(SideloadError, match="corrupt SELF config"):
        parse_blob(lambda off, ln: bytes(blob[off : off + ln]))


def test_detach_in_wrap_mode_disables_devices():
    tb = Testbed(ioregionfd=False)
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    assert session.console.run_command("echo on").output == "on"
    session.detach()
    # Without the ptrace wrapper, MMIO to the vmsh windows is unclaimed.
    from repro.errors import KvmError

    with pytest.raises(Exception):
        session.console.run_command("echo off")


def test_double_detach_is_idempotent():
    tb, hv = _booted()
    session = tb.vmsh().attach(hv.pid)
    session.detach()
    session.detach()  # must not raise
