"""VMSH's ksymtab binary analysis: all layouts, consistency checks."""

import pytest

from repro.core.kaslr import KernelLocation, find_kernel
from repro.core.ksymtab import parse_ksymtab
from repro.errors import KernelNotFoundError, SideloadError
from repro.guestos.kfunctions import REQUIRED_KERNEL_FUNCTIONS
from repro.guestos.version import ALL_TESTED_VERSIONS, KernelVersion
from repro.testbed import Testbed


def _gateway_for(version: KernelVersion):
    """Boot a guest and build a VMSH-side gateway the honest way."""
    tb = Testbed()
    hv = tb.launch_qemu(guest_version=version)
    from repro.core.gateway import GuestMemoryGateway
    from repro.host.ebpf import MemslotSnooper

    vmsh = tb.host.spawn_process("vmsh-test")
    snooper = MemslotSnooper(tb.host, vmsh)
    snooper.attach()
    tb.host.syscall(hv.process.main_thread, "ioctl", hv.vm_fd, "KVM_CHECK_EXTENSION", "X")
    records = snooper.read_map()
    snooper.detach()
    gateway = GuestMemoryGateway(tb.host, vmsh.main_thread, hv.pid, records)
    gateway.set_cr3(hv.guest.cr3)
    return tb, hv, gateway


@pytest.mark.parametrize("version", ALL_TESTED_VERSIONS, ids=str)
def test_parser_recovers_all_required_symbols(version):
    tb, hv, gateway = _gateway_for(version)
    location = find_kernel(gateway)
    assert location.vbase == hv.guest.image.vbase
    parsed = parse_ksymtab(gateway, location)
    assert parsed.layout == version.ksymtab_layout
    for name in REQUIRED_KERNEL_FUNCTIONS:
        assert parsed.symbols[name] == hv.guest.image.symbols[name]
    assert parsed.symbols["linux_banner"] == hv.guest.image.symbols["linux_banner"]


def test_parser_layout_detection_is_blind():
    """The parser must not be told the layout; it must *discover* it."""
    results = set()
    for version in (KernelVersion(4, 4), KernelVersion(4, 19), KernelVersion(5, 10)):
        _, _, gateway = _gateway_for(version)
        location = find_kernel(gateway)
        results.add(parse_ksymtab(gateway, location).layout)
    assert results == {"absolute", "prel32", "prel32_ns"}


def test_kernel_not_found_with_empty_cr3():
    tb, hv, gateway = _gateway_for(KernelVersion(5, 10))
    # Point CR3 at an empty page table root.
    empty_root = hv.guest.alloc_guest_pages(1)
    for i in range(512):
        gateway.phys.write_u64(empty_root + i * 8, 0)
    gateway.set_cr3(empty_root)
    with pytest.raises(KernelNotFoundError):
        find_kernel(gateway)


def test_parser_rejects_image_without_symbols():
    tb, hv, gateway = _gateway_for(KernelVersion(5, 10))
    guest = hv.guest
    # Shred the .ksymtab (but keep strings): no consistent run remains.
    sections = guest.image.sections
    guest.write_virt(sections.ksymtab_vaddr, b"\xff" * sections.ksymtab_size)
    location = find_kernel(gateway)
    with pytest.raises(SideloadError, match="no consistent ksymtab"):
        parse_ksymtab(gateway, location)


def test_require_missing_symbol():
    from repro.errors import SymbolResolutionError

    tb, hv, gateway = _gateway_for(KernelVersion(5, 10))
    parsed = parse_ksymtab(gateway, find_kernel(gateway))
    with pytest.raises(SymbolResolutionError):
        parsed.require("this_symbol_does_not_exist")


def test_find_kernel_reports_image_extent():
    tb, hv, gateway = _gateway_for(KernelVersion(5, 10))
    location = find_kernel(gateway)
    from repro.guestos.loader import KERNEL_IMAGE_SIZE

    assert location.size == KERNEL_IMAGE_SIZE


@pytest.mark.parametrize("version", [KernelVersion(4, 4), KernelVersion(5, 10)],
                         ids=str)
def test_relative_layouts_share_one_prefilter_per_region(version, monkeypatch):
    """prel32 and prel32_ns read the same two words of an entry, so a
    parse runs the vectorised pre-filter twice per string region: once
    for absolute entries and once for both relative layouts."""
    from repro.core import ksymtab

    _, hv, gateway = _gateway_for(version)
    location = find_kernel(gateway)
    image = gateway.read_virt(location.vbase, location.size)
    calls = []
    real = ksymtab._candidate_offsets

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(ksymtab, "_candidate_offsets", counted)
    parsed = parse_ksymtab(gateway, location)
    assert parsed.layout == version.ksymtab_layout
    assert parsed.symbols["linux_banner"] == hv.guest.image.symbols["linux_banner"]
    assert len(calls) == 2 * len(ksymtab._find_string_regions(image))
