"""The arm64 architecture port (§5 future work).

"An architecture port would require to extend the system call
injection, as well as register and page table handling."  These tests
exercise exactly those three surfaces: AArch64 stage-1 page tables,
the x0..x30/sp/pc register file (TTBR1_EL1 instead of CR3), and the
unchanged injection pipeline on top.
"""

import itertools

import pytest

from repro.arch import ARM64, X86_64, arch_by_name
from repro.errors import PageFaultError
from repro.guestos.version import ALL_TESTED_VERSIONS, KernelVersion
from repro.mem.physmem import PhysicalMemory
from repro.testbed import Testbed
from repro.units import MiB, PAGE_SIZE


# -- arch descriptors ------------------------------------------------------------

def test_arch_lookup():
    from repro.arch import RISCV64

    assert arch_by_name("x86_64") is X86_64
    assert arch_by_name("arm64") is ARM64
    assert arch_by_name("riscv64") is RISCV64
    with pytest.raises(ValueError):
        arch_by_name("mips64")


def test_register_files_differ():
    assert X86_64.ip_register == "rip" and ARM64.ip_register == "pc"
    assert X86_64.pt_root_sreg == "cr3" and ARM64.pt_root_sreg == "ttbr1_el1"
    assert len(ARM64.gp_registers) == 34      # x0..x30 + sp + pc + pstate
    assert "x30" in ARM64.gp_registers


def test_scratch_area_fits_both_register_files():
    from repro.sideload import SCRATCH_SIZE

    assert SCRATCH_SIZE >= len(ARM64.gp_registers) * 8
    assert SCRATCH_SIZE >= len(X86_64.gp_registers) * 8


# -- AArch64 page tables -----------------------------------------------------------

#: (writable, nx) -> page descriptor for frame 0x300000: AF|0b11, plus
#: AP[2] when read-only, plus UXN|PXN.
LEAF_WORDS = {
    (True, False): 0x0000000000300403,
    (True, True): 0x0060000000300403,
    (False, False): 0x0000000000300483,
    (False, True): 0x0060000000300483,
}
#: the L0 table descriptor pointing to the first table allocated after
#: the root (0x101000)
TABLE_WORD = 0x101003

@pytest.fixture()
def arm_tables():
    mem = PhysicalMemory(16 * MiB)
    alloc = itertools.count(1 * MiB, PAGE_SIZE)
    builder = ARM64.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    walker = ARM64.walker(mem.read_u64)
    return mem, builder, walker, builder.new_root()


def test_arm64_map_translate(arm_tables):
    _, builder, walker, ttbr = arm_tables
    vaddr = ARM64.kernel_text_base
    builder.map_page(ttbr, vaddr, 0x200000)
    tr = walker.translate(ttbr, vaddr + 0x123)
    assert tr.paddr == 0x200123


def test_arm64_unmapped_faults(arm_tables):
    _, _, walker, ttbr = arm_tables
    with pytest.raises(PageFaultError, match="translation fault"):
        walker.translate(ttbr, ARM64.kernel_text_base)


def test_arm64_descriptor_encoding(arm_tables):
    """The leaf descriptor must be a valid AArch64 L3 page descriptor."""
    mem, builder, walker, ttbr = arm_tables
    vaddr = ARM64.kernel_text_base
    builder.map_page(ttbr, vaddr, 0x300000, writable=False, nx=True)
    tr = walker.translate(ttbr, vaddr)
    descriptor = mem.read_u64(tr.pte_paddr)
    assert descriptor & 0b11 == 0b11           # page descriptor
    assert descriptor & (1 << 10)              # AF set
    assert descriptor & (1 << 7)               # AP[2]: read-only
    assert descriptor & (1 << 54)              # UXN
    # The words themselves, for every (writable, nx) pair.
    for i, ((writable, nx), word) in enumerate(LEAF_WORDS.items(), start=1):
        page = vaddr + i * PAGE_SIZE
        builder.map_page(ttbr, page, 0x300000, writable=writable, nx=nx)
        assert mem.read_u64(walker.translate(ttbr, page).pte_paddr) == word
    l0_index = (vaddr >> 39) & 511
    assert mem.read_u64(ARM64.pt_root_paddr(ttbr) + l0_index * 8) == TABLE_WORD


def test_arm64_range_and_unmap(arm_tables):
    _, builder, walker, ttbr = arm_tables
    base = ARM64.kernel_text_base
    builder.map_range(ttbr, base, 0x400000, 5 * PAGE_SIZE)
    found = list(walker.iter_present_range(ttbr, base, base + 1 * MiB))
    assert len(found) == 5
    builder.unmap_page(ttbr, base + PAGE_SIZE)
    assert not walker.is_mapped(ttbr, base + PAGE_SIZE)
    assert walker.is_mapped(ttbr, base)


# -- end-to-end on arm64 --------------------------------------------------------------

def test_arm64_guest_boots_with_arm_registers():
    tb = Testbed(arch="arm64")
    hv = tb.launch_qemu()
    vcpu = hv.vm.vcpus[0]
    assert "pc" in vcpu.regs and "rip" not in vcpu.regs
    assert vcpu.sregs["ttbr1_el1"] == hv.guest.cr3
    assert vcpu.regs["pc"] == hv.guest.idle_vaddr


def test_arm64_full_attach():
    tb = Testbed(arch="arm64")
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    assert session.report.kernel_vbase == hv.guest.image.vbase
    assert ARM64.kernel_text_base <= session.report.kernel_vbase
    assert session.console.run_command("echo arm").output == "arm"
    # Trampoline restored the arm64 context.
    assert hv.vm.vcpus[0].regs["pc"] == hv.guest.idle_vaddr
    assert hv.guest.panicked is None


@pytest.mark.parametrize("version", [ALL_TESTED_VERSIONS[0], ALL_TESTED_VERSIONS[-1]],
                         ids=str)
def test_arm64_kernel_versions(version):
    """Symbol-table eras are arch-independent; both parse on arm64."""
    tb = Testbed(arch="arm64")
    hv = tb.launch_qemu(guest_version=version)
    session = tb.vmsh().attach(hv.pid)
    assert session.report.ksymtab_layout == version.ksymtab_layout


def test_arm64_wrap_syscall_mode():
    tb = Testbed(arch="arm64", ioregionfd=False)
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    assert session.mmio_mode == "wrap_syscall"
    assert session.console.run_command("echo wrapped-arm").output == "wrapped-arm"


def test_arm64_use_case_rescue():
    from repro.usecases.rescue import RescueService, verify_password_reset

    tb = Testbed(arch="arm64")
    hv = tb.launch_qemu()
    report = RescueService(tb.vmsh()).reset_password(hv, "root", "armpw")
    assert verify_password_reset(report, "root")


def test_kaslr_ranges_do_not_overlap_across_arches():
    x_lo = X86_64.kernel_text_base
    a_lo = ARM64.kernel_text_base
    assert x_lo != a_lo
    # A VMSH build for the wrong arch would scan the wrong window and
    # find nothing — exercised implicitly by find_kernel using the
    # gateway's arch.
