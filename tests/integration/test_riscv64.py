"""The RISC-V architecture port (PR 9): Sv39/Sv48 guests end to end.

The third ISA behind the :class:`repro.arch.Arch` interface: genuine
Sv39/Sv48 PTE encoding built by the guest kernel at boot and walked
host-side, the x0-x31/pc register file with ``satp``'s MODE|PPN root
encoding, the always-"absolute" riscv ksymtab layout, and the
wrap_syscall-only attach (ioregionfd never landed for riscv).
"""

import itertools

import pytest

from repro.arch import (
    ARM64,
    RISCV64,
    RISCV64_SV48,
    SATP_MODE_SV39,
    SATP_MODE_SV48,
    X86_64,
    arch_by_name,
)
from repro.errors import PageFaultError
from repro.guestos.version import ALL_TESTED_VERSIONS, KernelVersion
from repro.mem.pagetable_riscv import (
    PTE_A,
    PTE_D,
    PTE_G,
    PTE_R,
    PTE_V,
    PTE_W,
    PTE_X,
)
from repro.mem.physmem import PhysicalMemory
from repro.testbed import Testbed
from repro.units import GiB, MiB, PAGE_SIZE


# -- arch descriptors ------------------------------------------------------------

def test_arch_descriptors():
    assert arch_by_name("riscv64") is RISCV64
    assert arch_by_name("riscv64_sv48") is RISCV64_SV48
    assert RISCV64.family == RISCV64_SV48.family == "riscv64"
    assert RISCV64.pt_root_sreg == "satp"
    assert RISCV64.ip_register == "pc" and RISCV64.sp_register == "x2"
    assert len(RISCV64.gp_registers) == 33          # x0..x31 + pc
    assert not RISCV64.ioregionfd_available


def test_satp_encode_decode_roundtrip():
    root = 0x0030_0000
    sv39 = RISCV64.encode_pt_root(root)
    sv48 = RISCV64_SV48.encode_pt_root(root)
    assert sv39 >> 60 == SATP_MODE_SV39
    assert sv48 >> 60 == SATP_MODE_SV48
    assert RISCV64.pt_root_paddr(sv39) == root
    assert RISCV64_SV48.pt_root_paddr(sv48) == root
    # x86/arm64 roots are ~identity by contrast.
    assert X86_64.encode_pt_root(root) == root
    assert ARM64.encode_pt_root(root) == root


def test_scratch_area_derived_from_register_file():
    from repro.sideload import SCRATCH_SIZE, build_blob, parse_blob

    assert RISCV64.scratch_size == 33 * 8
    assert SCRATCH_SIZE == max(
        a.scratch_size for a in (X86_64, ARM64, RISCV64)
    )
    blob = build_blob("p", [], {}, b"", arch=RISCV64)
    parsed = parse_blob(lambda off, n: blob[off : off + n])
    assert parsed.scratch_size == RISCV64.scratch_size


def test_pack_unpack_context_roundtrip():
    regs = {r: i * 0x1111 for i, r in enumerate(RISCV64.gp_registers)}
    packed = RISCV64.pack_context(regs)
    assert len(packed) == RISCV64.scratch_size
    assert RISCV64.unpack_context(packed) == regs
    with pytest.raises(ValueError):
        RISCV64.unpack_context(packed[:-8])


# -- Sv39 / Sv48 page tables ------------------------------------------------------

#: (writable, nx) -> leaf PTE for frame 0x300000: V|R|A|D|G, plus W,
#: plus X unless nx.
LEAF_WORDS = {
    (True, False): 0xC00EF,
    (True, True): 0xC00E7,
    (False, False): 0xC00EB,
    (False, True): 0xC00E3,
}
#: the root PTE pointing to the first table allocated after the root
#: (0x101000): PPN 0x101, V
TABLE_WORD = 0x40401

@pytest.fixture(params=["riscv64", "riscv64_sv48"])
def riscv_tables(request):
    arch = arch_by_name(request.param)
    mem = PhysicalMemory(32 * MiB)
    alloc = itertools.count(1 * MiB, PAGE_SIZE)
    builder = arch.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    walker = arch.walker(mem.read_u64)
    satp = arch.encode_pt_root(builder.new_root())
    return arch, mem, builder, walker, satp


def test_riscv_map_translate(riscv_tables):
    arch, _, builder, walker, satp = riscv_tables
    vaddr = arch.kernel_text_base
    builder.map_page(satp, vaddr, 0x200000)
    tr = walker.translate(satp, vaddr + 0x456)
    assert tr.paddr == 0x200456
    assert tr.level == 1


def test_riscv_levels_differ_by_mode(riscv_tables):
    """Sv39 spends 3 table pages per fresh mapping path, Sv48 spends 4."""
    arch, _, builder, walker, satp = riscv_tables
    builder.map_page(satp, arch.kernel_text_base, 0x200000)
    expected = 3 if arch is RISCV64 else 4   # root + intermediates
    assert len(builder.tables_allocated) == expected


def test_riscv_pte_encoding(riscv_tables):
    """Leaf entries are genuine Sv39/Sv48 PTEs: flag bits + PPN field."""
    arch, mem, builder, walker, satp = riscv_tables
    vaddr = arch.kernel_text_base
    builder.map_page(satp, vaddr, 0x300000, writable=False, nx=True)
    tr = walker.translate(satp, vaddr)
    pte = mem.read_u64(tr.pte_paddr)
    assert pte & PTE_V and pte & PTE_R
    assert not pte & PTE_W and not pte & PTE_X       # ro, never-execute
    assert pte & PTE_A and pte & PTE_D and pte & PTE_G
    assert ((pte >> 10) << 12) & ~0xFFF == 0x300000  # PPN encodes the frame
    assert arch.translation_perms(tr) == frozenset({"r"})
    # The words themselves, for every (writable, nx) pair.
    for i, ((writable, nx), word) in enumerate(LEAF_WORDS.items(), start=1):
        page = vaddr + i * PAGE_SIZE
        builder.map_page(satp, page, 0x300000, writable=writable, nx=nx)
        assert mem.read_u64(walker.translate(satp, page).pte_paddr) == word
    root_shift = 30 if arch is RISCV64 else 39
    root_index = (vaddr >> root_shift) & 0x1FF
    assert mem.read_u64(arch.pt_root_paddr(satp) + root_index * 8) == TABLE_WORD


def test_riscv_unmapped_faults(riscv_tables):
    arch, _, _, walker, satp = riscv_tables
    with pytest.raises(PageFaultError, match="not valid"):
        walker.translate(satp, arch.kernel_text_base)


def test_riscv_range_and_unmap(riscv_tables):
    arch, _, builder, walker, satp = riscv_tables
    base = arch.kernel_text_base
    builder.map_range(satp, base, 0x400000, 5 * PAGE_SIZE)
    found = list(walker.iter_present_range(satp, base, base + 1 * MiB))
    assert len(found) == 5
    builder.unmap_page(satp, base + PAGE_SIZE)
    assert not walker.is_mapped(satp, base + PAGE_SIZE)
    assert walker.is_mapped(satp, base)


def test_riscv_megapage_and_gigapage():
    """R/W/X on a non-last-level PTE is a superpage leaf (2M / 1G)."""
    mem = PhysicalMemory(64 * MiB)
    alloc = itertools.count(1 * MiB, PAGE_SIZE)
    builder = RISCV64.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    walker = RISCV64.walker(mem.read_u64)
    satp = RISCV64.encode_pt_root(builder.new_root())
    root = RISCV64.pt_root_paddr(satp)
    vaddr = RISCV64.kernel_text_base

    # Gigapage leaf straight in the root table (VPN[2] slot).
    vpn2 = (vaddr >> 30) & 0x1FF
    giga_frame = 1 * GiB
    mem.write_u64(
        root + vpn2 * 8,
        ((giga_frame >> 12) << 10) | PTE_V | PTE_R | PTE_W | PTE_X | PTE_A | PTE_D,
    )
    tr = walker.translate(satp, vaddr + 0x123456)
    assert tr.level == 3
    assert tr.paddr == giga_frame + ((vaddr + 0x123456) & ((1 << 30) - 1))

    # Megapage leaf one level down.
    l1 = next(alloc)
    for i in range(512):
        mem.write_u64(l1 + i * 8, 0)
    mem.write_u64(root + vpn2 * 8, ((l1 >> 12) << 10) | PTE_V)
    vpn1 = (vaddr >> 21) & 0x1FF
    mega_frame = 16 * MiB
    mem.write_u64(
        l1 + vpn1 * 8,
        ((mega_frame >> 12) << 10) | PTE_V | PTE_R | PTE_X | PTE_A,
    )
    tr = walker.translate(satp, vaddr + 0x54321)
    assert tr.level == 2
    assert tr.paddr == mega_frame + ((vaddr + 0x54321) & ((1 << 21) - 1))
    assert RISCV64.translation_perms(tr) == frozenset({"r", "x"})

    # A misaligned superpage (nonzero low PPN bits) must fault.
    mem.write_u64(
        l1 + vpn1 * 8,
        (((mega_frame + PAGE_SIZE) >> 12) << 10) | PTE_V | PTE_R | PTE_A,
    )
    with pytest.raises(PageFaultError, match="misaligned superpage"):
        walker.translate(satp, vaddr)


def test_walker_is_mode_agnostic():
    """One walker serves Sv39 and Sv48 roots: MODE is decoded per walk."""
    mem = PhysicalMemory(32 * MiB)
    alloc = itertools.count(1 * MiB, PAGE_SIZE)
    builder = RISCV64.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    walker = RISCV64.walker(mem.read_u64)
    vaddr = RISCV64.kernel_text_base
    satp39 = RISCV64.encode_pt_root(builder.new_root())
    satp48 = RISCV64_SV48.encode_pt_root(builder.new_root())
    builder.map_page(satp39, vaddr, 0x500000)
    builder.map_page(satp48, vaddr, 0x600000)
    assert walker.translate(satp39, vaddr).paddr == 0x500000
    assert walker.translate(satp48, vaddr).paddr == 0x600000
    # A Bare-mode satp (MODE=0) cannot be walked.
    with pytest.raises(PageFaultError, match="not Sv39/Sv48"):
        walker.translate(0x300, vaddr)


# -- end-to-end on riscv64 --------------------------------------------------------

@pytest.mark.parametrize("arch_name", ["riscv64", "riscv64_sv48"])
def test_riscv_guest_boots_with_satp(arch_name):
    arch = arch_by_name(arch_name)
    tb = Testbed(arch=arch_name)
    hv = tb.launch_qemu()
    vcpu = hv.vm.vcpus[0]
    assert "pc" in vcpu.regs and "rip" not in vcpu.regs
    satp = vcpu.sregs["satp"]
    assert satp >> 60 == (SATP_MODE_SV39 if arch is RISCV64 else SATP_MODE_SV48)
    assert satp == hv.guest.cr3
    # The root table is real bytes in guest RAM at the decoded PPN.
    root = arch.pt_root_paddr(satp)
    assert hv.vm.guest_memory().read(root, 8)  # readable, in-bounds
    assert vcpu.regs["pc"] == hv.guest.idle_vaddr


@pytest.mark.parametrize("arch_name", ["riscv64", "riscv64_sv48"])
def test_riscv_full_attach(arch_name):
    tb = Testbed(arch=arch_name)
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    # No ioregionfd on riscv: attach must ride the wrap_syscall fallback.
    assert session.mmio_mode == "wrap_syscall"
    assert session.report.kernel_vbase == hv.guest.image.vbase
    assert session.console.run_command("echo riscv").output == "riscv"
    assert hv.vm.vcpus[0].regs["pc"] == hv.guest.idle_vaddr
    assert hv.guest.panicked is None


def test_riscv_ioregionfd_mode_refused():
    from repro.errors import VmshError

    tb = Testbed(arch="riscv64")
    hv = tb.launch_qemu()
    with pytest.raises(VmshError, match="ioregionfd"):
        tb.vmsh().attach(hv.pid, mmio_mode="ioregionfd")


@pytest.mark.parametrize("version", [ALL_TESTED_VERSIONS[0], ALL_TESTED_VERSIONS[-1]],
                         ids=str)
def test_riscv_ksymtab_always_absolute(version):
    """riscv never selected HAVE_ARCH_PREL32_RELOCATIONS: every kernel
    version exports absolute ksymtab entries, and VMSH's parser must
    detect that layout — not the version's x86 layout."""
    assert RISCV64.ksymtab_layout(version) == "absolute"
    tb = Testbed(arch="riscv64")
    hv = tb.launch_qemu(guest_version=version)
    session = tb.vmsh().attach(hv.pid)
    assert session.report.ksymtab_layout == "absolute"


def test_riscv_vmm_support_rows():
    """The per-arch hypervisor rows: firecracker and cloud-hypervisor
    ship no riscv port; qemu/kvmtool/crosvm do."""
    from repro.errors import KvmError

    tb = Testbed(arch="riscv64")
    tb.launch_qemu()
    tb.launch_kvmtool()
    tb.launch_crosvm()
    with pytest.raises(KvmError, match="no riscv64 port"):
        tb.launch_firecracker(seccomp=False)
    with pytest.raises(KvmError, match="no riscv64 port"):
        tb.launch_cloud_hypervisor()


def test_riscv_snapshot_restore_roundtrip():
    """Snapshot/restore round-trips the riscv register file bit-exactly."""
    tb = Testbed(arch="riscv64")
    hv = tb.launch_qemu()
    snap = tb.snapshot(hv)
    vcpu = hv.vm.vcpus[0]
    regs_before = dict(vcpu.regs)
    sregs_before = dict(vcpu.sregs)
    vcpu.regs["x5"] = 0xDEAD
    vcpu.sregs["stvec"] = 0xBEEF
    tb.restore(snap, hv)
    assert dict(vcpu.regs) == regs_before
    assert dict(vcpu.sregs) == sregs_before
    assert vcpu.sregs["satp"] >> 60 == SATP_MODE_SV39
    # The restored guest still serves a full attach.
    session = tb.vmsh().attach(hv.pid)
    assert session.console.run_command("echo restored").output == "restored"


def test_riscv_use_case_rescue():
    from repro.usecases.rescue import RescueService, verify_password_reset

    tb = Testbed(arch="riscv64")
    hv = tb.launch_qemu()
    report = RescueService(tb.vmsh()).reset_password(hv, "root", "riscvpw")
    assert verify_password_reset(report, "root")
