"""CPU architecture layer: x86-64, arm64, and the RISC-V port.

The paper's prototype "only support[s] the x86_64 architecture.  We
have plans to port our system to arm64.  An architecture port would
require to extend the system call injection, as well as register and
page table handling." (§5)

This module implements that port surface as a *behavioral* interface:
everything arch-specific the side-loading pipeline touches is a method,
property or field of an :class:`Arch` —

* the page-table entry format (:attr:`Arch.pt_format`), which drives
  the one walker and builder (:meth:`Arch.walker`, :meth:`Arch.builder`),
  the page-table-root register encoding/decoding
  (:meth:`Arch.encode_pt_root` / :meth:`Arch.pt_root_paddr` — identity
  for CR3/TTBR1, the MODE+PPN ``satp`` format on RISC-V) and the
  permission view of a hardware translation
  (:meth:`Arch.translation_perms` — NX vs UXN vs the R/W/X PTE bits),
* the register file and the sideload trampoline scratch layout
  (:meth:`Arch.pack_context` / :meth:`Arch.unpack_context` /
  :attr:`Arch.scratch_size`),
* the ksymtab export layout a given kernel version uses on this arch
  (:meth:`Arch.ksymtab_layout` — RISC-V never selected
  ``HAVE_ARCH_PREL32_RELOCATIONS``, so it always exports absolute
  addresses),
* the KASLR window (:attr:`kernel_text_base` /
  :attr:`kernel_text_range` / :attr:`kaslr_align`), and
* hypervisor-quirk inputs such as :attr:`ioregionfd_available`.

The rest of the stack is arch-agnostic and dispatches through the
descriptor; adding a new guest ISA means adding one descriptor here
plus an entry format (:class:`repro.mem.pagetable.EntryFormat`) under
``repro.mem``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.mem.pagetable import (
    X86_FORMAT,
    EntryFormat,
    PageTableBuilder,
    PageTableWalker,
)
from repro.mem.pagetable_arm64 import ARM64_FORMAT
from repro.mem.pagetable_riscv import (  # noqa: F401 (satp modes re-exported)
    SATP_MODE_SV39,
    SATP_MODE_SV48,
    SV39_FORMAT,
    SV48_FORMAT,
)
from repro.units import GiB, MiB

# x86-64 -----------------------------------------------------------------------

X86_GP_REGISTERS: Tuple[str, ...] = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rsp", "rbp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    "rip", "rflags",
)
X86_SREGS: Tuple[str, ...] = ("cr0", "cr3", "cr4", "efer", "gdt_base", "idt_base")

# arm64 ------------------------------------------------------------------------

ARM64_GP_REGISTERS: Tuple[str, ...] = tuple(
    f"x{i}" for i in range(31)
) + ("sp", "pc", "pstate")
ARM64_SREGS: Tuple[str, ...] = (
    "ttbr0_el1", "ttbr1_el1", "sctlr_el1", "tcr_el1", "mair_el1", "vbar_el1",
)

# riscv64 ----------------------------------------------------------------------

RISCV_GP_REGISTERS: Tuple[str, ...] = tuple(f"x{i}" for i in range(32)) + ("pc",)
RISCV_SREGS: Tuple[str, ...] = (
    "sstatus", "satp", "stvec", "sepc", "scause", "stval",
)


@dataclass(frozen=True)
class Arch:
    """Everything arch-specific in the side-load pipeline."""

    name: str
    gp_registers: Tuple[str, ...]
    sregs: Tuple[str, ...]
    ip_register: str                 # where execution resumes
    sp_register: str
    pt_root_sreg: str                # CR3 / TTBR1_EL1 / satp (§4.1, §5)
    kernel_text_base: int
    kernel_text_range: int
    kaslr_align: int
    # The page-table entry format that walker(), builder(), the root
    # encoding and translation_perms() run over.  Formats compare by
    # identity, so it stays out of eq and hash.
    pt_format: EntryFormat = field(compare=False, repr=False)
    # ``family`` groups paging variants of one ISA ("riscv64" covers
    # both the Sv39 and Sv48 descriptors); hypervisor support tables
    # key on the family, not the descriptor name.
    family: str = ""
    # Whether the host kernel implements KVM_CAP_IOREGIONFD for this
    # arch.  The ioregionfd series was never merged for riscv, so
    # attach falls back to the wrap_syscall transport there (§4.2).
    ioregionfd_available: bool = True

    def __post_init__(self) -> None:
        if not self.family:
            object.__setattr__(self, "family", self.name)

    # -- KASLR window ---------------------------------------------------------

    @property
    def kaslr_slots(self) -> int:
        return self.kernel_text_range // self.kaslr_align

    def kaslr_slot_to_vaddr(self, slot: int) -> int:
        if not 0 <= slot < self.kaslr_slots:
            raise ValueError(f"KASLR slot {slot} out of range for {self.name}")
        return self.kernel_text_base + slot * self.kaslr_align

    # -- page tables ----------------------------------------------------------

    def walker(self, read_u64, read_run=None) -> PageTableWalker:
        """Page-table walker over a ``read_u64(paddr)`` callback."""
        return PageTableWalker(self.pt_format, read_u64, read_run)

    def builder(self, read_u64, write_u64, alloc_table_page, write_run=None) -> PageTableBuilder:
        """Page-table builder writing real entry bytes into guest memory."""
        return PageTableBuilder(self.pt_format, read_u64, write_u64, alloc_table_page, write_run)

    def encode_pt_root(self, root_paddr: int) -> int:
        """Turn a root-table physical address into the sreg value.

        Identity on x86 (CR3 holds the PML4 paddr) and arm64 (TTBR1
        holds the L0 paddr); RISC-V packs MODE and PPN into ``satp``.
        """
        return self.pt_format.encode_root(root_paddr)

    def pt_root_paddr(self, reg_value: int) -> int:
        """Decode the page-table root paddr out of the sreg value."""
        return self.pt_format.root_table(reg_value)

    def translation_perms(self, translation) -> FrozenSet[str]:
        """Logical r/w/x permission set of a hardware translation."""
        return self.pt_format.perms(translation)

    # -- sideload trampoline scratch area -------------------------------------

    @property
    def scratch_size(self) -> int:
        """Bytes the trampoline needs to spill the full register file."""
        return len(self.gp_registers) * 8

    def pack_context(self, regs: Mapping[str, int]) -> bytes:
        """Serialize the register file in trampoline save order."""
        return struct.pack(
            f"<{len(self.gp_registers)}Q",
            *(regs[r] for r in self.gp_registers),
        )

    def unpack_context(self, data: bytes) -> Dict[str, int]:
        """Inverse of :meth:`pack_context` (extra trailing bytes ignored)."""
        if len(data) < self.scratch_size:
            raise ValueError(
                f"scratch area too small for {self.name}: "
                f"{len(data)} < {self.scratch_size} bytes"
            )
        values = struct.unpack_from(f"<{len(self.gp_registers)}Q", data)
        return dict(zip(self.gp_registers, values))

    # -- ksymtab --------------------------------------------------------------

    def ksymtab_layout(self, version) -> str:
        """Which ksymtab export layout this kernel uses on this arch."""
        return version.ksymtab_layout


@dataclass(frozen=True)
class RiscvArch(Arch):
    """RISC-V with Sv39 or Sv48 paging, selected by the format's ``satp_mode``.

    Linux on riscv boots Sv39 by default (Sv48 arrived only in 5.17,
    after every kernel version in the test matrix), so the plain
    ``riscv64`` descriptor is Sv39 and ``riscv64_sv48`` opts into the
    four-level variant.  The *walker* side is mode-agnostic: it decodes
    the MODE field out of ``satp`` on every walk, exactly as the MMU
    does, so one walker handles guests booted either way.
    """

    def ksymtab_layout(self, version) -> str:
        # arch/riscv never selected HAVE_ARCH_PREL32_RELOCATIONS: every
        # kernel in the matrix exports absolute-address ksymtab entries.
        return "absolute"


X86_64 = Arch(
    name="x86_64",
    gp_registers=X86_GP_REGISTERS,
    sregs=X86_SREGS,
    ip_register="rip",
    sp_register="rsp",
    pt_root_sreg="cr3",
    kernel_text_base=0xFFFFFFFF80000000,
    kernel_text_range=1 * GiB,
    kaslr_align=2 * MiB,
    pt_format=X86_FORMAT,
)

ARM64 = Arch(
    name="arm64",
    gp_registers=ARM64_GP_REGISTERS,
    sregs=ARM64_SREGS,
    ip_register="pc",
    sp_register="sp",
    pt_root_sreg="ttbr1_el1",
    # The arm64 kernel image window (KASLR over the module/text region).
    kernel_text_base=0xFFFF800010000000,
    kernel_text_range=1 * GiB,
    kaslr_align=2 * MiB,
    pt_format=ARM64_FORMAT,
)

_RISCV_COMMON = dict(
    gp_registers=RISCV_GP_REGISTERS,
    sregs=RISCV_SREGS,
    ip_register="pc",
    sp_register="x2",
    pt_root_sreg="satp",
    # KERNEL_LINK_ADDR for 64-bit riscv: the top 4 GiB of the address
    # space, canonical under both Sv39 and Sv48.
    kernel_text_base=0xFFFFFFFF00000000,
    kernel_text_range=1 * GiB,
    kaslr_align=2 * MiB,
    family="riscv64",
    ioregionfd_available=False,
)

RISCV64 = RiscvArch(name="riscv64", pt_format=SV39_FORMAT, **_RISCV_COMMON)
RISCV64_SV48 = RiscvArch(
    name="riscv64_sv48", pt_format=SV48_FORMAT, **_RISCV_COMMON
)

ARCHES = {
    "x86_64": X86_64,
    "arm64": ARM64,
    "riscv64": RISCV64,
    "riscv64_sv48": RISCV64_SV48,
}


def arch_by_name(name: str) -> Arch:
    try:
        return ARCHES[name]
    except KeyError:
        raise ValueError(f"unknown architecture {name!r}") from None
