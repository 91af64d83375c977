"""RISC-V Sv39/Sv48 page-table entries.

PTE format per the RISC-V privileged spec (§4.4/§4.5): the physical
page number lives in bits 53:10 (``paddr = PPN << 12``), and the low
ten bits are flags — V(alid), R(ead), W(rite), X(ecute), U(ser),
G(lobal), A(ccessed), D(irty).  A valid entry with R=W=X=0 is a
pointer to the next-level table; any of R/W/X set makes it a leaf, at
*any* level, which is how megapages (2 MiB, level 2) and gigapages
(1 GiB, level 3) are expressed.  A leaf above the last level whose
lower PPN bits are nonzero is a misaligned superpage and faults.

Sv39 is a three-level walk indexed by VPN[2:0] (shifts 30/21/12), so
its virtual addresses are 39 bits, sign-extended from bit 38; Sv48 adds
a fourth level (shift 39) and is 48 bits wide.  The paging mode is not a
property of the tables but of the ``satp`` CSR: MODE lives in
bits 63:60 (8 = Sv39, 9 = Sv48) and the root-table PPN in bits 43:0.
The format therefore takes the *satp value* — not a bare root paddr —
as its root and decodes MODE per walk, exactly as the MMU does, so one
walker handles guests booted either way.  The walker and builder are
the ones in :mod:`repro.mem.pagetable`.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.errors import PageFaultError
from repro.mem.pagetable import FOUR_LEVELS, EntryFormat, Translation
from repro.units import PAGE_SHIFT

# PTE flag bits (RISC-V privileged spec, Figure 4.18)
PTE_V = 1 << 0
PTE_R = 1 << 1
PTE_W = 1 << 2
PTE_X = 1 << 3
PTE_U = 1 << 4
PTE_G = 1 << 5
PTE_A = 1 << 6
PTE_D = 1 << 7

PTE_PPN_SHIFT = 10
PTE_PPN_MASK = 0x003FFFFFFFFFFC00  # PPN in bits 53:10

SATP_MODE_SHIFT = 60
SATP_MODE_SV39 = 8
SATP_MODE_SV48 = 9
SATP_PPN_MASK = (1 << 44) - 1

SV39_LEVELS = FOUR_LEVELS[1:]      # VPN[2], VPN[1], VPN[0]
SV48_LEVELS = FOUR_LEVELS          # VPN[3] .. VPN[0]


def _pte_paddr(entry: int) -> int:
    """Physical address encoded in a PTE's PPN field."""
    return ((entry & PTE_PPN_MASK) >> PTE_PPN_SHIFT) << PAGE_SHIFT


class RiscvFormat(EntryFormat):
    """Sv39/Sv48 PTEs under a ``satp`` root.

    Walks decode MODE from the ``satp`` they are handed, whatever
    ``satp_mode`` is; ``satp_mode`` only says which mode
    :meth:`encode_root` packs a new root for.
    """

    addr_mask = PTE_PPN_MASK
    addr_shift = PTE_PPN_SHIFT
    valid = PTE_V
    table_bits = PTE_V

    def __init__(self, satp_mode: int):
        self.satp_mode = satp_mode

    def walk_levels(self, satp: int, vaddr: int) -> Tuple[Tuple[int, int], ...]:
        mode = satp >> SATP_MODE_SHIFT
        if mode == SATP_MODE_SV39:
            return SV39_LEVELS
        if mode == SATP_MODE_SV48:
            return SV48_LEVELS
        raise PageFaultError(vaddr, f"satp MODE {mode} is not Sv39/Sv48")

    def root_table(self, satp: int) -> int:
        return (satp & SATP_PPN_MASK) << PAGE_SHIFT

    def encode_root(self, root_paddr: int) -> int:
        return (self.satp_mode << SATP_MODE_SHIFT) | (
            (root_paddr >> PAGE_SHIFT) & SATP_PPN_MASK
        )

    def classify(self, entry: int, level: int, vaddr: int) -> bool:
        if not entry & PTE_V:
            raise PageFaultError(vaddr, f"not valid at level {level}")
        if entry & PTE_W and not entry & PTE_R:
            raise PageFaultError(vaddr, "reserved W-without-R encoding")
        if not entry & (PTE_R | PTE_X):
            if level > 1:
                return False
            raise PageFaultError(vaddr, "pointer PTE at the last level")
        if not entry & PTE_A:
            raise PageFaultError(vaddr, "accessed-bit fault")
        if _pte_paddr(entry) & ((1 << (PAGE_SHIFT + 9 * (level - 1))) - 1):
            raise PageFaultError(vaddr, f"misaligned superpage at level {level}")
        return True

    def superpage(self, entry: int, level: int) -> bool:
        return bool(entry & (PTE_R | PTE_X))

    def leaf_flags(self, writable: bool, nx: bool) -> int:
        return (
            PTE_V | PTE_R | PTE_A | PTE_D | PTE_G
            | (PTE_W if writable else 0) | (0 if nx else PTE_X)
        )

    def perms(self, tr: Translation) -> FrozenSet[str]:
        perms = set()
        if tr.flags & PTE_R:
            perms.add("r")
        if tr.flags & PTE_W:
            perms.add("w")
        if tr.flags & PTE_X:
            perms.add("x")
        return frozenset(perms)


SV39_FORMAT = RiscvFormat(SATP_MODE_SV39)
SV48_FORMAT = RiscvFormat(SATP_MODE_SV48)
