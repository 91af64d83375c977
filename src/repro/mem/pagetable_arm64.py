"""AArch64 stage-1 page-table entries (4 KiB granule, 4 levels).

Descriptor format per the ARMv8-A VMSA: at levels 0-2, bits[1:0] == 0b11
is a table descriptor and 0b01 a block mapping; at level 3, 0b11 is a
page descriptor.  Output address lives in bits 47:12, the Access Flag
in bit 10, AP[2] (read-only) in bit 7, UXN/PXN in bits 54/53.

One root serves both TTBR halves: L0 entries 0-255 map the low half
and 256-511 the high half, so an address is 48 bits, sign-extended
from bit 47, as on x86-64.

The walker and builder are the ones in :mod:`repro.mem.pagetable`;
this module supplies the format they run over.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.errors import PageFaultError
from repro.mem.pagetable import EntryFormat, Translation

DESC_VALID = 0b1
DESC_TABLE_OR_PAGE = 0b11        # table at L0-2, page at L3
DESC_BLOCK = 0b01                # block mapping at L1/L2

ATTR_AF = 1 << 10                # access flag: absent => access fault
ATTR_AP_RO = 1 << 7              # AP[2]: read-only when set
ATTR_PXN = 1 << 53
ATTR_UXN = 1 << 54

ADDR_MASK = 0x0000FFFFFFFFF000   # output address bits 47:12


class Arm64Format(EntryFormat):
    """AArch64 descriptors.  The VMSA numbers lookup levels 0-3 from
    the root, so its level is ``4 - level`` in the engine's count."""

    addr_mask = ADDR_MASK
    valid = DESC_VALID
    table_bits = DESC_TABLE_OR_PAGE

    def classify(self, entry: int, level: int, vaddr: int) -> bool:
        if not entry & DESC_VALID:
            raise PageFaultError(vaddr, f"translation fault level {4 - level}")
        if (entry & 0b11) == DESC_TABLE_OR_PAGE:
            if level > 1:
                return False
        elif level in (1, 4):
            # A block descriptor where the granule allows none (L0, L3).
            raise PageFaultError(vaddr, f"invalid L{4 - level} descriptor")
        if not entry & ATTR_AF:
            raise PageFaultError(vaddr, "access flag fault")
        return True

    def superpage(self, entry: int, level: int) -> bool:
        return level in (2, 3) and (entry & 0b11) == DESC_BLOCK

    def leaf_flags(self, writable: bool, nx: bool) -> int:
        return (
            DESC_TABLE_OR_PAGE | ATTR_AF
            | (0 if writable else ATTR_AP_RO) | (ATTR_UXN | ATTR_PXN if nx else 0)
        )

    def perms(self, tr: Translation) -> FrozenSet[str]:
        perms = {"r"}
        if not tr.flags & ATTR_AP_RO:
            perms.add("w")
        if not tr.flags & ATTR_UXN:
            perms.add("x")
        return frozenset(perms)


ARM64_FORMAT = Arm64Format()
