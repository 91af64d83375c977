"""AArch64 stage-1 page tables (4 KiB granule, 4 levels), in guest memory.

Descriptor format per the ARMv8-A VMSA: at levels 0-2, bits[1:0] == 0b11
is a table descriptor and 0b01 a block mapping; at level 3, 0b11 is a
page descriptor.  Output address lives in bits 47:12, the Access Flag
in bit 10, AP[2] (read-only) in bit 7, UXN/PXN in bits 54/53.

The walker/builder expose the same API as the x86-64 classes in
:mod:`repro.mem.pagetable`, so the whole side-loading pipeline works on
either architecture through the :class:`repro.arch.Arch` descriptor.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import PageFaultError
from repro.mem.layout import canonical, uncanonical
from repro.mem.pagetable import Translation
from repro.units import PAGE_SHIFT, PAGE_SIZE

DESC_VALID = 0b1
DESC_TABLE_OR_PAGE = 0b11        # table at L0-2, page at L3
DESC_BLOCK = 0b01                # block mapping at L1/L2

ATTR_AF = 1 << 10                # access flag: absent => access fault
ATTR_AP_RO = 1 << 7              # AP[2]: read-only when set
ATTR_PXN = 1 << 53
ATTR_UXN = 1 << 54

ADDR_MASK = 0x0000FFFFFFFFF000   # output address bits 47:12

ENTRIES_PER_TABLE = 512
LEVEL_SHIFTS = (39, 30, 21, 12)  # L0, L1, L2, L3


class Arm64PageTableWalker:
    """Walks AArch64 tables through a physical-read callback."""

    def __init__(self, read_u64: Callable[[int], int]):
        self._read_u64 = read_u64

    def translate(self, ttbr: int, vaddr: int) -> Translation:
        raw = uncanonical(canonical(vaddr))
        table = ttbr & ADDR_MASK
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            desc_paddr = table + index * 8
            descriptor = self._read_u64(desc_paddr)
            if not descriptor & DESC_VALID:
                raise PageFaultError(
                    canonical(vaddr), f"translation fault level {depth}"
                )
            level = depth
            dtype = descriptor & 0b11
            if level == 3:
                if dtype != DESC_TABLE_OR_PAGE:
                    raise PageFaultError(canonical(vaddr), "invalid L3 descriptor")
                if not descriptor & ATTR_AF:
                    raise PageFaultError(canonical(vaddr), "access flag fault")
                base = descriptor & ADDR_MASK
                return Translation(
                    paddr=base | (raw & (PAGE_SIZE - 1)),
                    flags=descriptor & ~ADDR_MASK,
                    level=1,
                    pte_paddr=desc_paddr,
                )
            if dtype == DESC_BLOCK and level in (1, 2):
                if not descriptor & ATTR_AF:
                    raise PageFaultError(canonical(vaddr), "access flag fault")
                block_shift = LEVEL_SHIFTS[depth]
                mask = (1 << block_shift) - 1
                base = descriptor & ADDR_MASK & ~mask
                return Translation(
                    paddr=base | (raw & mask),
                    flags=descriptor & ~ADDR_MASK,
                    level=3 - level + 1,
                    pte_paddr=desc_paddr,
                )
            if dtype != DESC_TABLE_OR_PAGE:
                raise PageFaultError(canonical(vaddr), f"invalid L{level} descriptor")
            table = descriptor & ADDR_MASK
        raise AssertionError("unreachable")

    def is_mapped(self, ttbr: int, vaddr: int) -> bool:
        try:
            self.translate(ttbr, vaddr)
            return True
        except PageFaultError:
            return False

    def iter_present_range(
        self, ttbr: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, Translation]]:
        """Yield (vaddr, translation) for each mapped page in [start, end).

        Skips invalid subtrees wholesale, like the x86-64 walker.  As
        there, the KASLR scan probes slot bases through the gateway
        instead.
        """
        vaddr = start
        while vaddr < end:
            try:
                tr = self.translate(ttbr, vaddr)
            except PageFaultError:
                vaddr = canonical(self._next_candidate(ttbr, vaddr, step))
                continue
            yield canonical(vaddr), tr
            vaddr += step

    def _next_candidate(self, ttbr: int, vaddr: int, step: int) -> int:
        raw = uncanonical(canonical(vaddr))
        table = ttbr & ADDR_MASK
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            descriptor = self._read_u64(table + index * 8)
            if not descriptor & DESC_VALID:
                span = 1 << shift
                return ((raw >> shift) + 1) << shift if span >= step else raw + step
            if (descriptor & 0b11) == DESC_BLOCK and depth in (1, 2):
                return raw + step
            if depth == 3:
                return raw + step
            table = descriptor & ADDR_MASK
        return raw + step


class Arm64PageTableBuilder:
    """Builds AArch64 tables inside guest physical memory."""

    def __init__(
        self,
        read_u64: Callable[[int], int],
        write_u64: Callable[[int, int], None],
        alloc_table_page: Callable[[], int],
    ):
        self._read_u64 = read_u64
        self._write_u64 = write_u64
        self._alloc = alloc_table_page
        self.tables_allocated: List[int] = []

    def new_root(self) -> int:
        return self._alloc_table()

    def _alloc_table(self) -> int:
        paddr = self._alloc()
        if paddr % PAGE_SIZE:
            raise ValueError("table pages must be page aligned")
        for i in range(ENTRIES_PER_TABLE):
            self._write_u64(paddr + i * 8, 0)
        self.tables_allocated.append(paddr)
        return paddr

    def map_page(
        self,
        ttbr: int,
        vaddr: int,
        paddr: int,
        writable: bool = True,
        user: bool = False,
        nx: bool = False,
        global_: bool = True,
    ) -> None:
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ValueError("mappings must be page aligned")
        raw = uncanonical(canonical(vaddr))
        table = ttbr & ADDR_MASK
        for shift in LEVEL_SHIFTS[:-1]:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            desc_addr = table + index * 8
            descriptor = self._read_u64(desc_addr)
            if not descriptor & DESC_VALID:
                child = self._alloc_table()
                self._write_u64(desc_addr, child | DESC_TABLE_OR_PAGE)
                descriptor = child | DESC_TABLE_OR_PAGE
            elif (descriptor & 0b11) == DESC_BLOCK:
                raise ValueError(f"cannot split block mapping at {canonical(vaddr):#x}")
            table = descriptor & ADDR_MASK
        index = (raw >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)
        descriptor = (paddr & ADDR_MASK) | DESC_TABLE_OR_PAGE | ATTR_AF
        if not writable:
            descriptor |= ATTR_AP_RO
        if nx:
            descriptor |= ATTR_UXN | ATTR_PXN
        self._write_u64(table + index * 8, descriptor)

    def map_range(
        self,
        ttbr: int,
        vaddr: int,
        paddr: int,
        length: int,
        writable: bool = True,
        user: bool = False,
        nx: bool = False,
    ) -> None:
        if length <= 0:
            raise ValueError("length must be positive")
        npages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        for i in range(npages):
            self.map_page(
                ttbr, vaddr + i * PAGE_SIZE, paddr + i * PAGE_SIZE,
                writable=writable, user=user, nx=nx,
            )

    def unmap_page(self, ttbr: int, vaddr: int) -> None:
        raw = uncanonical(canonical(vaddr))
        table = ttbr & ADDR_MASK
        for shift in LEVEL_SHIFTS[:-1]:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            descriptor = self._read_u64(table + index * 8)
            if not descriptor & DESC_VALID:
                raise PageFaultError(canonical(vaddr), "unmap of absent mapping")
            table = descriptor & ADDR_MASK
        index = (raw >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)
        self._write_u64(table + index * 8, 0)
