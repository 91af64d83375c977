"""x86-64 four-level page tables, encoded as real bytes in guest memory.

The guest kernel builds these tables in simulated physical memory at
boot; VMSH later *walks the same bytes from the host side* (via the
hypervisor's mapping of guest memory) to find the kernel image in the
KASLR range and to map its side-loaded library — exactly the data flow
of §4.1/§4.2.  Entries use the genuine x86-64 PTE bit layout, so the
walker cannot cheat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import PageFaultError
from repro.mem.layout import canonical, uncanonical
from repro.units import PAGE_SHIFT, PAGE_SIZE

# PTE flag bits (Intel SDM Vol. 3, Table 4-19)
PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
PTE_PSE = 1 << 7            # huge page (in PDE/PDPTE)
PTE_GLOBAL = 1 << 8
PTE_NX = 1 << 63

PTE_ADDR_MASK = 0x000FFFFFFFFFF000  # bits 12..51

ENTRIES_PER_TABLE = 512
LEVEL_SHIFTS = (39, 30, 21, 12)  # PML4, PDPT, PD, PT


@dataclass(frozen=True)
class Translation:
    """Result of a successful page walk."""

    paddr: int
    flags: int
    level: int          # 1 = 4K page, 2 = 2M huge page, 3 = 1G huge page
    pte_paddr: int      # physical address of the final entry


class PageTableWalker:
    """Walks page tables through an arbitrary physical-read callback.

    The callback indirection matters: the guest kernel walks via direct
    physical memory access, while VMSH walks via
    ``process_vm_readv`` on the *hypervisor's* address space, paying
    the corresponding costs.  Both use this same class.
    """

    def __init__(self, read_u64: Callable[[int], int]):
        self._read_u64 = read_u64

    def translate(self, cr3: int, vaddr: int) -> Translation:
        """Translate ``vaddr`` using the tables rooted at ``cr3``."""
        vaddr = uncanonical(canonical(vaddr))
        table = cr3 & PTE_ADDR_MASK
        flags_accumulated = PTE_WRITABLE | PTE_USER
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (vaddr >> shift) & (ENTRIES_PER_TABLE - 1)
            pte_paddr = table + index * 8
            entry = self._read_u64(pte_paddr)
            if not entry & PTE_PRESENT:
                raise PageFaultError(canonical(vaddr), f"not present at level {4 - depth}")
            flags_accumulated &= entry | ~(PTE_WRITABLE | PTE_USER)
            level = 4 - depth
            is_leaf = level == 1 or (entry & PTE_PSE and level in (2, 3))
            if is_leaf:
                page_shift = LEVEL_SHIFTS[depth]
                page_mask = (1 << page_shift) - 1
                base = entry & PTE_ADDR_MASK & ~page_mask
                return Translation(
                    paddr=base | (vaddr & page_mask),
                    flags=(entry & ~PTE_ADDR_MASK) | (flags_accumulated & (PTE_WRITABLE | PTE_USER)),
                    level=level,
                    pte_paddr=pte_paddr,
                )
            table = entry & PTE_ADDR_MASK
        raise AssertionError("unreachable: level-1 entries are always leaves")

    def is_mapped(self, cr3: int, vaddr: int) -> bool:
        try:
            self.translate(cr3, vaddr)
            return True
        except PageFaultError:
            return False

    def iter_present_range(
        self, cr3: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, Translation]]:
        """Yield (vaddr, translation) for each mapped page in [start, end).

        It walks top-down and skips absent higher-level entries
        wholesale, so listing a 1 GiB range is cheap even when only a
        few MiB are mapped.  VMSH's KASLR scan does not use it: it
        probes slot bases through the gateway, whose TLB then already
        holds the image's translations for the ksymtab read, and its
        page-table view makes every probe's walk a local decode.
        """
        vaddr = start
        while vaddr < end:
            try:
                tr = self.translate(cr3, vaddr)
            except PageFaultError:
                vaddr = canonical(self._next_candidate(cr3, vaddr, step))
                continue
            yield canonical(vaddr), tr
            vaddr += step
        return

    def _next_candidate(self, cr3: int, vaddr: int, step: int) -> int:
        """Skip past the largest provably-unmapped region after a fault."""
        raw = uncanonical(canonical(vaddr))
        table = cr3 & PTE_ADDR_MASK
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry = self._read_u64(table + index * 8)
            if not entry & PTE_PRESENT:
                # Entire subtree absent: jump to the next entry at this level.
                span = 1 << shift
                return ((raw >> shift) + 1) << shift if span >= step else raw + step
            if entry & PTE_PSE and (4 - depth) in (2, 3):
                return raw + step
            table = entry & PTE_ADDR_MASK
        return raw + step


class PageTableBuilder:
    """Builds page tables inside guest physical memory.

    Used by the guest kernel at boot, and later by VMSH when it maps
    its side-loaded library right after the kernel image (§4.2) — the
    latter writes entries through the hypervisor's memory mapping.
    """

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
        """Allocate a fresh, empty PML4 and return its physical address."""
        root = self._alloc_table()
        return root

    def _alloc_table(self) -> int:
        paddr = self._alloc()
        if paddr % PAGE_SIZE:
            raise ValueError("page table pages must be page aligned")
        for i in range(ENTRIES_PER_TABLE):
            self._write_u64(paddr + i * 8, 0)
        self.tables_allocated.append(paddr)
        return paddr

    def map_page(
        self,
        cr3: int,
        vaddr: int,
        paddr: int,
        writable: bool = True,
        user: bool = False,
        nx: bool = False,
        global_: bool = True,
    ) -> None:
        """Map one 4 KiB page, allocating intermediate tables on demand."""
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ValueError("mappings must be page aligned")
        raw = uncanonical(canonical(vaddr))
        table = cr3 & PTE_ADDR_MASK
        for shift in LEVEL_SHIFTS[:-1]:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry_addr = table + index * 8
            entry = self._read_u64(entry_addr)
            if not entry & PTE_PRESENT:
                child = self._alloc_table()
                entry = child | PTE_PRESENT | PTE_WRITABLE | PTE_USER
                self._write_u64(entry_addr, entry)
            elif entry & PTE_PSE:
                raise ValueError(f"cannot split huge mapping at {canonical(vaddr):#x}")
            table = entry & PTE_ADDR_MASK
        index = (raw >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)
        flags = PTE_PRESENT | PTE_ACCESSED
        if writable:
            flags |= PTE_WRITABLE
        if user:
            flags |= PTE_USER
        if nx:
            flags |= PTE_NX
        if global_:
            flags |= PTE_GLOBAL
        self._write_u64(table + index * 8, (paddr & PTE_ADDR_MASK) | flags)

    def map_range(
        self,
        cr3: int,
        vaddr: int,
        paddr: int,
        length: int,
        writable: bool = True,
        user: bool = False,
        nx: bool = False,
    ) -> None:
        """Map a page-aligned range of ``length`` bytes."""
        if length <= 0:
            raise ValueError("length must be positive")
        npages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        for i in range(npages):
            self.map_page(
                cr3,
                vaddr + i * PAGE_SIZE,
                paddr + i * PAGE_SIZE,
                writable=writable,
                user=user,
                nx=nx,
            )

    def unmap_page(self, cr3: int, vaddr: int) -> None:
        """Clear the leaf entry for ``vaddr`` (intermediate tables remain)."""
        raw = uncanonical(canonical(vaddr))
        table = cr3 & PTE_ADDR_MASK
        for shift in LEVEL_SHIFTS[:-1]:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry = self._read_u64(table + index * 8)
            if not entry & PTE_PRESENT:
                raise PageFaultError(canonical(vaddr), "unmap of absent mapping")
            table = entry & PTE_ADDR_MASK
        index = (raw >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)
        self._write_u64(table + index * 8, 0)
