"""RISC-V Sv39/Sv48 page tables, encoded as real bytes in guest memory.

PTE format per the RISC-V privileged spec (§4.4/§4.5): the physical
page number lives in bits 53:10 (``paddr = PPN << 12``), and the low
ten bits are flags — V(alid), R(ead), W(rite), X(ecute), U(ser),
G(lobal), A(ccessed), D(irty).  A valid entry with R=W=X=0 is a
pointer to the next-level table; any of R/W/X set makes it a leaf, at
*any* level, which is how megapages (2 MiB, level 2) and gigapages
(1 GiB, level 3) are expressed.  A leaf above the last level whose
lower PPN bits are nonzero is a misaligned superpage and faults.

Sv39 is a three-level walk indexed by VPN[2:0] (shifts 30/21/12);
Sv48 adds a fourth level (shift 39).  The paging mode is not a
property of the tables but of the ``satp`` CSR: MODE lives in
bits 63:60 (8 = Sv39, 9 = Sv48) and the root-table PPN in bits 43:0.
Both classes here therefore take the *satp value* — not a bare root
paddr — as their root argument and decode MODE per operation, exactly
as the MMU does, so one walker handles guests booted either way.

The walker/builder expose the same API as the x86-64 classes in
:mod:`repro.mem.pagetable`, so the whole side-loading pipeline works
on any architecture through the :class:`repro.arch.Arch` descriptor.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from repro.errors import PageFaultError
from repro.mem.layout import canonical, uncanonical
from repro.mem.pagetable import Translation
from repro.units import PAGE_SHIFT, PAGE_SIZE

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

ENTRIES_PER_TABLE = 512
SV39_LEVEL_SHIFTS = (30, 21, 12)      # VPN[2], VPN[1], VPN[0]
SV48_LEVEL_SHIFTS = (39, 30, 21, 12)  # VPN[3] .. VPN[0]


def _pte_paddr(entry: int) -> int:
    """Physical address encoded in a PTE's PPN field."""
    return ((entry & PTE_PPN_MASK) >> PTE_PPN_SHIFT) << PAGE_SHIFT


def _shifts_for(satp: int, vaddr: int) -> Tuple[int, ...]:
    """Level shifts for the paging mode in ``satp`` (faults on Bare)."""
    mode = satp >> SATP_MODE_SHIFT
    if mode == SATP_MODE_SV39:
        return SV39_LEVEL_SHIFTS
    if mode == SATP_MODE_SV48:
        return SV48_LEVEL_SHIFTS
    raise PageFaultError(
        canonical(vaddr), f"satp MODE {mode} is not Sv39/Sv48"
    )


def _root_table(satp: int) -> int:
    return (satp & SATP_PPN_MASK) << PAGE_SHIFT


class RiscvPageTableWalker:
    """Walks Sv39/Sv48 tables through a physical-read callback.

    Mode-agnostic: every :meth:`translate` decodes MODE out of the
    ``satp`` value it is handed, so the same walker serves Sv39 and
    Sv48 guests (and host-side walks never need to know which the
    guest kernel booted with).
    """

    def __init__(self, read_u64: Callable[[int], int]):
        self._read_u64 = read_u64

    def translate(self, satp: int, vaddr: int) -> Translation:
        shifts = _shifts_for(satp, vaddr)
        raw = uncanonical(canonical(vaddr))
        table = _root_table(satp)
        nlevels = len(shifts)
        for depth, shift in enumerate(shifts):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            pte_addr = table + index * 8
            entry = self._read_u64(pte_addr)
            if not entry & PTE_V:
                raise PageFaultError(
                    canonical(vaddr), f"not valid at level {nlevels - depth}"
                )
            if entry & PTE_W and not entry & PTE_R:
                raise PageFaultError(
                    canonical(vaddr), "reserved W-without-R encoding"
                )
            if entry & (PTE_R | PTE_X):
                # Leaf at this level: a megapage/gigapage above the
                # last level, a 4 KiB page at the last.
                if not entry & PTE_A:
                    raise PageFaultError(canonical(vaddr), "accessed-bit fault")
                page_mask = (1 << shift) - 1
                base = _pte_paddr(entry)
                if base & page_mask:
                    raise PageFaultError(
                        canonical(vaddr), f"misaligned superpage at level {nlevels - depth}"
                    )
                return Translation(
                    paddr=base | (raw & page_mask),
                    flags=entry & ~PTE_PPN_MASK,
                    level=nlevels - depth,
                    pte_paddr=pte_addr,
                )
            # Pointer PTE (R=W=X=0): descend.
            table = _pte_paddr(entry)
        raise PageFaultError(
            canonical(vaddr), "pointer PTE at the last level"
        )

    def is_mapped(self, satp: int, vaddr: int) -> bool:
        try:
            self.translate(satp, vaddr)
            return True
        except PageFaultError:
            return False

    def iter_present_range(
        self, satp: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, Translation]]:
        """Yield (vaddr, translation) for each mapped page in [start, end).

        Skips absent subtrees wholesale, like the x86-64 walker, so
        listing a 1 GiB window stays cheap when only a few MiB are
        mapped.  As on x86-64, the KASLR scan probes slot bases through
        the gateway instead.
        """
        vaddr = start
        while vaddr < end:
            try:
                tr = self.translate(satp, vaddr)
            except PageFaultError:
                vaddr = canonical(self._next_candidate(satp, vaddr, step))
                continue
            yield canonical(vaddr), tr
            vaddr += step

    def _next_candidate(self, satp: int, vaddr: int, step: int) -> int:
        """Skip past the largest provably-unmapped region after a fault."""
        shifts = _shifts_for(satp, vaddr)
        raw = uncanonical(canonical(vaddr))
        table = _root_table(satp)
        for shift in shifts:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry = self._read_u64(table + index * 8)
            if not entry & PTE_V:
                # Entire subtree absent: jump to the next entry at this level.
                span = 1 << shift
                return ((raw >> shift) + 1) << shift if span >= step else raw + step
            if entry & (PTE_R | PTE_X):
                return raw + step
            table = _pte_paddr(entry)
        return raw + step


class RiscvPageTableBuilder:
    """Builds Sv39/Sv48 tables inside guest physical memory.

    Like the walker, the builder is handed a full ``satp`` value and
    decodes MODE per call; :meth:`new_root` returns a bare table
    paddr, which :meth:`repro.arch.RiscvArch.encode_pt_root` packs
    into satp form before anything walks it.
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
        """Allocate a fresh, empty root table and return its paddr."""
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
        satp: int,
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
        shifts = _shifts_for(satp, vaddr)
        raw = uncanonical(canonical(vaddr))
        table = _root_table(satp)
        for shift in shifts[:-1]:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry_addr = table + index * 8
            entry = self._read_u64(entry_addr)
            if not entry & PTE_V:
                child = self._alloc_table()
                entry = ((child >> PAGE_SHIFT) << PTE_PPN_SHIFT) | PTE_V
                self._write_u64(entry_addr, entry)
            elif entry & (PTE_R | PTE_X):
                raise ValueError(
                    f"cannot split superpage mapping at {canonical(vaddr):#x}"
                )
            table = _pte_paddr(entry)
        index = (raw >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)
        flags = PTE_V | PTE_R | PTE_A | PTE_D
        if writable:
            flags |= PTE_W
        if not nx:
            flags |= PTE_X
        if user:
            flags |= PTE_U
        if global_:
            flags |= PTE_G
        self._write_u64(
            table + index * 8,
            ((paddr >> PAGE_SHIFT) << PTE_PPN_SHIFT) | flags,
        )

    def map_range(
        self,
        satp: int,
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
                satp, vaddr + i * PAGE_SIZE, paddr + i * PAGE_SIZE,
                writable=writable, user=user, nx=nx,
            )

    def unmap_page(self, satp: int, vaddr: int) -> None:
        """Clear the leaf entry for ``vaddr`` (intermediate tables remain)."""
        shifts = _shifts_for(satp, vaddr)
        raw = uncanonical(canonical(vaddr))
        table = _root_table(satp)
        for shift in shifts[:-1]:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry = self._read_u64(table + index * 8)
            if not entry & PTE_V:
                raise PageFaultError(canonical(vaddr), "unmap of absent mapping")
            table = _pte_paddr(entry)
        index = (raw >> PAGE_SHIFT) & (ENTRIES_PER_TABLE - 1)
        self._write_u64(table + index * 8, 0)
