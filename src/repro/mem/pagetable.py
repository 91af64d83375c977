"""Page tables of three ISAs, encoded as real bytes in guest memory.

The guest kernel builds these tables in simulated physical memory at
boot; VMSH later *walks the same bytes from the host side* (via the
hypervisor's mapping of guest memory) to find the kernel image in the
KASLR range and to map its side-loaded library — exactly the data flow
of §4.1/§4.2.  Entries use each ISA's genuine bit layout, so the walker
cannot cheat.

x86-64, AArch64 (4 KiB granule) and RISC-V Sv39/Sv48 tables are the
same radix tree: 4 KiB table pages of 512 eight-byte entries, indexed
by nine virtual-address bits per level.  So a walk of N levels
translates 12 + 9N address bits (48 for four levels, 39 for Sv39), and
the bits above them must all equal the top one: any other address is
non-canonical and faults.  The ISAs differ only in what an entry means.
So one walker and one builder live here, and each ISA
supplies an :class:`EntryFormat`: x86-64's below, AArch64's in
:mod:`repro.mem.pagetable_arm64`, RISC-V's in
:mod:`repro.mem.pagetable_riscv`.  Callers get the engine through
:meth:`repro.arch.Arch.walker` and :meth:`repro.arch.Arch.builder`.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from operator import ne
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PageFaultError
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
_INDEX_MASK = ENTRIES_PER_TABLE - 1
#: (level, index shift) from the root down; level 1 maps 4 KiB pages.
FOUR_LEVELS = ((4, 39), (3, 30), (2, 21), (1, 12))


def _raw(vaddr: int, levels: Sequence[Tuple[int, int]]) -> int:
    """``vaddr`` without its sign extension, for a walk of ``levels``.

    Raises :class:`PageFaultError` when a bit above the walk's width is
    not a copy of its top bit, before any table is read.
    """
    bits = PAGE_SHIFT + 9 * len(levels)
    if vaddr >> (bits - 1) not in (0, (1 << (65 - bits)) - 1):
        raise PageFaultError(vaddr, "non-canonical address")
    return vaddr & ((1 << bits) - 1)


@dataclass(frozen=True)
class Translation:
    """Result of a successful page walk."""

    paddr: int
    flags: int
    level: int          # 1 = 4K page, 2 = 2M huge page, 3 = 1G huge page
    pte_paddr: int      # physical address of the final entry
    #: the AND and the OR of the flags of every entry the walk read,
    #: root to leaf: what an MMU that combines permissions across
    #: levels decides by (the defaults leave the leaf's flags alone)
    path_and: int = field(default=-1, compare=False)
    path_or: int = field(default=0, compare=False)


class EntryFormat:
    """What one ISA's page-table entries mean.

    An entry's output address is ``((entry & addr_mask) >> addr_shift)
    << PAGE_SHIFT`` and everything outside ``addr_mask`` is flags.
    ``valid`` is the valid bit, ``table_bits`` the flags of an entry
    pointing to a next-level table.  Levels count down to 1, the level
    of 4 KiB pages.  Subclasses supply the decoding rules.
    """

    addr_mask: int
    addr_shift: int = PAGE_SHIFT
    valid: int
    table_bits: int

    def walk_levels(self, root: int, vaddr: int) -> Tuple[Tuple[int, int], ...]:
        """The (level, index shift) pairs a walk from ``root`` takes;
        their count sets the walk's address width."""
        return FOUR_LEVELS

    def root_table(self, root: int) -> int:
        """Physical address of the root table in a root-register value."""
        return root & self.addr_mask

    def encode_root(self, root_paddr: int) -> int:
        """The root-register value for a root table (identity here)."""
        return root_paddr

    def address(self, entry: int) -> int:
        """The physical address ``entry`` points at."""
        return ((entry & self.addr_mask) >> self.addr_shift) << PAGE_SHIFT

    def encode(self, paddr: int) -> int:
        """The address field of an entry pointing at ``paddr``."""
        return ((paddr >> PAGE_SHIFT) << self.addr_shift) & self.addr_mask

    def classify(self, entry: int, level: int, vaddr: int) -> bool:
        """True if ``entry`` maps a page, False if it points to a table.

        Raises :class:`PageFaultError` with the ISA's message when a
        walk of ``vaddr`` faults on the entry.
        """
        raise NotImplementedError

    def superpage(self, entry: int, level: int) -> bool:
        """True if the valid ``entry`` at ``level`` maps a superpage
        instead of pointing to a table (at level 1 no answer changes
        anything)."""
        raise NotImplementedError

    def leaf_flags(self, writable: bool, nx: bool) -> int:
        """The flags of an entry mapping a 4 KiB page: the entry for the
        page at ``paddr`` is ``encode(paddr) | leaf_flags(...)``."""
        raise NotImplementedError

    def perms(self, tr: Translation) -> FrozenSet[str]:
        """Logical r/w/x permission set of a translation."""
        raise NotImplementedError


class X86Format(EntryFormat):
    """x86-64 4-level paging: 2 MiB and 1 GiB pages via PS."""

    addr_mask = PTE_ADDR_MASK
    valid = PTE_PRESENT
    table_bits = PTE_PRESENT | PTE_WRITABLE | PTE_USER

    def classify(self, entry: int, level: int, vaddr: int) -> bool:
        if not entry & PTE_PRESENT:
            raise PageFaultError(vaddr, f"not present at level {level}")
        return level == 1 or self.superpage(entry, level)

    def superpage(self, entry: int, level: int) -> bool:
        # PS is reserved in a PML4 entry; the walk reads it as a table.
        return level in (2, 3) and bool(entry & PTE_PSE)

    def leaf_flags(self, writable: bool, nx: bool) -> int:
        return (
            PTE_PRESENT | PTE_ACCESSED | PTE_GLOBAL
            | (PTE_WRITABLE if writable else 0) | (PTE_NX if nx else 0)
        )

    def perms(self, tr: Translation) -> FrozenSet[str]:
        # The MMU takes R/W (and U/S) as the AND over all levels and NX
        # as the OR: a read-only or NX entry above the leaf wins.
        perms = {"r"}
        if tr.flags & tr.path_and & PTE_WRITABLE:
            perms.add("w")
        if not (tr.flags | tr.path_or) & PTE_NX:
            perms.add("x")
        return frozenset(perms)


X86_FORMAT = X86Format()


class PageTableWalker:
    """Walks page tables through an arbitrary physical-read callback.

    The callback indirection matters: the guest kernel walks via direct
    physical memory access, while VMSH walks via
    ``process_vm_readv`` on the *hypervisor's* address space, paying
    the corresponding costs.  Both use this same class.  A
    :class:`PageTableView` also passes its
    :meth:`~PageTableView.read_run` as ``read_run``: it decodes
    consecutive entries of one table page in one call.  Without it, a
    run is read word by word through ``read_u64``.
    """

    def __init__(self, fmt: EntryFormat, read_u64: Callable[[int], int],
                 read_run: Optional[Callable[[int, int], Iterable[int]]] = None):
        self._fmt = fmt
        self._read_u64 = read_u64
        self._read_run = read_run or self._read_words

    def _read_words(self, paddr: int, count: int) -> Iterator[int]:
        for offset in range(0, count * 8, 8):
            yield self._read_u64(paddr + offset)

    def translate(self, root: int, vaddr: int) -> Translation:
        """Translate ``vaddr`` using the tables rooted at ``root``."""
        fmt = self._fmt
        levels = fmt.walk_levels(root, vaddr)
        raw = _raw(vaddr, levels)
        table = fmt.root_table(root)
        path_and, path_or = -1, 0
        for level, shift in levels:
            pte_paddr = table + ((raw >> shift) & _INDEX_MASK) * 8
            entry = self._read_u64(pte_paddr)
            if fmt.classify(entry, level, vaddr):
                flags, page_mask = ~fmt.addr_mask, (1 << shift) - 1
                paddr = (fmt.address(entry) & ~page_mask) | (raw & page_mask)
                return Translation(
                    paddr, entry & flags, level, pte_paddr,
                    path_and & entry & flags, (path_or | entry) & flags,
                )
            path_and &= entry
            path_or |= entry
            table = fmt.address(entry)
        raise AssertionError("unreachable: a level-1 entry maps or faults")

    def is_mapped(self, root: int, vaddr: int) -> bool:
        try:
            self.translate(root, vaddr)
            return True
        except PageFaultError:
            return False

    def iter_present_range(
        self, root: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, Translation]]:
        """Yield (vaddr, translation) for each mapped page in [start, end).

        It runs on :meth:`walk_range`, so listing a 1 GiB range is cheap
        even when only a few MiB are mapped; each mapped page is then
        translated.
        """
        for vaddr, paddrs in self.walk_range(root, start, end, step):
            if paddrs[0] is not None:
                for offset in range(0, len(paddrs) * step, step):
                    yield vaddr + offset, self.translate(root, vaddr + offset)

    def walk_range(
        self, root: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, List[Optional[int]]]]:
        """Decide, in address order, which addresses from ``start`` on,
        ``step`` apart and below ``end``, translate.

        Yields runs ``(vaddr, paddrs)``: ``paddrs[i]`` is where ``vaddr
        + i * step`` translates to, as ``translate`` finds it, or None
        where that walk faults; a run is all one or all the other.
        After a fault the walk goes on past the largest region the
        entries show unmapped (see :meth:`_skip`), so a sparse range is
        cheap and the next run may start past the last one's end.  The
        tables on the current address's path stay open: the walk
        descends once per table, reads one entry per address it
        decides, and raises no :class:`PageFaultError` for an absent
        entry.

        Where ``step`` is the span of one entry of a table below the
        root (4 KiB in a leaf table, 2 MiB in a level-2 one) and the
        address is aligned to it, each entry decides one address by its
        own bits, so the rest of the table up to ``end`` is fetched with
        one ``read_run`` call and decided in one loop.  A run is handed
        over before anything else is read: before the walk descends
        into a table, and before it skips past a rejected entry, whose
        skip may read the tables below it.  So a caller that stops at an
        address has caused no table-page read past it.
        :meth:`iter_present_range` and VMSH's KASLR scan
        (:mod:`repro.core.kaslr`) run on it.
        """
        if start >= end:
            return
        fmt = self._fmt
        read_run, valid, classify, address = self._read_run, fmt.valid, fmt.classify, fmt.address
        levels = fmt.walk_levels(root, start)
        # Count in raw addresses of the walk's width, whose order the
        # sign extension keeps: a start in the hole begins at the bottom
        # of the upper half, and a skip past the last root entry lands
        # on the top of the space and ends the walk.
        size = 1 << (PAGE_SHIFT + 9 * len(levels))
        half, extension = size >> 1, (1 << 64) - size
        raw = start if start < half else max(start - extension, half)
        # (table, ``raw >> shift`` of the entry pointing at it) for each
        # table on the path
        path = [(fmt.root_table(root), 0)]
        while raw < size:
            vaddr = raw + extension if raw >= half else raw
            if vaddr >= end:
                return
            depth = len(path) - 1
            while depth and raw >> levels[depth - 1][1] != path[depth][1]:
                path.pop()              # raw has left this table's span
                depth -= 1
            table = path[depth][0]
            level, shift = levels[depth]
            index = (raw >> shift) & _INDEX_MASK
            # A table below the root lies inside one root entry, so its
            # addresses run on without the canonical hole.
            count = 1
            if depth and step == 1 << shift and not raw & (step - 1):
                count = min(ENTRIES_PER_TABLE - index, (end - vaddr + step - 1) // step)
            # In a run every address sits at the start of its entry's span.
            frame_mask, offset = -1 << shift, raw & ((1 << shift) - 1)
            first, paddrs = vaddr, []
            for entry in read_run(table + index * 8, count):
                try:                    # None: absent, or rejected by the ISA
                    maps = classify(entry, level, vaddr) if entry & valid else None
                except PageFaultError:
                    maps = None
                if maps is None:
                    paddr = None
                elif maps:
                    paddr = address(entry) & frame_mask | offset
                else:                   # a table: descend into it
                    path.append((address(entry), raw >> shift))
                    break
                if paddrs and (paddr is None) is not (paddrs[0] is None):
                    yield first, paddrs
                    first, paddrs = vaddr, []
                paddrs.append(paddr)
                # An absent entry in a run skips just to the next entry.
                # Any other fault hands the run over first: its skip may
                # read the tables below, or land past the next address.
                if paddr is None and (count == 1 or entry & valid):
                    yield first, paddrs
                    first, paddrs = vaddr + step, []
                    raw = self._skip(levels[depth:], entry, raw, step)
                else:
                    raw += step
                vaddr += step
            if paddrs:
                yield first, paddrs

    def _skip(self, levels: Tuple[Tuple[int, int], ...], entry: int, raw: int, step: int) -> int:
        """Where a walk goes on after faulting at ``entry``, the entry
        of ``levels[0]`` on the walk of ``raw``: past the largest region
        the entries from it down show unmapped."""
        fmt = self._fmt
        for depth, (level, shift) in enumerate(levels):
            if depth:
                entry = self._read_u64(table + ((raw >> shift) & _INDEX_MASK) * 8)
            if not entry & fmt.valid:
                # Entire subtree absent: jump to the next entry at this level.
                return ((raw >> shift) + 1) << shift if 1 << shift >= step else raw + step
            if fmt.superpage(entry, level):
                return raw + step
            table = fmt.address(entry)
        return raw + step


class PageTableBuilder:
    """Builds page tables inside guest physical memory.

    Used by the guest kernel at boot, and later by VMSH when it maps
    its side-loaded library right after the kernel image (§4.2) — the
    latter writes entries through the hypervisor's memory mapping.
    Both write through a :class:`PageTableView`, whose
    :meth:`~PageTableView.write_run` they pass as ``write_run``: it
    writes a run of consecutive entries in one call.  Without it, a run
    is written word by word through ``write_u64``.
    """

    def __init__(
        self,
        fmt: EntryFormat,
        read_u64: Callable[[int], int],
        write_u64: Callable[[int, int], None],
        alloc_table_page: Callable[[], int],
        write_run: Optional[Callable[[int, Sequence[int]], None]] = None,
    ):
        self._fmt = fmt
        self._read_u64 = read_u64
        self._write_u64 = write_u64
        self._write_run = write_run or self._write_words
        self._alloc = alloc_table_page
        self.tables_allocated: List[int] = []

    def new_root(self) -> int:
        """Allocate a fresh, empty root table and return its paddr."""
        return self._alloc_table()

    def _alloc_table(self) -> int:
        # A new table page is not zeroed here: every allocator hands
        # out pages that already read as zero.  The guest boot takes
        # guest RAM its bump allocator has not handed out, and nothing
        # writes such RAM: the hypervisor mmaps it anonymous, so it
        # starts zero-filled.  VMSH takes its reserve after the library
        # blob, which it has just mmapped anonymous.  Both builders
        # write through a PageTableView whose ``fresh`` range covers
        # those pages, so the view never reads them either.
        paddr = self._alloc()
        if paddr % PAGE_SIZE:
            raise ValueError("page table pages must be page aligned")
        self.tables_allocated.append(paddr)
        return paddr

    def _write_words(self, paddr: int, words: Sequence[int]) -> None:
        for offset, word in enumerate(words):
            self._write_u64(paddr + offset * 8, word)

    def map_page(
        self,
        root: int,
        vaddr: int,
        paddr: int,
        writable: bool = True,
        nx: bool = False,
    ) -> None:
        """Map one 4 KiB page, allocating intermediate tables on demand."""
        self.map_range(root, vaddr, paddr, PAGE_SIZE, writable=writable, nx=nx)

    def map_range(
        self,
        root: int,
        vaddr: int,
        paddr: int,
        length: int,
        writable: bool = True,
        nx: bool = False,
    ) -> None:
        """Map a page-aligned range of ``length`` bytes, allocating
        intermediate tables on demand.

        It descends once per leaf table and writes the range's run of
        entries in that table with one ``write_run`` call.  An entry's
        address field is linear in its frame, and its flags lie outside
        that field, so the entries form one ``range``: the next frame's
        entry is ``1 << addr_shift`` past the last one's.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ValueError("mappings must be page aligned")
        fmt = self._fmt
        first, step = fmt.encode(paddr) | fmt.leaf_flags(writable, nx), 1 << fmt.addr_shift
        entries = range(first, first + len(range(paddr, paddr + length, PAGE_SIZE)) * step, step)
        while entries:
            table, index = self._leaf_table(root, vaddr, allocate=True)
            run, entries = entries[: ENTRIES_PER_TABLE - index], entries[ENTRIES_PER_TABLE - index :]
            self._write_run(table + index * 8, run)
            vaddr += len(run) * PAGE_SIZE

    def unmap_page(self, root: int, vaddr: int) -> None:
        """Clear the leaf entry for ``vaddr`` (intermediate tables remain)."""
        table, index = self._leaf_table(root, vaddr, allocate=False)
        self._write_u64(table + index * 8, 0)

    def _leaf_table(self, root: int, vaddr: int, allocate: bool) -> Tuple[int, int]:
        """The level-1 table on ``vaddr``'s walk, and ``vaddr``'s index
        in it.

        A non-canonical ``vaddr`` raises :class:`PageFaultError`, and so
        does a missing table on the way unless ``allocate``, which
        allocates it.  A superpage on the way raises ``ValueError``: its
        frame is data, not a table.
        """
        fmt = self._fmt
        levels = fmt.walk_levels(root, vaddr)
        raw = _raw(vaddr, levels)
        table = fmt.root_table(root)
        for level, shift in levels[:-1]:
            entry_addr = table + ((raw >> shift) & _INDEX_MASK) * 8
            entry = self._read_u64(entry_addr)
            if not entry & fmt.valid:
                if not allocate:
                    raise PageFaultError(vaddr, "unmap of absent mapping")
                entry = fmt.encode(self._alloc_table()) | fmt.table_bits
                self._write_u64(entry_addr, entry)
            elif fmt.superpage(entry, level):
                raise ValueError(f"cannot split superpage mapping at {vaddr:#x}")
            table = fmt.address(entry)
        return table, (raw >> PAGE_SHIFT) & _INDEX_MASK


_PAGE_MASK = PAGE_SIZE - 1
_U64 = struct.Struct("<Q")
_CHANGED = re.compile(b"\x01+")      # a run of changed words in a table diff


class PageTableView:
    """Page-table pages as one attach step, or one guest boot, sees them.

    ``phys`` reads with ``read(paddr, length)`` and writes with
    ``write_vectored(iov)``: VMSH's remote accessor of the hypervisor,
    or the guest's own physical memory at boot.  :meth:`read_u64`,
    :meth:`read_run`, :meth:`write_u64` and :meth:`write_run` are the
    callbacks the arch's walker and builder take.  The first touch of a
    table page copies it with one 4 KiB read; later entries decode from
    the copy, a run of them with one struct call.
    Pages inside ``fresh`` (memory nothing has written yet: VMSH's
    just-mmapped reserve, or guest RAM the boot allocator has not
    handed out) are known to be zero and are never read.  Writes land
    in the copy, and a page's first write keeps the bytes it held
    before.  :meth:`flush` diffs each written page against those bytes,
    writes the words that changed in one vectored call and journals the
    old value of each changed word on a page outside ``fresh``;
    :meth:`undo` puts each back as it was before the view first wrote
    it.  Words in ``fresh`` need no journal: VMSH's reserve goes away
    with its memslot on rollback.
    """

    def __init__(self, phys, walker_factory: Callable, fresh: range = range(0)):
        self._phys = phys
        self._fresh = fresh
        self._pages: Dict[int, bytearray] = {}   # table page paddr -> copy
        # written page paddr -> (its bytes before, written offsets' span)
        self._before: Dict[int, Tuple[bytes, int, int]] = {}
        self.journal: List[Tuple[int, int]] = []  # (paddr, value before a flush)
        self.walker = walker_factory(self.read_u64, self.read_run)

    def _page(self, base: int) -> bytearray:
        page = self._pages.get(base)
        if page is None:
            if base in self._fresh:
                page = bytearray(PAGE_SIZE)
            else:
                page = bytearray(self._phys.read(base, PAGE_SIZE))
            self._pages[base] = page
        return page

    def read_u64(self, paddr: int) -> int:
        page = self._page(paddr & ~_PAGE_MASK)
        return _U64.unpack_from(page, paddr & _PAGE_MASK)[0]

    def read_run(self, paddr: int, count: int) -> Tuple[int, ...]:
        """The ``count`` consecutive words from ``paddr`` on, all in one
        table page, decoded with one struct call."""
        page = self._page(paddr & ~_PAGE_MASK)
        return struct.unpack_from(f"<{count}Q", page, paddr & _PAGE_MASK)

    def write_u64(self, paddr: int, value: int) -> None:
        self.write_run(paddr, (value & 0xFFFFFFFFFFFFFFFF,))

    def write_run(self, paddr: int, words: Sequence[int]) -> None:
        """Write consecutive words from ``paddr`` on, all in one table
        page, packed with one struct call.  A page's first write keeps
        its bytes for :meth:`flush` to diff against."""
        base, offset = paddr & ~_PAGE_MASK, paddr & _PAGE_MASK
        page, end = self._page(base), offset + len(words) * 8
        before, low, high = self._before.get(base) or (bytes(page), offset, end)
        self._before[base] = (before, min(low, offset), max(high, end))
        struct.pack_into(f"<{len(words)}Q", page, offset, *words)

    def flush(self) -> None:
        """Write every changed word in one vectored call, adjacent
        words merged into one segment, across a page boundary too.

        Each written page is diffed against its bytes before, over the
        span its writes covered: one struct call decodes each side and
        a regex finds the runs of changed words."""
        runs: List[Tuple[int, List[bytearray]]] = []
        end = -1
        for base in sorted(self._before):
            before, low, high = self._before[base]
            page, layout = self._pages[base], f"<{(high - low) // 8}Q"
            old = struct.unpack_from(layout, before, low)
            changed = bytes(map(ne, struct.unpack_from(layout, page, low), old))
            for run in _CHANGED.finditer(changed):
                first, last = run.span()
                start, stop = base + low + first * 8, base + low + last * 8
                if base not in self._fresh:
                    self.journal.extend(zip(range(start, stop, 8), old[first:last]))
                words = page[start - base : stop - base]
                if start == end:
                    runs[-1][1].append(words)
                else:
                    runs.append((start, [words]))
                end = stop
        self._before.clear()
        if runs:
            self._phys.write_vectored(
                [(start, b"".join(words)) for start, words in runs]
            )

    def undo(self) -> None:
        """Put back every journaled word as it was before the view first
        wrote it (rollback), in one vectored call.  A word that several
        flushes changed has one entry per flush; the first holds that
        value."""
        first: Dict[int, int] = {}
        for paddr, old in self.journal:
            first.setdefault(paddr, old)
        if first:
            self._phys.write_vectored(
                [(paddr, _U64.pack(old)) for paddr, old in first.items()]
            )
