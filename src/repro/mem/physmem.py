"""Sparse guest physical memory.

Guest physical memory is modelled as a sparse page store: only pages
that have been written exist as real ``bytearray`` objects; reads of
untouched pages return zeros, like freshly faulted anonymous memory.
A read across pages copies only the pages it covers that exist and
slices the zeros between them from one shared read-only buffer, so
reading a 2 MiB kernel image whose data sits in 5 pages costs five
page copies, not 512.  All kernel data structures that the paper's
binary analysis inspects (page tables, ``.ksymtab``, the side-loaded
library blob) live here as real bytes, so the host-side parsers in
:mod:`repro.core` operate on genuine serialized data, not on Python
object graphs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.errors import MemoryError_
from repro.units import MiB, PAGE_SHIFT, PAGE_SIZE

_PAGE_MASK = PAGE_SIZE - 1
#: read-only zeros that gaps in a read are sliced from, a kernel image's
#: worth (``bytes(n)`` is calloc'd, and reading untouched zeros costs no
#: resident memory)
_ZEROS = memoryview(bytes(2 * MiB))


def _zeros(length: int) -> List[memoryview]:
    """``length`` zero bytes as slices of the shared zero buffer: one,
    unless the gap is longer than the buffer."""
    step = len(_ZEROS)
    return [_ZEROS[: min(step, length - start)] for start in range(0, length, step)]


class LittleEndianWords:
    """Little-endian word access for anything with ``read(addr,
    length)`` and ``write(addr, data)``: each helper is one such access
    plus an int conversion, so it charges what that access charges."""

    def read_u16(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 2), "little")

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def read_i32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little", signed=True)

    def write_u16(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFF).to_bytes(2, "little"))

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def write_i32(self, addr: int, value: int) -> None:
        self.write(addr, value.to_bytes(4, "little", signed=True))


class PhysicalMemory(LittleEndianWords):
    """A sparse, bounds-checked byte-addressable physical memory."""

    #: chaos hook consulted before every access (``physmem.read`` /
    #: ``physmem.write`` fault sites).  Class-level and normally None so
    #: the hot path costs one attribute load; a FaultInjector installs
    #: its bound ``check`` here only while an armed plan targets
    #: ``physmem.*`` sites.
    fault_check = None

    def __init__(self, size_bytes: int):
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise ValueError("physical memory size must be a positive page multiple")
        self.size = size_bytes
        self._pages: Dict[int, bytearray] = {}

    # -- byte access -----------------------------------------------------------
    #
    # Almost every access lies inside one page: it costs one dict lookup
    # and one slice.  A page-crossing read copies the materialized pages
    # it covers and zeros for the rest.

    def _out_of_range(self, addr: int, length: int) -> MemoryError_:
        return MemoryError_(
            f"physical access [{addr:#x}, {addr + length:#x}) outside "
            f"memory of size {self.size:#x}"
        )

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at physical address ``addr``."""
        if PhysicalMemory.fault_check is not None:
            PhysicalMemory.fault_check("physmem.read", addr=addr, length=length)
        if addr < 0 or length < 0 or addr + length > self.size:
            raise self._out_of_range(addr, length)
        offset = addr & _PAGE_MASK
        if offset + length <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                return bytes(length)
            return bytes(page[offset : offset + length])
        # Copy the materialized pages inside the range, found in one
        # pass over it, and fill each gap between them with a slice of
        # the shared zero buffer.  The join builds the one result: no
        # intermediate buffer of the whole read (2 MiB for a kernel
        # image) is built and then copied.
        pages, end = self._pages, addr + length
        parts = []
        pos = addr
        for index in filter(pages.__contains__, range(addr >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1)):
            base = index << PAGE_SHIFT
            if base > pos:
                parts += _zeros(base - pos)
            page = pages[index]
            if base < addr or base + PAGE_SIZE > end:   # the range cuts it
                page = memoryview(page)[max(addr - base, 0) : end - base]
            parts.append(page)
            pos = base + PAGE_SIZE
        if pos < end:
            parts += _zeros(end - pos)
        return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at physical address ``addr``."""
        length = len(data)
        if PhysicalMemory.fault_check is not None:
            PhysicalMemory.fault_check("physmem.write", addr=addr, length=length)
        if addr < 0 or addr + length > self.size:
            raise self._out_of_range(addr, length)
        offset = addr & _PAGE_MASK
        pages = self._pages
        if offset + length <= PAGE_SIZE:
            if length:
                index = addr >> PAGE_SHIFT
                page = pages.get(index)
                if page is None:
                    page = pages[index] = bytearray(PAGE_SIZE)
                page[offset : offset + length] = data
            return
        pos = 0
        while pos < length:
            cur = addr + pos
            index = cur >> PAGE_SHIFT
            offset = cur & _PAGE_MASK
            chunk = min(length - pos, PAGE_SIZE - offset)
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(PAGE_SIZE)
            page[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk

    # -- introspection --------------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages actually materialised."""
        return len(self._pages)

    def touched_ranges(self) -> Iterator[Tuple[int, int]]:
        """Yield (start, end) physical byte ranges of materialised pages."""
        indices = sorted(self._pages)
        start = None
        prev = None
        for idx in indices:
            if start is None:
                start = idx
            elif prev is not None and idx != prev + 1:
                yield (start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT)
                start = idx
            prev = idx
        if start is not None and prev is not None:
            yield (start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT)
