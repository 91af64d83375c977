"""Sparse guest physical memory.

Guest physical memory is modelled as a sparse page store: only pages
that have been written exist as real ``bytearray`` objects; reads of
untouched pages return zeros, like freshly faulted anonymous memory.
All kernel data structures that the paper's binary analysis inspects
(page tables, ``.ksymtab``, the side-loaded library blob) live here as
real bytes, so the host-side parsers in :mod:`repro.core` operate on
genuine serialized data, not on Python object graphs.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.errors import MemoryError_
from repro.units import PAGE_SHIFT, PAGE_SIZE

_PAGE_MASK = PAGE_SIZE - 1


class PhysicalMemory:
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
    # and one slice.  Page-crossing accesses take the page loop.

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
        out = bytearray(length)
        pos = 0
        while pos < length:
            cur = addr + pos
            offset = cur & _PAGE_MASK
            chunk = min(length - pos, PAGE_SIZE - offset)
            page = self._pages.get(cur >> PAGE_SHIFT)
            if page is not None:
                out[pos : pos + chunk] = page[offset : offset + chunk]
            pos += chunk
        return bytes(out)

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

    # -- word access (little-endian, matching x86) -------------------------------

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
