"""Guest memory: sparse physical memory and page tables."""

from repro.mem.physmem import PhysicalMemory

__all__ = ["PhysicalMemory"]
