"""Host files: disk images and raw partitions as file descriptors.

The hypervisor's block backend does ``pread``/``pwrite`` on one of
these.  A :class:`HostFile` models the host page cache in front of the
NVMe device: O_DIRECT opens bypass it (the benchmarks' raw-disk
backends), buffered opens hit it.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.host.process import FileObject
from repro.sim.costs import CostModel
from repro.units import PAGE_SIZE


class HostFile(FileObject):
    """A host regular file / block special file."""

    def __init__(
        self,
        path: str,
        size: int,
        costs: CostModel,
        direct: bool = False,
    ):
        self.proc_link = path
        self.path = path
        self.size = size
        self._costs = costs
        self.direct = direct
        self._pages: Dict[int, bytearray] = {}
        self._host_cached: Set[int] = set()

    # -- raw storage (no cost accounting; used for setup) -----------------------------

    def pread_raw(self, offset: int, length: int) -> bytes:
        out = bytearray(length)
        pos = 0
        while pos < length:
            cur = offset + pos
            index = cur // PAGE_SIZE
            in_page = cur % PAGE_SIZE
            chunk = min(length - pos, PAGE_SIZE - in_page)
            page = self._pages.get(index)
            if page is not None:
                out[pos : pos + chunk] = page[in_page : in_page + chunk]
            pos += chunk
        return bytes(out)

    def pwrite_raw(self, offset: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            cur = offset + pos
            index = cur // PAGE_SIZE
            in_page = cur % PAGE_SIZE
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            page[in_page : in_page + chunk] = data[pos : pos + chunk]
            pos += chunk
        self.size = max(self.size, offset + len(data))

    # -- costed IO (called from the pread/pwrite syscalls) ---------------------------------

    def io_read(self, offset: int, length: int) -> bytes:
        self._charge(offset, length, is_write=False)
        return self.pread_raw(offset, length)

    def io_write(self, offset: int, data: bytes) -> None:
        self._charge(offset, len(data), is_write=True)
        self.pwrite_raw(offset, data)

    def io_sync(self) -> None:
        self._costs.host_fs_op()
        self._host_cached.clear()

    def _charge(self, offset: int, length: int, is_write: bool) -> None:
        if self.direct:
            self._costs.disk_io(length)
            return
        first = offset // PAGE_SIZE
        last = (offset + max(length, 1) - 1) // PAGE_SIZE
        uncached = [i for i in range(first, last + 1) if i not in self._host_cached]
        cached = (last - first + 1) - len(uncached)
        if cached:
            self._costs.pagecache_hit(cached)
        if uncached:
            if not is_write:
                self._costs.disk_io(len(uncached) * PAGE_SIZE)
            else:
                self._costs.pagecache_insert(len(uncached))
            self._host_cached.update(uncached)

    def discard_cache(self) -> None:
        self._host_cached.clear()
