"""qemu-9p: host file sharing over the 9p protocol (the §6.3 baseline).

The paper compares vmsh-blk's block-image approach against QEMU's
virtio-9p host-directory sharing and finds 9p IOPS 7.8x below qemu-blk
because "every operation goes through the guest file system and page
cache, as well as through the host's file system and page cache".

We model 9p at protocol granularity rather than byte-level virtqueue
encoding (the rings are exercised by blk/console; duplicating them for
9p would add cost-identical plumbing): each file operation issues the
RPC sequence a real client issues (Twalk/Tlopen/Tread|Twrite/Tclunk),
and each RPC pays a VMEXIT, a hypervisor context switch and the 9p
processing cost; data then traverses the *host* filesystem with its
own page cache.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.guestos.fs import Filesystem
from repro.guestos.pagecache import PageCache
from repro.host.files import HostFile
from repro.sim.costs import CostModel
from repro.units import PAGE_SIZE


class P9Filesystem(Filesystem):
    """A 9p mount: guest VFS object graph, host-side data and costs."""

    def __init__(
        self,
        costs: CostModel,
        cache: Optional[PageCache] = None,
        host_backing: Optional[HostFile] = None,
        label: str = "qemu-9p",
    ):
        super().__init__(
            fstype="9p",
            device=None,            # data lives host-side, not on a guest block dev
            cache=cache,
            costs=costs,
            label=label,
        )
        # Host-side backing store with its own page cache + NVMe.
        self._host_file = host_backing if host_backing is not None else HostFile(
            "/srv/9p-share.img", size=0, costs=costs
        )
        self._host_offset = 0
        self._host_extents: dict = {}   # (ino, page) -> host offset
        self._guest_cached: Set = set()
        #: 9p msize: one Tread/Twrite RPC moves at most this much data.
        self.msize = 64 * 1024

    # -- cost hooks ------------------------------------------------------------------

    def _rpc(self, data_op: bool) -> None:
        """One 9p request/response round trip."""
        # MMIO kick + hypervisor wakeup for the request, then the
        # protocol processing itself (walk/open/rw/clunk sequence).
        self.costs.vmexit()
        self.costs.context_switch()
        if data_op:
            self.costs.p9_data_op()
        else:
            self.costs.p9_meta_op()

    def _meta_op(self) -> None:
        super()._meta_op()
        self._rpc(data_op=False)
        self.costs.host_fs_op()

    # -- data path: stacked caches ---------------------------------------------------------

    def read(self, ino: int, offset: int, length: int, direct: bool = False) -> bytes:
        node = self.inode(ino)
        length = max(0, min(length, node.size - offset))
        if length == 0:
            return super().read(ino, offset, length, direct=direct)
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        # Pages not satisfied by the guest page cache must be fetched
        # over 9p; RPCs move up to msize per round trip.
        miss_pages = []
        for page in range(first, last + 1):
            key = (ino, page)
            if not direct and key in self._guest_cached:
                self.costs.pagecache_hit(1)
            else:
                miss_pages.append(page)
                if not direct:
                    self._guest_cached.add(key)
        if miss_pages:
            miss_bytes = len(miss_pages) * PAGE_SIZE
            for _ in range(self._rpc_count(miss_bytes)):
                self._rpc(data_op=True)
            self._read_host(ino, miss_pages)
        return super().read(ino, offset, length, direct=False)

    def write(self, ino: int, offset: int, data: bytes, direct: bool = False) -> int:
        if data:
            first = offset // PAGE_SIZE
            last = (offset + len(data) - 1) // PAGE_SIZE
            pages = list(range(first, last + 1))
            for _ in range(self._rpc_count(len(pages) * PAGE_SIZE)):
                self._rpc(data_op=True)
            for page in pages:
                key = (ino, page)
                host_off = self._host_extents.get(key)
                if host_off is None:
                    host_off = self._host_offset
                    self._host_offset += PAGE_SIZE
                    self._host_extents[key] = host_off
                if not direct:
                    self._guest_cached.add(key)
            self._host_file.io_write(
                self._host_extents[(ino, first)], b"\x00" * min(len(data), self.msize)
            )
        return super().write(ino, offset, data, direct=False)

    def drop_caches(self) -> None:
        super().drop_caches()
        self._guest_cached.clear()
        self._host_file.discard_cache()

    def _rpc_count(self, nbytes: int) -> int:
        return max(1, (nbytes + self.msize - 1) // self.msize)

    def _read_host(self, ino: int, pages) -> None:
        for page in pages:
            host_off = self._host_extents.get((ino, page))
            if host_off is not None:
                self._host_file.io_read(host_off, PAGE_SIZE)
