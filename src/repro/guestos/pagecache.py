"""The guest page cache.

The Phoronix analysis in §6.3 hinges on page-cache behaviour: metadata
and re-read heavy workloads (compilebench, postmark, dbench) mostly hit
the guest page cache and show *no* vmsh-blk overhead, while fio's
direct IO bypasses the cache and pays the full device round trip on
every request.  IOR sits in between with a ~20% hit rate.

The cache stores real page contents (so filesystem data round-trips
correctly through whichever block device backs it) and write-back
dirty state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sim.costs import CostModel
from repro.units import PAGE_SIZE


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """Per-guest page cache keyed by (filesystem id, inode, page index)."""

    def __init__(self, costs: CostModel, capacity_pages: int = 262_144):
        self._costs = costs
        self._capacity = capacity_pages
        self._pages: Dict[Tuple[int, int, int], bytearray] = {}
        self._dirty: set = set()
        # fs_id -> callback(inode, page_index, bytes): persists a dirty
        # page that must be evicted under memory pressure.
        self._writeback_cbs: Dict[int, object] = {}
        self.stats = CacheStats()

    def register_writeback(self, fs_id: int, callback) -> None:
        """Register the owner filesystem's evict-time writeback path."""
        self._writeback_cbs[fs_id] = callback

    # -- lookup -------------------------------------------------------------------

    def lookup(self, fs_id: int, inode: int, page_index: int) -> Optional[bytes]:
        key = (fs_id, inode, page_index)
        page = self._pages.get(key)
        if page is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._costs.pagecache_hit(1)
        return bytes(page)

    def contains(self, fs_id: int, inode: int, page_index: int) -> bool:
        return (fs_id, inode, page_index) in self._pages

    # -- population ------------------------------------------------------------------

    def insert(
        self, fs_id: int, inode: int, page_index: int, data: bytes, dirty: bool = False
    ) -> None:
        if len(data) > PAGE_SIZE:
            raise ValueError("cache pages are at most PAGE_SIZE")
        key = (fs_id, inode, page_index)
        if key not in self._pages and len(self._pages) >= self._capacity:
            self._evict_one()
        page = bytearray(PAGE_SIZE)
        page[: len(data)] = data
        self._pages[key] = page
        if dirty:
            self._dirty.add(key)
        self._costs.pagecache_insert(1)

    def write_through_cache(
        self, fs_id: int, inode: int, page_index: int, offset: int, data: bytes
    ) -> None:
        """Write into a cached page (creating it), marking it dirty."""
        if offset + len(data) > PAGE_SIZE:
            raise ValueError("write crosses page boundary")
        key = (fs_id, inode, page_index)
        page = self._pages.get(key)
        if page is None:
            if len(self._pages) >= self._capacity:
                self._evict_one()
            page = bytearray(PAGE_SIZE)
            self._pages[key] = page
            self._costs.pagecache_insert(1)
        else:
            self._costs.pagecache_hit(1)
        page[offset : offset + len(data)] = data
        self._dirty.add(key)

    # -- writeback ----------------------------------------------------------------------

    def dirty_pages_of(self, fs_id: int, inode: int):
        """Dirty (page_index, bytes) pairs of one inode, ascending."""
        keys = sorted(k for k in self._dirty if k[0] == fs_id and k[1] == inode)
        return [(k[2], bytes(self._pages[k])) for k in keys]

    def dirty_count(self, fs_id: int) -> int:
        """Number of dirty pages belonging to one filesystem."""
        return sum(1 for k in self._dirty if k[0] == fs_id)

    def dirty_inodes(self, fs_id: int):
        """Inodes of one filesystem that currently have dirty pages."""
        return sorted({k[1] for k in self._dirty if k[0] == fs_id})

    def clean(self, fs_id: int, inode: int, page_index: int) -> None:
        self._dirty.discard((fs_id, inode, page_index))
        self.stats.writebacks += 1

    def invalidate_inode(self, fs_id: int, inode: int) -> None:
        keys = [k for k in self._pages if k[0] == fs_id and k[1] == inode]
        for key in keys:
            del self._pages[key]
            self._dirty.discard(key)

    def invalidate_range(self, fs_id: int, inode: int, first_page: int) -> None:
        """Drop an inode's cached pages at/after ``first_page`` (truncate).

        Pages below the cut survive with their dirty state — discarding
        them would lose writes that have not been written back yet.
        """
        keys = [
            k
            for k in self._pages
            if k[0] == fs_id and k[1] == inode and k[2] >= first_page
        ]
        for key in keys:
            del self._pages[key]
            self._dirty.discard(key)

    def drop_clean(self) -> None:
        """Drop all clean pages (echo 1 > drop_caches)."""
        keys = [k for k in self._pages if k not in self._dirty]
        for key in keys:
            del self._pages[key]

    def _evict_one(self) -> None:
        # Evict any clean page first; a dirty victim is written back
        # through its filesystem's registered callback before dropping
        # (silent discard would lose data).
        for key in self._pages:
            if key not in self._dirty:
                del self._pages[key]
                return
        key = next(iter(self._pages))
        callback = self._writeback_cbs.get(key[0])
        if callback is not None:
            callback(key[1], key[2], bytes(self._pages[key]))
            self.stats.writebacks += 1
        self._dirty.discard(key)
        del self._pages[key]

    def __len__(self) -> int:
        return len(self._pages)
