"""An inode-level filesystem for the simulated guest (and host).

One implementation serves every role the paper's evaluation needs:

* the guest root filesystem (ext4-style, device-backed),
* the XFS test/scratch partitions for the xfstests experiment (§6.1),
  including xattrs and (project-)quota accounting,
* memory-backed pseudo filesystems (tmpfs, /dev), and
* the read-only VMSH image filesystem mounted by the overlay.

File data genuinely round-trips through the backing block device in
sector units, so a filesystem mounted over vmsh-blk exercises the whole
virtqueue path and a content mismatch anywhere in the stack surfaces as
a test failure rather than a silent wrong number.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import VfsError
from repro.guestos.blockcore import BlockDevice
from repro.guestos.pagecache import PageCache
from repro.sim.costs import CostModel
from repro.units import PAGE_SIZE, SECTOR_SIZE

SECTORS_PER_PAGE = PAGE_SIZE // SECTOR_SIZE

S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFLNK = 0o120000


@dataclass
class Inode:
    """One filesystem object."""

    no: int
    kind: str                   # "file" | "dir" | "symlink"
    mode: int
    uid: int = 0
    gid: int = 0
    nlink: int = 1
    size: int = 0
    atime: int = 0
    mtime: int = 0
    ctime: int = 0
    xattrs: Dict[str, bytes] = field(default_factory=dict)
    # files: logical page index -> filesystem page number
    blocks: Dict[int, int] = field(default_factory=dict)
    # memory-backed files: logical page index -> bytes
    mem_pages: Dict[int, bytearray] = field(default_factory=dict)
    # dirs: name -> inode number
    entries: Dict[str, int] = field(default_factory=dict)
    # symlinks
    target: str = ""

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"

    @property
    def is_file(self) -> bool:
        return self.kind == "file"

    @property
    def is_symlink(self) -> bool:
        return self.kind == "symlink"

    def stat_mode(self) -> int:
        base = {"file": S_IFREG, "dir": S_IFDIR, "symlink": S_IFLNK}[self.kind]
        return base | (self.mode & 0o7777)


class Filesystem:
    """An inode-table filesystem, optionally backed by a block device."""

    _fs_ids = itertools.count(1)

    def __init__(
        self,
        fstype: str,
        device: Optional[BlockDevice] = None,
        cache: Optional[PageCache] = None,
        *,
        costs: CostModel,
        features: Optional[Set[str]] = None,
        label: str = "",
    ):
        self.fs_id = next(Filesystem._fs_ids)
        self.fstype = fstype
        self.device = device
        self.cache = cache
        self.costs = costs
        self.features = set(features or ())
        self.label = label or fstype
        self.read_only = False

        self._inodes: Dict[int, Inode] = {}
        self._ino_counter = itertools.count(2)
        root = Inode(no=1, kind="dir", mode=0o755, nlink=2)
        root.entries = {}
        self._inodes[1] = root
        self.root_ino = 1

        if device is not None:
            self.total_pages = device.capacity_sectors // SECTORS_PER_PAGE
        else:
            self.total_pages = 1 << 24          # effectively unbounded
        self.used_pages = 0
        self._free_pages: List[int] = []
        self._next_page = 1                     # page 0 reserved (superblock)

        # quota accounting (xfstests §6.1)
        self.quota_enabled = "quota" in self.features
        self._quota_usage: Dict[int, int] = {}  # uid -> pages

        if cache is not None and device is not None:
            cache.register_writeback(self.fs_id, self._evict_writeback)

    # -- time / cost helpers --------------------------------------------------------

    def _now(self) -> int:
        return self.costs.clock.now

    def _meta_op(self) -> None:
        self.costs.guest_fs_op()

    # -- inode primitives --------------------------------------------------------------

    def inode(self, ino: int) -> Inode:
        try:
            return self._inodes[ino]
        except KeyError:
            raise VfsError("ESTALE", f"inode {ino} does not exist") from None

    def _alloc_inode(self, kind: str, mode: int, uid: int = 0, gid: int = 0) -> Inode:
        node = Inode(
            no=next(self._ino_counter),
            kind=kind,
            mode=mode,
            uid=uid,
            gid=gid,
        )
        node.atime = node.mtime = node.ctime = self._now()
        self._inodes[node.no] = node
        return node

    def _check_writable(self) -> None:
        if self.read_only:
            raise VfsError("EROFS", f"{self.label} is mounted read-only")

    # -- directory operations ----------------------------------------------------------------

    def lookup(self, dir_ino: int, name: str) -> Inode:
        directory = self.inode(dir_ino)
        if not directory.is_dir:
            raise VfsError("ENOTDIR", f"inode {dir_ino} is not a directory")
        try:
            return self.inode(directory.entries[name])
        except KeyError:
            raise VfsError("ENOENT", name) from None

    def readdir(self, dir_ino: int) -> List[str]:
        directory = self.inode(dir_ino)
        if not directory.is_dir:
            raise VfsError("ENOTDIR", f"inode {dir_ino} is not a directory")
        self._meta_op()
        return sorted(directory.entries)

    def create(self, dir_ino: int, name: str, mode: int = 0o644, uid: int = 0) -> Inode:
        self._check_writable()
        directory = self._dir_for_insert(dir_ino, name)
        node = self._alloc_inode("file", mode, uid=uid)
        directory.entries[name] = node.no
        directory.mtime = self._now()
        self._meta_op()
        return node

    def mkdir(self, dir_ino: int, name: str, mode: int = 0o755, uid: int = 0) -> Inode:
        self._check_writable()
        directory = self._dir_for_insert(dir_ino, name)
        node = self._alloc_inode("dir", mode, uid=uid)
        node.nlink = 2
        directory.entries[name] = node.no
        directory.nlink += 1
        directory.mtime = self._now()
        self._meta_op()
        return node

    def symlink(self, dir_ino: int, name: str, target: str, uid: int = 0) -> Inode:
        self._check_writable()
        directory = self._dir_for_insert(dir_ino, name)
        node = self._alloc_inode("symlink", 0o777, uid=uid)
        node.target = target
        node.size = len(target)
        directory.entries[name] = node.no
        self._meta_op()
        return node

    def link(self, dir_ino: int, name: str, target_ino: int) -> Inode:
        self._check_writable()
        directory = self._dir_for_insert(dir_ino, name)
        node = self.inode(target_ino)
        if node.is_dir:
            raise VfsError("EPERM", "hard links to directories are forbidden")
        directory.entries[name] = node.no
        node.nlink += 1
        node.ctime = self._now()
        self._meta_op()
        return node

    def unlink(self, dir_ino: int, name: str) -> None:
        self._check_writable()
        directory = self.inode(dir_ino)
        node = self.lookup(dir_ino, name)
        if node.is_dir:
            raise VfsError("EISDIR", name)
        del directory.entries[name]
        node.nlink -= 1
        node.ctime = directory.mtime = self._now()
        if node.nlink == 0:
            self._free_inode(node)
        self._meta_op()

    def rmdir(self, dir_ino: int, name: str) -> None:
        self._check_writable()
        directory = self.inode(dir_ino)
        node = self.lookup(dir_ino, name)
        if not node.is_dir:
            raise VfsError("ENOTDIR", name)
        if node.entries:
            raise VfsError("ENOTEMPTY", name)
        del directory.entries[name]
        directory.nlink -= 1
        directory.mtime = self._now()
        del self._inodes[node.no]
        self._meta_op()

    def rename(self, src_dir: int, src_name: str, dst_dir: int, dst_name: str) -> None:
        self._check_writable()
        source_dir = self.inode(src_dir)
        node = self.lookup(src_dir, src_name)
        dest_dir = self.inode(dst_dir)
        if not dest_dir.is_dir:
            raise VfsError("ENOTDIR", f"inode {dst_dir}")
        existing_no = dest_dir.entries.get(dst_name)
        if existing_no is not None:
            existing = self.inode(existing_no)
            if existing.is_dir:
                if not node.is_dir:
                    raise VfsError("EISDIR", dst_name)
                if existing.entries:
                    raise VfsError("ENOTEMPTY", dst_name)
                del self._inodes[existing.no]
                dest_dir.nlink -= 1
            else:
                if node.is_dir:
                    raise VfsError("ENOTDIR", dst_name)
                existing.nlink -= 1
                if existing.nlink == 0:
                    self._free_inode(existing)
        del source_dir.entries[src_name]
        dest_dir.entries[dst_name] = node.no
        if node.is_dir and src_dir != dst_dir:
            source_dir.nlink -= 1
            dest_dir.nlink += 1
        node.ctime = source_dir.mtime = dest_dir.mtime = self._now()
        self._meta_op()

    def _dir_for_insert(self, dir_ino: int, name: str) -> Inode:
        directory = self.inode(dir_ino)
        if not directory.is_dir:
            raise VfsError("ENOTDIR", f"inode {dir_ino} is not a directory")
        if not name or "/" in name or name in (".", ".."):
            raise VfsError("EINVAL", f"bad name {name!r}")
        if name in directory.entries:
            raise VfsError("EEXIST", name)
        return directory

    def _free_inode(self, node: Inode) -> None:
        for page_no in node.blocks.values():
            self._free_page(page_no, node.uid)
        if self.cache is not None:
            self.cache.invalidate_inode(self.fs_id, node.no)
        node.blocks.clear()
        node.mem_pages.clear()
        del self._inodes[node.no]

    # -- data page allocation ------------------------------------------------------------------

    def _alloc_page(self, uid: int) -> int:
        if self.used_pages >= self.total_pages - 1:
            raise VfsError("ENOSPC", f"{self.label} is full")
        self.used_pages += 1
        self._quota_usage[uid] = self._quota_usage.get(uid, 0) + 1
        if self._free_pages:
            # Lowest free page first: freed ranges are reused in
            # ascending order, keeping files extent-contiguous (what a
            # real allocator's free-extent tree achieves).
            return heapq.heappop(self._free_pages)
        page = self._next_page
        self._next_page += 1
        return page

    def _free_page(self, page_no: int, uid: int) -> None:
        self.used_pages -= 1
        usage = self._quota_usage.get(uid, 0)
        if usage:
            self._quota_usage[uid] = usage - 1
        heapq.heappush(self._free_pages, page_no)

    # -- file data ----------------------------------------------------------------------------------

    #: pages fetched per read-ahead cluster on a buffered miss (128 KiB)
    READAHEAD_PAGES = 32

    def read(self, ino: int, offset: int, length: int, direct: bool = False) -> bytes:
        node = self.inode(ino)
        if not node.is_file:
            raise VfsError("EISDIR" if node.is_dir else "EINVAL", f"inode {ino}")
        if offset < 0 or length < 0:
            raise VfsError("EINVAL", "negative offset/length")
        length = max(0, min(length, node.size - offset))
        if length == 0:
            return b""
        if direct and (offset % SECTOR_SIZE or length % SECTOR_SIZE):
            raise VfsError("EINVAL", "O_DIRECT requires sector alignment")
        node.atime = self._now()
        if self.device is None:
            return self._read_mem(node, offset, length)
        if direct:
            self._writeback_inode(node)
            return self._read_direct(node, offset, length)
        out = bytearray()
        pos = offset
        end = offset + length
        while pos < end:
            page_index = pos // PAGE_SIZE
            in_page = pos % PAGE_SIZE
            chunk = min(end - pos, PAGE_SIZE - in_page)
            page = self._load_page(node, page_index, use_cache=True)
            out += page[in_page : in_page + chunk]
            pos += chunk
        return bytes(out)

    def _extents(self, node: Inode, first_page: int, last_page: int, allocate: bool):
        """Group [first_page, last_page] into device-contiguous extents.

        Yields (page_index, page_count, start_sector); start_sector is
        None for holes.  Batching requests per extent is what lets a
        256 KiB direct IO travel as one virtio request instead of 64 —
        the same job the real block layer's request merging does.
        """
        run_start = first_page
        run_sector = self._page_sector(node, first_page, allocate)
        run_len = 1
        for page in range(first_page + 1, last_page + 1):
            sector = self._page_sector(node, page, allocate)
            contiguous = (
                run_sector is not None
                and sector is not None
                and sector == run_sector + run_len * SECTORS_PER_PAGE
            ) or (run_sector is None and sector is None)
            if contiguous:
                run_len += 1
            else:
                yield run_start, run_len, run_sector
                run_start, run_sector, run_len = page, sector, 1
        yield run_start, run_len, run_sector

    def _read_direct(self, node: Inode, offset: int, length: int) -> bytes:
        assert self.device is not None
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        buf = bytearray((last - first + 1) * PAGE_SIZE)
        for page_start, count, sector in self._extents(node, first, last, False):
            if sector is None:
                continue
            self.costs.guest_block_submit()
            data = self.device.read_sectors(sector, count * SECTORS_PER_PAGE)
            at = (page_start - first) * PAGE_SIZE
            buf[at : at + len(data)] = data
        start = offset - first * PAGE_SIZE
        return bytes(buf[start : start + length])

    def write(self, ino: int, offset: int, data: bytes, direct: bool = False) -> int:
        self._check_writable()
        node = self.inode(ino)
        if not node.is_file:
            raise VfsError("EISDIR" if node.is_dir else "EINVAL", f"inode {ino}")
        if offset < 0:
            raise VfsError("EINVAL", "negative offset")
        if direct and (offset % SECTOR_SIZE or len(data) % SECTOR_SIZE):
            raise VfsError("EINVAL", "O_DIRECT requires sector alignment")
        if not data:
            return 0
        node.mtime = self._now()
        if self.device is None:
            self._write_mem(node, offset, data)
        elif direct:
            self._write_direct(node, offset, data)
        else:
            self._write_cached(node, offset, data)
            self._maybe_background_writeback()
        node.size = max(node.size, offset + len(data))
        return len(data)

    #: dirty-page threshold above which writeback starts synchronously
    #: stealing time from the writer (vm.dirty_ratio behaviour).
    DIRTY_THRESHOLD_PAGES = 2048

    def _maybe_background_writeback(self) -> None:
        if self.cache is None or self.device is None:
            return
        if self.cache.dirty_count(self.fs_id) <= self.DIRTY_THRESHOLD_PAGES:
            return
        for ino in self.cache.dirty_inodes(self.fs_id):
            node = self._inodes.get(ino)
            if node is not None:
                self._writeback_inode(node)
            if self.cache.dirty_count(self.fs_id) <= self.DIRTY_THRESHOLD_PAGES // 2:
                break

    def truncate(self, ino: int, new_size: int) -> None:
        self._check_writable()
        node = self.inode(ino)
        if not node.is_file:
            raise VfsError("EINVAL", f"inode {ino} is not a regular file")
        if new_size < 0:
            raise VfsError("EINVAL", "negative size")
        if new_size < node.size:
            first_dead_page = (new_size + PAGE_SIZE - 1) // PAGE_SIZE
            for page_index in [p for p in node.blocks if p >= first_dead_page]:
                self._free_page(node.blocks.pop(page_index), node.uid)
            for page_index in [p for p in node.mem_pages if p >= first_dead_page]:
                del node.mem_pages[page_index]
            if self.cache is not None:
                # Only the truncated-away pages die; dirty pages below
                # the cut still hold unwritten data and must survive.
                self.cache.invalidate_range(self.fs_id, node.no, first_dead_page)
            # Zero the tail of the now-partial last page so data past
            # EOF does not resurrect on re-extension.
            if new_size % PAGE_SIZE:
                self._zero_tail(node, new_size)
        node.size = new_size
        node.mtime = node.ctime = self._now()
        self._meta_op()

    def fsync(self, ino: int) -> None:
        node = self.inode(ino)
        self._writeback_inode(node)
        if self.device is not None:
            self.device.flush()
        self._meta_op()

    def sync_all(self) -> None:
        for node in list(self._inodes.values()):
            if node.is_file:
                self._writeback_inode(node)
        if self.device is not None:
            self.device.flush()

    def drop_caches(self) -> None:
        """Drop clean cached state (subclasses may track more)."""
        if self.cache is not None:
            self.cache.drop_clean()

    # -- xattrs -----------------------------------------------------------------------------------------

    def setxattr(self, ino: int, name: str, value: bytes) -> None:
        self._check_writable()
        if not name or "." not in name:
            raise VfsError("EINVAL", f"bad xattr name {name!r}")
        node = self.inode(ino)
        node.xattrs[name] = bytes(value)
        node.ctime = self._now()
        self._meta_op()

    def getxattr(self, ino: int, name: str) -> bytes:
        node = self.inode(ino)
        try:
            return node.xattrs[name]
        except KeyError:
            raise VfsError("ENODATA", name) from None

    def listxattr(self, ino: int) -> List[str]:
        return sorted(self.inode(ino).xattrs)

    def removexattr(self, ino: int, name: str) -> None:
        self._check_writable()
        node = self.inode(ino)
        if name not in node.xattrs:
            raise VfsError("ENODATA", name)
        del node.xattrs[name]
        node.ctime = self._now()

    # -- statfs / quota ------------------------------------------------------------------------------------

    def statfs(self) -> Dict[str, int]:
        return {
            "bsize": PAGE_SIZE,
            "blocks": self.total_pages,
            "bfree": self.total_pages - self.used_pages,
            "files": len(self._inodes),
        }

    def quota_report(self) -> Dict[int, int]:
        """Per-uid block usage (xfs_quota 'report').

        Requires the quota feature *and* a device that exposes quota
        metadata.  VirtIO transports do not advertise project-quota
        support, which is why three xfstests quota-reporting cases fail
        on both qemu-blk and vmsh-blk in §6.1.
        """
        if not self.quota_enabled:
            raise VfsError("ENOTSUP", "filesystem mounted without quota")
        if self.device is not None and not self.device.supports_pquota:
            raise VfsError(
                "ENOTSUP", f"device {self.device.name} lacks project-quota support"
            )
        return dict(self._quota_usage)

    # -- internal data paths ------------------------------------------------------------------------------

    def _read_mem(self, node: Inode, offset: int, length: int) -> bytes:
        out = bytearray()
        pos = offset
        end = offset + length
        while pos < end:
            page_index = pos // PAGE_SIZE
            in_page = pos % PAGE_SIZE
            chunk = min(end - pos, PAGE_SIZE - in_page)
            page = node.mem_pages.get(page_index)
            if page is None:
                out += b"\x00" * chunk
            else:
                out += page[in_page : in_page + chunk]
            pos += chunk
        return bytes(out)

    def _write_mem(self, node: Inode, offset: int, data: bytes) -> None:
        pos = 0
        while pos < len(data):
            cur = offset + pos
            page_index = cur // PAGE_SIZE
            in_page = cur % PAGE_SIZE
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            page = node.mem_pages.get(page_index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                node.mem_pages[page_index] = page
            page[in_page : in_page + chunk] = data[pos : pos + chunk]
            pos += chunk

    def _page_sector(self, node: Inode, page_index: int, allocate: bool) -> Optional[int]:
        page_no = node.blocks.get(page_index)
        if page_no is None:
            if not allocate:
                return None
            page_no = self._alloc_page(node.uid)
            node.blocks[page_index] = page_no
        return page_no * SECTORS_PER_PAGE

    def _load_page(self, node: Inode, page_index: int, use_cache: bool) -> bytes:
        if use_cache and self.cache is not None:
            cached = self.cache.lookup(self.fs_id, node.no, page_index)
            if cached is not None:
                return cached
        sector = self._page_sector(node, page_index, allocate=False)
        if sector is None:
            data = b"\x00" * PAGE_SIZE
        else:
            assert self.device is not None
            if use_cache and self.cache is not None:
                return self._readahead(node, page_index)
            self.costs.guest_block_submit()
            data = self.device.read_sectors(sector, SECTORS_PER_PAGE)
        if use_cache and self.cache is not None:
            self.cache.insert(self.fs_id, node.no, page_index, data)
        return data

    def _readahead(self, node: Inode, page_index: int) -> bytes:
        """Buffered miss: fetch a cluster of device-contiguous pages.

        Models the kernel's read-ahead window; sequential buffered
        readers amortise the device round trip over READAHEAD_PAGES.
        """
        assert self.device is not None and self.cache is not None
        eof_page = max(page_index, (node.size - 1) // PAGE_SIZE if node.size else 0)
        last = min(page_index + self.READAHEAD_PAGES - 1, eof_page)
        wanted = None
        for page_start, count, sector in self._extents(node, page_index, last, False):
            if sector is None:
                data_block = b"\x00" * (count * PAGE_SIZE)
            else:
                self.costs.guest_block_submit()
                data_block = self.device.read_sectors(sector, count * SECTORS_PER_PAGE)
            for i in range(count):
                page = page_start + i
                page_bytes = data_block[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
                if not self.cache.contains(self.fs_id, node.no, page):
                    self.cache.insert(self.fs_id, node.no, page, page_bytes)
                if page == page_index:
                    wanted = page_bytes
        assert wanted is not None
        return wanted

    def _write_cached(self, node: Inode, offset: int, data: bytes) -> None:
        assert self.cache is not None, "device-backed fs requires a page cache"
        pos = 0
        while pos < len(data):
            cur = offset + pos
            page_index = cur // PAGE_SIZE
            in_page = cur % PAGE_SIZE
            chunk = min(len(data) - pos, PAGE_SIZE - in_page)
            if chunk < PAGE_SIZE and not self.cache.contains(
                self.fs_id, node.no, page_index
            ):
                # Read-modify-write of a partial page.
                existing = self._load_page(node, page_index, use_cache=False)
                self.cache.insert(self.fs_id, node.no, page_index, existing)
            self.cache.write_through_cache(
                self.fs_id, node.no, page_index, in_page, data[pos : pos + chunk]
            )
            # Reserve backing store now so ENOSPC surfaces at write time.
            self._page_sector(node, page_index, allocate=True)
            pos += chunk

    def _write_direct(self, node: Inode, offset: int, data: bytes) -> None:
        assert self.device is not None
        if self.cache is not None:
            self._writeback_inode(node)
            self.cache.invalidate_inode(self.fs_id, node.no)
        first = offset // PAGE_SIZE
        last = (offset + len(data) - 1) // PAGE_SIZE
        # Page-align the payload with read-modify-write at the edges:
        # any partially-covered edge page must be read first, or the
        # full-page device write would zero its untouched bytes.
        head_gap = offset - first * PAGE_SIZE
        tail_partial = (offset + len(data)) % PAGE_SIZE != 0
        buf = bytearray((last - first + 1) * PAGE_SIZE)
        if head_gap or (tail_partial and last == first):
            sector = self._page_sector(node, first, allocate=False)
            if sector is not None:
                buf[0:PAGE_SIZE] = self.device.read_sectors(sector, SECTORS_PER_PAGE)
        if tail_partial and last != first:
            sector = self._page_sector(node, last, allocate=False)
            if sector is not None:
                buf[-PAGE_SIZE:] = self.device.read_sectors(sector, SECTORS_PER_PAGE)
        buf[head_gap : head_gap + len(data)] = data
        for page_start, count, sector in self._extents(node, first, last, True):
            assert sector is not None
            self.costs.guest_block_submit()
            at = (page_start - first) * PAGE_SIZE
            self.device.write_sectors(sector, bytes(buf[at : at + count * PAGE_SIZE]))

    def _writeback_inode(self, node: Inode) -> None:
        if self.cache is None or self.device is None:
            return
        dirty = self.cache.dirty_pages_of(self.fs_id, node.no)
        if not dirty:
            return
        pages = {index: data for index, data in dirty}
        indices = sorted(pages)
        # Coalesce device-contiguous dirty pages into single requests.
        run: List[int] = []
        run_sector = None

        def flush_run() -> None:
            if not run:
                return
            assert run_sector is not None
            self.costs.guest_block_submit()
            payload = b"".join(pages[i] for i in run)
            self.device.write_sectors(run_sector, payload)
            for i in run:
                self.cache.clean(self.fs_id, node.no, i)

        for index in indices:
            sector = self._page_sector(node, index, allocate=True)
            assert sector is not None
            if run and index == run[-1] + 1 and run_sector is not None and sector == (
                run_sector + len(run) * SECTORS_PER_PAGE
            ):
                run.append(index)
            else:
                flush_run()
                run = [index]
                run_sector = sector
        flush_run()

    def _evict_writeback(self, ino: int, page_index: int, data: bytes) -> None:
        """Persist a dirty page the cache must evict under pressure."""
        node = self._inodes.get(ino)
        if node is None:
            return
        sector = self._page_sector(node, page_index, allocate=True)
        assert sector is not None and self.device is not None
        self.costs.guest_block_submit()
        self.device.write_sectors(sector, data)

    def _zero_tail(self, node: Inode, new_size: int) -> None:
        page_index = new_size // PAGE_SIZE
        in_page = new_size % PAGE_SIZE
        zeros = b"\x00" * (PAGE_SIZE - in_page)
        if self.device is None:
            page = node.mem_pages.get(page_index)
            if page is not None:
                page[in_page:] = zeros
            return
        sector = self._page_sector(node, page_index, allocate=False)
        if self.cache is not None and self.cache.contains(self.fs_id, node.no, page_index):
            self.cache.write_through_cache(self.fs_id, node.no, page_index, in_page, zeros)
        elif sector is not None:
            page = bytearray(self.device.read_sectors(sector, SECTORS_PER_PAGE))
            page[in_page:] = zeros
            self.device.write_sectors(sector, bytes(page))
