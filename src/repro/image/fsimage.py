"""The VMSH file-system image format.

The user hands VMSH "a dedicated file system image [that] provides the
additional tools and services" (§3.1).  We define a simple page-aligned
archive format that the guest mounts *through the vmsh-blk device*: the
mount parses the table of contents with real block reads and maps file
data pages 1:1 onto device pages, so every later file access travels
the virtqueue.

Layout::

    page 0        header: magic, version, file count, toc offset/len
    page 1..      table of contents (packed entries)
    data pages    file contents, page aligned, in toc order
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ImageError
from repro.guestos.blockcore import BlockDevice
from repro.guestos.fs import Filesystem
from repro.guestos.pagecache import PageCache
from repro.sim.costs import CostModel
from repro.units import PAGE_SIZE, SECTOR_SIZE

MAGIC = b"VMSHIMG1"
FORMAT_VERSION = 1
HEADER_FMT = "<8sIIQQQ"          # magic, version, file_count, toc_off, toc_len, total
SECTORS_PER_PAGE = PAGE_SIZE // SECTOR_SIZE

KIND_DIR = 0
KIND_FILE = 1
KIND_SYMLINK = 2


@dataclass
class ImageEntry:
    """One object in the image."""

    path: str
    kind: int
    mode: int = 0o755
    uid: int = 0
    size: int = 0
    data_page: int = 0
    target: str = ""


@dataclass
class ImageSpec:
    """Declarative description of an image's contents."""

    files: Dict[str, Optional[bytes]] = field(default_factory=dict)
    symlinks: Dict[str, str] = field(default_factory=dict)
    modes: Dict[str, int] = field(default_factory=dict)

    def add_file(self, path: str, content: bytes, mode: int = 0o644) -> "ImageSpec":
        self.files[path] = content
        self.modes[path] = mode
        return self

    def add_dir(self, path: str) -> "ImageSpec":
        self.files[path] = None
        return self

    def add_symlink(self, path: str, target: str) -> "ImageSpec":
        self.symlinks[path] = target
        return self


def build_image(spec: ImageSpec, extra_space: int = 4 * 1024 * 1024) -> memoryview:
    """Serialise an :class:`ImageSpec` into image bytes.

    ``extra_space`` adds free pages at the end so the mounted image can
    take writes (the overlay creates files at run time).  The image is
    built in a private anonymous mapping of its own and returned as a
    read-only view of it, never copied: an admin image is 8 MiB, and
    on the allocator's heap a buffer that size, freed after each
    attach, left the resident size depending on where it was placed.
    Its free pages are only ever read, so they take no memory.
    """
    # Ensure all parent directories exist as entries.
    paths: Dict[str, Tuple[int, Optional[bytes], str]] = {}
    for path, content in spec.files.items():
        kind = KIND_DIR if content is None else KIND_FILE
        paths[_norm(path)] = (kind, content, "")
    for path, target in spec.symlinks.items():
        paths[_norm(path)] = (KIND_SYMLINK, None, target)
    for path in list(paths):
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        while parent:
            paths.setdefault(parent, (KIND_DIR, None, ""))
            parent = parent.rsplit("/", 1)[0] if "/" in parent else ""

    entries: List[ImageEntry] = []
    blobs: List[bytes] = []
    for path in sorted(paths):
        kind, content, target = paths[path]
        entry = ImageEntry(
            path=path,
            kind=kind,
            mode=spec.modes.get("/" + path, 0o755 if kind != KIND_FILE else 0o644),
            target=target,
        )
        if kind == KIND_FILE and content:
            entry.size = len(content)
            blobs.append(content)
        else:
            blobs.append(b"")
        entries.append(entry)

    toc = bytearray()
    for entry in entries:
        encoded_path = entry.path.encode()
        encoded_target = entry.target.encode()
        toc += struct.pack("<H", len(encoded_path)) + encoded_path
        toc += struct.pack("<BIIQ", entry.kind, entry.mode, entry.uid, entry.size)
        toc += struct.pack("<Q", 0)  # data_page placeholder, patched below
        toc += struct.pack("<H", len(encoded_target)) + encoded_target

    toc_off = PAGE_SIZE
    data_start_page = (toc_off + len(toc) + PAGE_SIZE - 1) // PAGE_SIZE

    # Second pass: assign data pages and patch the toc.
    page_cursor = data_start_page
    toc = bytearray()
    for entry, blob in zip(entries, blobs):
        if entry.kind == KIND_FILE and blob:
            entry.data_page = page_cursor
            page_cursor += (len(blob) + PAGE_SIZE - 1) // PAGE_SIZE
        encoded_path = entry.path.encode()
        encoded_target = entry.target.encode()
        toc += struct.pack("<H", len(encoded_path)) + encoded_path
        toc += struct.pack("<BIIQ", entry.kind, entry.mode, entry.uid, entry.size)
        toc += struct.pack("<Q", entry.data_page)
        toc += struct.pack("<H", len(encoded_target)) + encoded_target

    total_pages = page_cursor + (extra_space + PAGE_SIZE - 1) // PAGE_SIZE
    image = mmap.mmap(
        -1, total_pages * PAGE_SIZE, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    )
    struct.pack_into(
        HEADER_FMT, image, 0, MAGIC, FORMAT_VERSION, len(entries), toc_off, len(toc),
        total_pages * PAGE_SIZE,
    )
    image[toc_off : toc_off + len(toc)] = toc
    for entry, blob in zip(entries, blobs):
        if entry.kind == KIND_FILE and blob:
            start = entry.data_page * PAGE_SIZE
            image[start : start + len(blob)] = blob
    return memoryview(image).toreadonly()


def parse_toc(header: bytes, toc: bytes) -> List[ImageEntry]:
    magic, version, count, _toc_off, _toc_len, _total = struct.unpack_from(
        HEADER_FMT, header, 0
    )
    if magic != MAGIC:
        raise ImageError(f"bad image magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ImageError(f"unsupported image version {version}")
    entries: List[ImageEntry] = []
    pos = 0
    for _ in range(count):
        try:
            (path_len,) = struct.unpack_from("<H", toc, pos)
            pos += 2
            path = toc[pos : pos + path_len].decode()
            pos += path_len
            kind, mode, uid, size = struct.unpack_from("<BIIQ", toc, pos)
            pos += struct.calcsize("<BIIQ")
            (data_page,) = struct.unpack_from("<Q", toc, pos)
            pos += 8
            (target_len,) = struct.unpack_from("<H", toc, pos)
            pos += 2
            target = toc[pos : pos + target_len].decode()
            pos += target_len
        except (struct.error, UnicodeDecodeError) as exc:
            raise ImageError(f"corrupt toc at byte {pos}: {exc}") from exc
        entries.append(
            ImageEntry(
                path=path, kind=kind, mode=mode, uid=uid, size=size,
                data_page=data_page, target=target,
            )
        )
    return entries


def mount_image(
    device: BlockDevice,
    cache: Optional[PageCache] = None,
    *,
    costs: CostModel,
    writable: bool = True,
    label: str = "vmsh-image",
) -> Filesystem:
    """Mount a VMSH image from a block device.

    The header and toc are read through the device (costed block IO);
    file inodes map their logical pages straight onto the image's data
    pages, so reads go through the page cache and the virtqueue like
    any other filesystem on that device.
    """
    header = device.read_sectors(0, SECTORS_PER_PAGE)
    magic, version, count, toc_off, toc_len, total = struct.unpack_from(
        HEADER_FMT, header, 0
    )
    if magic != MAGIC:
        raise ImageError(f"device {device.name} holds no VMSH image")
    toc_sectors = (toc_off % PAGE_SIZE + toc_len + SECTOR_SIZE - 1) // SECTOR_SIZE
    toc = device.read_sectors(toc_off // SECTOR_SIZE, max(1, toc_sectors))[:toc_len]
    entries = parse_toc(header, toc)

    fs = Filesystem(
        "vmshfs", device=device, cache=cache, costs=costs, label=label
    )
    fs.read_only = not writable
    max_page = 0
    was_read_only, fs.read_only = fs.read_only, False
    try:
        for entry in entries:
            if entry.path == "":
                continue
            parent_path, _, name = entry.path.rpartition("/")
            parent = _dir_at(fs, parent_path)
            if entry.kind == KIND_DIR:
                fs.mkdir(parent.no, name, mode=entry.mode, uid=entry.uid)
            elif entry.kind == KIND_SYMLINK:
                fs.symlink(parent.no, name, entry.target, uid=entry.uid)
            else:
                node = fs.create(parent.no, name, mode=entry.mode, uid=entry.uid)
                node.size = entry.size
                npages = (entry.size + PAGE_SIZE - 1) // PAGE_SIZE
                for i in range(npages):
                    node.blocks[i] = entry.data_page + i
                fs.used_pages += npages
                max_page = max(max_page, entry.data_page + npages)
    finally:
        fs.read_only = was_read_only
    # Future allocations start after the image data.
    fs._next_page = max(fs._next_page, max_page)
    fs.total_pages = total // PAGE_SIZE
    return fs


def _dir_at(fs: Filesystem, path: str):
    node = fs.inode(fs.root_ino)
    for part in [p for p in path.split("/") if p]:
        node = fs.lookup(node.no, part)
    return node


def _norm(path: str) -> str:
    if not path.startswith("/"):
        raise ImageError(f"image paths must be absolute: {path!r}")
    return "/".join(p for p in path.split("/") if p)
