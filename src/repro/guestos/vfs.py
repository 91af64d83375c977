"""Guest VFS: path resolution, mount table, mount namespaces.

The container-based system overlay (§4.4) is pure mount-namespace
surgery: clone the namespace, mount the VMSH image as the new root,
and move every pre-existing guest mount under ``/var/lib/vmsh`` so the
attached tools can still reach the original system while existing
guest processes see nothing change.  This module supplies those
primitives with component-wise path resolution (symlinks, ``..``,
mount-point crossing) faithful enough for the xfstests suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import VfsError
from repro.guestos.fs import Filesystem, Inode

MAX_SYMLINK_DEPTH = 40

# open(2) flag names used throughout; a set of strings keeps call sites
# readable ("O_CREAT" beats 0o100 in a simulation).
O_RDONLY = "O_RDONLY"
O_WRONLY = "O_WRONLY"
O_RDWR = "O_RDWR"
O_CREAT = "O_CREAT"
O_EXCL = "O_EXCL"
O_TRUNC = "O_TRUNC"
O_APPEND = "O_APPEND"
O_DIRECT = "O_DIRECT"


def normalize(path: str) -> str:
    """Collapse '//' and '.' lexically; keeps '..' for the walker."""
    if not path.startswith("/"):
        raise VfsError("EINVAL", f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p and p != "."]
    return "/" + "/".join(parts)


@dataclass
class Mount:
    """One mounted filesystem within a namespace."""

    path: str
    fs: Filesystem

    def __post_init__(self) -> None:
        self.path = normalize(self.path)


class MountNamespace:
    """An ordered mount table; clones copy the table, not the FSs."""

    def __init__(self, mounts: Optional[List[Mount]] = None):
        self._mounts: List[Mount] = list(mounts or [])

    def clone(self) -> "MountNamespace":
        """CLONE_NEWNS: a private copy of the mount table."""
        return MountNamespace([Mount(m.path, m.fs) for m in self._mounts])

    def add(self, mount: Mount) -> None:
        self._mounts.append(mount)

    def remove(self, path: str) -> Mount:
        path = normalize(path)
        for i in range(len(self._mounts) - 1, -1, -1):
            if self._mounts[i].path == path:
                return self._mounts.pop(i)
        raise VfsError("EINVAL", f"nothing mounted at {path}")

    def mount_at(self, path: str) -> Optional[Mount]:
        """Topmost mount whose mountpoint is exactly ``path``."""
        path = normalize(path)
        for mount in reversed(self._mounts):
            if mount.path == path:
                return mount
        return None

    def mounts(self) -> List[Mount]:
        return list(self._mounts)

    def root_mount(self) -> Mount:
        mount = self.mount_at("/")
        if mount is None:
            raise VfsError("ENOENT", "namespace has no root mount")
        return mount


@dataclass
class OpenFile:
    """An open file description."""

    fs: Filesystem
    ino: int
    flags: Set[str]
    path: str
    pos: int = 0
    closed: bool = False

    @property
    def readable(self) -> bool:
        return O_WRONLY not in self.flags

    @property
    def writable(self) -> bool:
        return O_WRONLY in self.flags or O_RDWR in self.flags

    @property
    def direct(self) -> bool:
        return O_DIRECT in self.flags


class Vfs:
    """VFS operations bound to one mount namespace."""

    def __init__(self, namespace: MountNamespace):
        self.ns = namespace

    # -- path resolution ---------------------------------------------------------

    def _walk(
        self, path: str, follow_last: bool = True, _depth: int = 0
    ) -> Tuple[str, Mount, Inode]:
        if _depth > MAX_SYMLINK_DEPTH:
            raise VfsError("ELOOP", path)
        comps = [p for p in normalize(path).split("/") if p]
        root = self.ns.root_mount()
        cur: Tuple[str, Mount, int] = ("/", root, root.fs.root_ino)
        stack: List[Tuple[str, Mount, int]] = []
        i = 0
        while i < len(comps):
            name = comps[i]
            if name == "..":
                if stack:
                    cur = stack.pop()
                i += 1
                continue
            abspath, mount, ino = cur
            node = mount.fs.lookup(ino, name)
            is_last = i == len(comps) - 1
            if node.is_symlink and (follow_last or not is_last):
                target = node.target
                if target.startswith("/"):
                    rest = "/".join(comps[i + 1 :])
                    next_path = target + ("/" + rest if rest else "")
                    return self._walk(next_path, follow_last, _depth + 1)
                comps[i : i + 1] = [p for p in target.split("/") if p and p != "."]
                _depth += 1
                if _depth > MAX_SYMLINK_DEPTH:
                    raise VfsError("ELOOP", path)
                continue
            child_path = (abspath.rstrip("/") or "") + "/" + name
            covering = self.ns.mount_at(child_path)
            stack.append(cur)
            if covering is not None:
                cur = (child_path, covering, covering.fs.root_ino)
            else:
                cur = (child_path, mount, node.no)
            i += 1
        abspath, mount, ino = cur
        return abspath, mount, mount.fs.inode(ino)

    def _walk_parent(self, path: str) -> Tuple[Mount, Inode, str]:
        """Resolve the parent directory of ``path`` plus the final name."""
        norm = normalize(path)
        if norm == "/":
            raise VfsError("EINVAL", "operation on /")
        parent_path, _, name = norm.rpartition("/")
        if name in ("..", "."):
            raise VfsError("EINVAL", f"bad final component {name!r}")
        _, mount, parent = self._walk(parent_path or "/")
        if not parent.is_dir:
            raise VfsError("ENOTDIR", parent_path or "/")
        return mount, parent, name

    # -- file lifecycle ------------------------------------------------------------

    def open(self, path: str, flags: Optional[Set[str]] = None, mode: int = 0o644,
             uid: int = 0) -> OpenFile:
        flags = set(flags or {O_RDONLY})
        try:
            abspath, mount, node = self._walk(path)
            exists = True
        except VfsError as exc:
            if exc.code != "ENOENT" or O_CREAT not in flags:
                raise
            exists = False
        if exists:
            if O_CREAT in flags and O_EXCL in flags:
                raise VfsError("EEXIST", path)
            if node.is_dir and (O_WRONLY in flags or O_RDWR in flags):
                raise VfsError("EISDIR", path)
        else:
            mount, parent, name = self._walk_parent(path)
            node = mount.fs.create(parent.no, name, mode=mode, uid=uid)
            abspath = normalize(path)
        handle = OpenFile(fs=mount.fs, ino=node.no, flags=flags, path=normalize(path))
        if O_TRUNC in flags and node.is_file and handle.writable:
            mount.fs.truncate(node.no, 0)
        return handle

    def close(self, handle: OpenFile) -> None:
        if handle.closed:
            raise VfsError("EBADF", handle.path)
        handle.closed = True

    def read(self, handle: OpenFile, length: int) -> bytes:
        data = self.pread(handle, length, handle.pos)
        handle.pos += len(data)
        return data

    def pread(self, handle: OpenFile, length: int, offset: int) -> bytes:
        self._check_handle(handle, want_read=True)
        return handle.fs.read(handle.ino, offset, length, direct=handle.direct)

    def write(self, handle: OpenFile, data: bytes) -> int:
        if O_APPEND in handle.flags:
            handle.pos = handle.fs.inode(handle.ino).size
        written = self.pwrite(handle, data, handle.pos)
        handle.pos += written
        return written

    def pwrite(self, handle: OpenFile, data: bytes, offset: int) -> int:
        self._check_handle(handle, want_write=True)
        return handle.fs.write(handle.ino, offset, data, direct=handle.direct)

    def lseek(self, handle: OpenFile, offset: int, whence: str = "set") -> int:
        self._check_handle(handle)
        if whence == "set":
            new = offset
        elif whence == "cur":
            new = handle.pos + offset
        elif whence == "end":
            new = handle.fs.inode(handle.ino).size + offset
        else:
            raise VfsError("EINVAL", f"bad whence {whence!r}")
        if new < 0:
            raise VfsError("EINVAL", "seek before start")
        handle.pos = new
        return new

    def fsync(self, handle: OpenFile) -> None:
        self._check_handle(handle)
        handle.fs.fsync(handle.ino)

    def ftruncate(self, handle: OpenFile, size: int) -> None:
        self._check_handle(handle, want_write=True)
        handle.fs.truncate(handle.ino, size)

    def _check_handle(
        self, handle: OpenFile, want_read: bool = False, want_write: bool = False
    ) -> None:
        if handle.closed:
            raise VfsError("EBADF", handle.path)
        if want_read and not handle.readable:
            raise VfsError("EBADF", f"{handle.path} not open for reading")
        if want_write and not handle.writable:
            raise VfsError("EBADF", f"{handle.path} not open for writing")

    # -- namespace / metadata operations ------------------------------------------------

    def stat(self, path: str, follow: bool = True) -> Dict[str, int]:
        _, mount, node = self._walk(path, follow_last=follow)
        return {
            "ino": node.no,
            "mode": node.stat_mode(),
            "nlink": node.nlink,
            "uid": node.uid,
            "gid": node.gid,
            "size": node.size,
            "mtime": node.mtime,
            "ctime": node.ctime,
            "fs_id": mount.fs.fs_id,
        }

    def exists(self, path: str) -> bool:
        try:
            self._walk(path)
            return True
        except VfsError:
            return False

    def isdir(self, path: str) -> bool:
        try:
            return self._walk(path)[2].is_dir
        except VfsError:
            return False

    def mkdir(self, path: str, mode: int = 0o755, uid: int = 0) -> None:
        mount, parent, name = self._walk_parent(path)
        mount.fs.mkdir(parent.no, name, mode=mode, uid=uid)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        parts = [p for p in normalize(path).split("/") if p]
        cur = ""
        for part in parts:
            cur += "/" + part
            if not self.exists(cur):
                self.mkdir(cur, mode=mode)

    def rmdir(self, path: str) -> None:
        mount, parent, name = self._walk_parent(path)
        if self.ns.mount_at(normalize(path)) is not None:
            raise VfsError("EBUSY", f"{path} is a mountpoint")
        mount.fs.rmdir(parent.no, name)

    def unlink(self, path: str) -> None:
        mount, parent, name = self._walk_parent(path)
        mount.fs.unlink(parent.no, name)

    def rename(self, src: str, dst: str) -> None:
        src_norm, dst_norm = normalize(src), normalize(dst)
        if dst_norm == src_norm or dst_norm.startswith(src_norm + "/"):
            # Renaming a directory into its own subtree would orphan a
            # cycle; real kernels return EINVAL here.
            raise VfsError("EINVAL", f"cannot move {src} into itself")
        src_mount, src_parent, src_name = self._walk_parent(src)
        dst_mount, dst_parent, dst_name = self._walk_parent(dst)
        if src_mount.fs is not dst_mount.fs:
            raise VfsError("EXDEV", f"{src} and {dst} are on different filesystems")
        src_mount.fs.rename(src_parent.no, src_name, dst_parent.no, dst_name)

    def link(self, target: str, linkpath: str) -> None:
        _, tgt_mount, node = self._walk(target)
        mount, parent, name = self._walk_parent(linkpath)
        if mount.fs is not tgt_mount.fs:
            raise VfsError("EXDEV", f"{target} and {linkpath} differ in filesystem")
        mount.fs.link(parent.no, name, node.no)

    def symlink(self, target: str, linkpath: str) -> None:
        mount, parent, name = self._walk_parent(linkpath)
        mount.fs.symlink(parent.no, name, target)

    def readlink(self, path: str) -> str:
        _, _, node = self._walk(path, follow_last=False)
        if not node.is_symlink:
            raise VfsError("EINVAL", f"{path} is not a symlink")
        return node.target

    def readdir(self, path: str) -> List[str]:
        _, mount, node = self._walk(path)
        return mount.fs.readdir(node.no)

    def truncate(self, path: str, size: int) -> None:
        _, mount, node = self._walk(path)
        mount.fs.truncate(node.no, size)

    def chmod(self, path: str, mode: int) -> None:
        _, _, node = self._walk(path)
        node.mode = mode & 0o7777

    def chown(self, path: str, uid: int, gid: int) -> None:
        _, _, node = self._walk(path)
        node.uid, node.gid = uid, gid

    # -- xattrs ---------------------------------------------------------------------------

    def setxattr(self, path: str, name: str, value: bytes) -> None:
        _, mount, node = self._walk(path)
        mount.fs.setxattr(node.no, name, value)

    def getxattr(self, path: str, name: str) -> bytes:
        _, mount, node = self._walk(path)
        return mount.fs.getxattr(node.no, name)

    def listxattr(self, path: str) -> List[str]:
        _, mount, node = self._walk(path)
        return mount.fs.listxattr(node.no)

    def removexattr(self, path: str, name: str) -> None:
        _, mount, node = self._walk(path)
        mount.fs.removexattr(node.no, name)

    # -- mounts -----------------------------------------------------------------------------

    def mount(self, fs: Filesystem, path: str) -> None:
        path = normalize(path)
        if path != "/" and self.ns.mount_at("/") is not None:
            _, _, node = self._walk(path)
            if not node.is_dir:
                raise VfsError("ENOTDIR", path)
        self.ns.add(Mount(path, fs))

    def umount(self, path: str) -> None:
        self.ns.remove(path)

    def move_mount(self, old_path: str, new_path: str) -> None:
        """mount --move semantics, used to relocate guest mounts."""
        mount = self.ns.remove(old_path)
        self.ns.add(Mount(new_path, mount.fs))

    def statfs(self, path: str) -> Dict[str, int]:
        _, mount, _ = self._walk(path)
        return mount.fs.statfs()

    # -- convenience ---------------------------------------------------------------------------

    def rmtree(self, path: str) -> None:
        """Recursively delete a directory tree (rm -rf)."""
        _, mount, node = self._walk(path, follow_last=False)
        if node.is_symlink or node.is_file:
            self.unlink(path)
            return
        for name in self.readdir(path):
            self.rmtree(f"{path.rstrip('/')}/{name}")
        self.rmdir(path)

    def write_file(self, path: str, data: bytes, mode: int = 0o644) -> None:
        handle = self.open(path, {O_RDWR, O_CREAT, O_TRUNC}, mode=mode)
        self.write(handle, data)
        self.close(handle)

    def read_file(self, path: str) -> bytes:
        handle = self.open(path)
        size = handle.fs.inode(handle.ino).size
        data = self.read(handle, size)
        self.close(handle)
        return data
