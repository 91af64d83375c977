"""VFS: path resolution, mounts, namespaces, handles."""

import pytest

from repro.errors import VfsError
from repro.guestos.fs import Filesystem
from repro.guestos.vfs import (
    Mount,
    MountNamespace,
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    Vfs,
    normalize,
)
from repro.sim.clock import Clock
from repro.sim.costs import CostModel


@pytest.fixture()
def vfs():
    ns = MountNamespace()
    v = Vfs(ns)
    v.mount(Filesystem("ext4", costs=CostModel(Clock()), label="root"), "/")
    return v


def test_normalize():
    assert normalize("//a///b/./c") == "/a/b/c"
    assert normalize("/") == "/"
    with pytest.raises(VfsError):
        normalize("relative/path")


def test_write_read_file(vfs):
    vfs.write_file("/hello.txt", b"content")
    assert vfs.read_file("/hello.txt") == b"content"


def test_makedirs_and_exists(vfs):
    vfs.makedirs("/a/b/c")
    assert vfs.isdir("/a/b/c")
    vfs.makedirs("/a/b/c")  # idempotent
    assert vfs.exists("/a/b")
    assert not vfs.exists("/a/x")


def test_open_flags(vfs):
    vfs.write_file("/f", b"12345")
    with pytest.raises(VfsError, match="EEXIST"):
        vfs.open("/f", {O_CREAT, O_EXCL, O_RDWR})
    handle = vfs.open("/f", {O_RDWR, O_TRUNC})
    assert handle.fs.inode(handle.ino).size == 0
    vfs.close(handle)


def test_append_mode(vfs):
    vfs.write_file("/log", b"one")
    handle = vfs.open("/log", {O_RDWR, O_APPEND})
    vfs.write(handle, b"-two")
    vfs.close(handle)
    assert vfs.read_file("/log") == b"one-two"


def test_sequential_read_via_handle(vfs):
    vfs.write_file("/f", b"abcdef")
    handle = vfs.open("/f")
    assert vfs.read(handle, 3) == b"abc"
    assert vfs.read(handle, 3) == b"def"
    assert vfs.read(handle, 3) == b""
    vfs.close(handle)


def test_symlink_resolution(vfs):
    vfs.makedirs("/real/dir")
    vfs.write_file("/real/dir/file", b"x")
    vfs.symlink("/real/dir", "/linkdir")
    assert vfs.read_file("/linkdir/file") == b"x"
    assert vfs.readlink("/linkdir") == "/real/dir"
    assert vfs.stat("/linkdir", follow=False)["mode"] & 0o120000


def test_relative_symlink(vfs):
    vfs.makedirs("/d")
    vfs.write_file("/d/target", b"rel")
    vfs.symlink("target", "/d/link")
    assert vfs.read_file("/d/link") == b"rel"


def test_symlink_loop_detected(vfs):
    vfs.symlink("/b", "/a")
    vfs.symlink("/a", "/b")
    with pytest.raises(VfsError, match="ELOOP"):
        vfs.read_file("/a")


def test_dotdot_resolution(vfs):
    vfs.makedirs("/x/y")
    vfs.write_file("/x/f", b"up")
    assert vfs.read_file("/x/y/../f") == b"up"
    assert vfs.read_file("/x/../x/f") == b"up"
    # .. at root stays at root
    assert vfs.isdir("/../../..")


def test_mount_shadows_directory(vfs):
    vfs.makedirs("/mnt/data")
    vfs.write_file("/mnt/data/original", b"below")
    overlay_fs = Filesystem("tmpfs", costs=CostModel(Clock()), label="overlay")
    vfs.mount(overlay_fs, "/mnt/data")
    assert not vfs.exists("/mnt/data/original")
    vfs.write_file("/mnt/data/new", b"above")
    vfs.umount("/mnt/data")
    assert vfs.read_file("/mnt/data/original") == b"below"
    assert not vfs.exists("/mnt/data/new")


def test_mount_requires_directory(vfs):
    vfs.write_file("/file", b"")
    with pytest.raises(VfsError, match="ENOTDIR"):
        vfs.mount(Filesystem("tmpfs", costs=CostModel(Clock())), "/file")


def test_move_mount(vfs):
    vfs.makedirs("/from")
    vfs.makedirs("/to")
    extra = Filesystem("tmpfs", costs=CostModel(Clock()), label="mv")
    vfs.mount(extra, "/from")
    vfs.write_file("/from/marker", b"m")
    vfs.move_mount("/from", "/to")
    assert vfs.read_file("/to/marker") == b"m"
    assert not vfs.exists("/from/marker")


def test_namespace_clone_isolation(vfs):
    """CLONE_NEWNS: mounts in the clone do not leak to the parent."""
    clone = vfs.ns.clone()
    cloned_vfs = Vfs(clone)
    cloned_vfs.makedirs("/only-ns2-mnt")
    vfs.makedirs("/only-ns2-mnt")  # same underlying fs!
    extra = Filesystem("tmpfs", costs=CostModel(Clock()), label="private")
    cloned_vfs.mount(extra, "/only-ns2-mnt")
    cloned_vfs.write_file("/only-ns2-mnt/private", b"p")
    # Original namespace sees the underlying (empty) directory.
    assert not vfs.exists("/only-ns2-mnt/private")
    assert cloned_vfs.read_file("/only-ns2-mnt/private") == b"p"


def test_rename_cross_mount_exdev(vfs):
    vfs.makedirs("/other")
    vfs.mount(Filesystem("tmpfs", costs=CostModel(Clock())), "/other")
    vfs.write_file("/f", b"x")
    with pytest.raises(VfsError, match="EXDEV"):
        vfs.rename("/f", "/other/f")


def test_rmtree(vfs):
    vfs.makedirs("/tree/a/b")
    vfs.write_file("/tree/f1", b"1")
    vfs.write_file("/tree/a/f2", b"2")
    vfs.symlink("/tree/f1", "/tree/a/b/link")
    vfs.rmtree("/tree")
    assert not vfs.exists("/tree")


def test_rmdir_busy_mountpoint(vfs):
    vfs.makedirs("/busy")
    vfs.mount(Filesystem("tmpfs", costs=CostModel(Clock())), "/busy")
    with pytest.raises(VfsError, match="EBUSY"):
        vfs.rmdir("/busy")


def test_stat_fields(vfs):
    vfs.write_file("/s", b"123456")
    stat = vfs.stat("/s")
    assert stat["size"] == 6
    assert stat["nlink"] == 1
    assert stat["mode"] & 0o100000
    vfs.chmod("/s", 0o600)
    assert vfs.stat("/s")["mode"] & 0o7777 == 0o600
    vfs.chown("/s", 1000, 1000)
    assert vfs.stat("/s")["uid"] == 1000


def test_lseek_whences(vfs):
    vfs.write_file("/f", b"0123456789")
    handle = vfs.open("/f")
    assert vfs.lseek(handle, 4, "set") == 4
    assert vfs.lseek(handle, 2, "cur") == 6
    assert vfs.lseek(handle, -3, "end") == 7
    with pytest.raises(VfsError):
        vfs.lseek(handle, -100, "set")
    with pytest.raises(VfsError):
        vfs.lseek(handle, 0, "bogus")


def test_rename_into_own_subtree_rejected(vfs):
    """Regression: moving a directory under itself must fail EINVAL."""
    vfs.makedirs("/a/b")
    with pytest.raises(VfsError, match="EINVAL"):
        vfs.rename("/a", "/a/b/c")
    with pytest.raises(VfsError, match="EINVAL"):
        vfs.rename("/a", "/a")
    assert vfs.isdir("/a/b")                # tree untouched
