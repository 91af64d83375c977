"""An xfstests-style regression suite (§6.1, E1).

The paper runs the xfstests "quick" group — 619 tests — against a
native XFS partition, qemu-blk and vmsh-blk; all pass natively, and
the same three quota-reporting cases fail on both virtio devices
(the transports expose no project-quota metadata).  This module
generates a deterministic suite of exactly 619 parametric tests over
the same functional areas (data integrity, metadata, xattrs, rename
semantics, O_DIRECT alignment, sparse files, error codes, quota), a
small set of feature-gated tests that auto-skip, and the "sustained
load" sha256 test the paper adds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import VfsError
from repro.guestos.fs import Filesystem
from repro.guestos.vfs import (
    MountNamespace,
    O_APPEND,
    O_CREAT,
    O_DIRECT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    Vfs,
)
from repro.sim.rng import stream
from repro.units import KiB, MiB

EXPECTED_TEST_COUNT = 619


class SkipTest(Exception):
    """Raised by a test that does not apply to this configuration."""


@dataclass
class TestContext:
    """What each test gets: a test dir and a scratch filesystem."""

    vfs: Vfs
    testdir: str
    fs: Filesystem
    scratch_fs: Filesystem
    scratch_vfs: Vfs


@dataclass(frozen=True)
class XfsTest:
    test_id: str
    fn: Callable[[TestContext], None]


@dataclass
class SuiteResult:
    passed: List[str] = field(default_factory=list)
    failed: List[Tuple[str, str]] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Tuple[int, int, int]:
        return len(self.passed), len(self.failed), len(self.skipped)

    def failed_ids(self) -> List[str]:
        return sorted(test_id for test_id, _ in self.failed)


# ---------------------------------------------------------------------------
# Test templates.  Each factory returns a list of (name, fn) pairs.
# ---------------------------------------------------------------------------

def _pattern(seed: str, length: int) -> bytes:
    digest = hashlib.sha256(seed.encode()).digest()
    reps = length // len(digest) + 1
    return (digest * reps)[:length]


def _write_read_tests() -> List[Tuple[str, Callable]]:
    tests = []
    sizes = [1, 17, 511, 512, 513, 4095, 4096, 4097, 12 * KiB, 64 * KiB,
             100_000, 256 * KiB, 1 * MiB]
    offsets = [0, 1, 511, 4096, 9999]
    for size in sizes:
        for offset in offsets:
            def fn(ctx: TestContext, size=size, offset=offset) -> None:
                path = f"{ctx.testdir}/f"
                data = _pattern(f"{size}:{offset}", size)
                handle = ctx.vfs.open(path, {O_RDWR, O_CREAT})
                ctx.vfs.pwrite(handle, data, offset)
                assert ctx.vfs.pread(handle, size, offset) == data
                ctx.vfs.fsync(handle)
                ctx.vfs.close(handle)
                # Re-open and verify it survived writeback.
                assert ctx.vfs.read_file(path)[offset : offset + size] == data
                if offset:
                    head = ctx.vfs.read_file(path)[:offset]
                    assert head == b"\x00" * offset
            tests.append((f"rw-{size}-at-{offset}", fn))
    return tests  # 65


def _truncate_tests() -> List[Tuple[str, Callable]]:
    tests = []
    cases = [(0, 100), (100, 0), (4096, 100), (100, 4096), (8192, 4096),
             (4096, 8192), (1 * MiB, 12345), (12345, 1 * MiB), (513, 512),
             (512, 513)]
    for initial, target in cases:
        for via_handle in (False, True):
            def fn(ctx: TestContext, initial=initial, target=target,
                   via_handle=via_handle) -> None:
                path = f"{ctx.testdir}/t"
                ctx.vfs.write_file(path, _pattern("trunc", initial))
                if via_handle:
                    handle = ctx.vfs.open(path, {O_RDWR})
                    ctx.vfs.ftruncate(handle, target)
                    ctx.vfs.close(handle)
                else:
                    ctx.vfs.truncate(path, target)
                assert ctx.vfs.stat(path)["size"] == target
                content = ctx.vfs.read_file(path)
                assert len(content) == target
                if target > initial:
                    assert content[initial:] == b"\x00" * (target - initial)
                # Data past EOF must not resurrect after re-extension.
                ctx.vfs.truncate(path, target + 4096)
                tail = ctx.vfs.read_file(path)[target:]
                assert tail == b"\x00" * 4096
            tests.append((f"truncate-{initial}-to-{target}-{'fd' if via_handle else 'path'}", fn))
    return tests  # 20


def _rename_tests() -> List[Tuple[str, Callable]]:
    tests = []
    scenarios = [
        "plain", "same-dir", "cross-dir", "onto-file", "onto-empty-dir",
        "file-onto-dir", "dir-onto-file", "onto-nonempty-dir", "into-missing",
        "nested-dir",
    ]
    for scenario in scenarios:
        for i in range(4):
            def fn(ctx: TestContext, scenario=scenario, i=i) -> None:
                base = f"{ctx.testdir}/{scenario}{i}"
                ctx.vfs.makedirs(base)
                if scenario in ("plain", "same-dir"):
                    ctx.vfs.write_file(f"{base}/a", b"x" * (i + 1))
                    ctx.vfs.rename(f"{base}/a", f"{base}/b")
                    assert not ctx.vfs.exists(f"{base}/a")
                    assert ctx.vfs.read_file(f"{base}/b") == b"x" * (i + 1)
                elif scenario == "cross-dir":
                    ctx.vfs.mkdir(f"{base}/d1")
                    ctx.vfs.mkdir(f"{base}/d2")
                    ctx.vfs.write_file(f"{base}/d1/a", b"payload")
                    ctx.vfs.rename(f"{base}/d1/a", f"{base}/d2/a")
                    assert ctx.vfs.read_file(f"{base}/d2/a") == b"payload"
                elif scenario == "onto-file":
                    ctx.vfs.write_file(f"{base}/a", b"new")
                    ctx.vfs.write_file(f"{base}/b", b"old")
                    ctx.vfs.rename(f"{base}/a", f"{base}/b")
                    assert ctx.vfs.read_file(f"{base}/b") == b"new"
                elif scenario == "onto-empty-dir":
                    ctx.vfs.mkdir(f"{base}/d1")
                    ctx.vfs.mkdir(f"{base}/d2")
                    ctx.vfs.rename(f"{base}/d1", f"{base}/d2")
                    assert ctx.vfs.isdir(f"{base}/d2")
                    assert not ctx.vfs.exists(f"{base}/d1")
                elif scenario == "file-onto-dir":
                    ctx.vfs.write_file(f"{base}/a", b"x")
                    ctx.vfs.mkdir(f"{base}/d")
                    _expect(ctx, "EISDIR", lambda: ctx.vfs.rename(f"{base}/a", f"{base}/d"))
                elif scenario == "dir-onto-file":
                    ctx.vfs.mkdir(f"{base}/d")
                    ctx.vfs.write_file(f"{base}/a", b"x")
                    _expect(ctx, "ENOTDIR", lambda: ctx.vfs.rename(f"{base}/d", f"{base}/a"))
                elif scenario == "onto-nonempty-dir":
                    ctx.vfs.mkdir(f"{base}/d1")
                    ctx.vfs.mkdir(f"{base}/d2")
                    ctx.vfs.write_file(f"{base}/d2/keep", b"x")
                    _expect(ctx, "ENOTEMPTY", lambda: ctx.vfs.rename(f"{base}/d1", f"{base}/d2"))
                elif scenario == "into-missing":
                    ctx.vfs.write_file(f"{base}/a", b"x")
                    _expect(ctx, "ENOENT", lambda: ctx.vfs.rename(f"{base}/a", f"{base}/nodir/a"))
                elif scenario == "nested-dir":
                    ctx.vfs.makedirs(f"{base}/d1/d2/d3")
                    ctx.vfs.write_file(f"{base}/d1/d2/d3/deep", b"deep")
                    ctx.vfs.rename(f"{base}/d1/d2", f"{base}/m")
                    assert ctx.vfs.read_file(f"{base}/m/d3/deep") == b"deep"
            tests.append((f"rename-{scenario}-{i}", fn))
    return tests  # 40


def _link_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for i in range(12):
        def hardlink(ctx: TestContext, i=i) -> None:
            base = ctx.testdir
            ctx.vfs.write_file(f"{base}/orig", _pattern("hl", 100 + i))
            for n in range(i % 4 + 1):
                ctx.vfs.link(f"{base}/orig", f"{base}/l{n}")
            stat = ctx.vfs.stat(f"{base}/orig")
            assert stat["nlink"] == 1 + i % 4 + 1
            ctx.vfs.unlink(f"{base}/orig")
            assert ctx.vfs.read_file(f"{base}/l0") == _pattern("hl", 100 + i)
        tests.append((f"hardlink-{i}", hardlink))
    for i in range(12):
        def symlink(ctx: TestContext, i=i) -> None:
            base = ctx.testdir
            ctx.vfs.write_file(f"{base}/target", b"via-symlink")
            ctx.vfs.symlink(f"{base}/target", f"{base}/s0")
            for n in range(i % 3 + 1):
                ctx.vfs.symlink(f"{base}/s{n}", f"{base}/s{n + 1}")
            last = f"{base}/s{i % 3 + 1}"
            assert ctx.vfs.read_file(last) == b"via-symlink"
            assert ctx.vfs.readlink(f"{base}/s1") == f"{base}/s0"
        tests.append((f"symlink-chain-{i}", symlink))
    for i in range(8):
        def dangling(ctx: TestContext, i=i) -> None:
            base = ctx.testdir
            ctx.vfs.symlink(f"{base}/missing{i}", f"{base}/dangle")
            _expect(ctx, "ENOENT", lambda: ctx.vfs.read_file(f"{base}/dangle"))
            assert ctx.vfs.stat(f"{base}/dangle", follow=False)["size"] > 0
        tests.append((f"symlink-dangling-{i}", dangling))
    for i in range(8):
        def loop(ctx: TestContext, i=i) -> None:
            base = ctx.testdir
            ctx.vfs.symlink(f"{base}/b", f"{base}/a")
            ctx.vfs.symlink(f"{base}/a", f"{base}/b")
            _expect(ctx, "ELOOP", lambda: ctx.vfs.read_file(f"{base}/a"))
        tests.append((f"symlink-loop-{i}", loop))
    return tests  # 40


def _xattr_tests() -> List[Tuple[str, Callable]]:
    tests = []
    namespaces = ("user.test", "trusted.meta", "security.label", "user.big")
    for ns in namespaces:
        for i in range(10):
            def fn(ctx: TestContext, ns=ns, i=i) -> None:
                path = f"{ctx.testdir}/x"
                ctx.vfs.write_file(path, b"data")
                value = _pattern(ns, 16 * (i + 1))
                ctx.vfs.setxattr(path, f"{ns}.{i}", value)
                assert ctx.vfs.getxattr(path, f"{ns}.{i}") == value
                assert f"{ns}.{i}" in ctx.vfs.listxattr(path)
                ctx.vfs.removexattr(path, f"{ns}.{i}")
                _expect(ctx, "ENODATA", lambda: ctx.vfs.getxattr(path, f"{ns}.{i}"))
                _expect(ctx, "ENODATA", lambda: ctx.vfs.removexattr(path, f"{ns}.{i}"))
            tests.append((f"xattr-{ns}-{i}", fn))
    return tests  # 40


def _sparse_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for i, hole_pages in enumerate((1, 2, 7, 16, 64, 250)):
        for tail in (1, 100, 4096, 5000, 65536):
            def fn(ctx: TestContext, hole_pages=hole_pages, tail=tail) -> None:
                path = f"{ctx.testdir}/sparse"
                hole = hole_pages * 4096
                handle = ctx.vfs.open(path, {O_RDWR, O_CREAT})
                ctx.vfs.pwrite(handle, b"HEAD", 0)
                ctx.vfs.pwrite(handle, _pattern("tail", tail), hole)
                ctx.vfs.fsync(handle)
                ctx.vfs.close(handle)
                content = ctx.vfs.read_file(path)
                assert content[:4] == b"HEAD"
                assert content[4:hole] == b"\x00" * (hole - 4)
                assert content[hole:] == _pattern("tail", tail)
                # Sparse files must not consume blocks for holes.
                used = ctx.vfs.stat(path)["size"]
                assert used == hole + tail
            tests.append((f"sparse-{hole_pages}p-tail{tail}", fn))
    return tests  # 30


def _direct_io_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for size_sectors in (1, 2, 8, 9, 64, 128):
        for offset_sectors in (0, 1, 8, 63):
            def fn(ctx: TestContext, size_sectors=size_sectors,
                   offset_sectors=offset_sectors) -> None:
                path = f"{ctx.testdir}/dio"
                size = size_sectors * 512
                offset = offset_sectors * 512
                data = _pattern("dio", size)
                handle = ctx.vfs.open(path, {O_RDWR, O_CREAT, O_DIRECT})
                ctx.vfs.pwrite(handle, data, offset)
                assert ctx.vfs.pread(handle, size, offset) == data
                ctx.vfs.close(handle)
                # Buffered view agrees with direct view.
                assert ctx.vfs.read_file(path)[offset : offset + size] == data
            tests.append((f"direct-{size_sectors}s-at-{offset_sectors}s", fn))
    for i in range(6):
        def misaligned(ctx: TestContext, i=i) -> None:
            path = f"{ctx.testdir}/dio-bad"
            handle = ctx.vfs.open(path, {O_RDWR, O_CREAT, O_DIRECT})
            _expect(ctx, "EINVAL", lambda: ctx.vfs.pwrite(handle, b"x" * (100 + i), 0))
            _expect(ctx, "EINVAL", lambda: ctx.vfs.pwrite(handle, b"x" * 512, 100 + i))
            ctx.vfs.close(handle)
        tests.append((f"direct-misaligned-{i}", misaligned))
    return tests  # 30


def _append_seek_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for i in range(15):
        def append(ctx: TestContext, i=i) -> None:
            path = f"{ctx.testdir}/app"
            handle = ctx.vfs.open(path, {O_RDWR, O_CREAT, O_APPEND})
            chunks = [(f"chunk{n}-" * (i + 1)).encode() for n in range(4)]
            for chunk in chunks:
                ctx.vfs.write(handle, chunk)
            ctx.vfs.close(handle)
            assert ctx.vfs.read_file(path) == b"".join(chunks)
        tests.append((f"append-{i}", append))
    for i, (whence, offset) in enumerate(
        [("set", 0), ("set", 100), ("cur", 10), ("cur", -5), ("end", 0),
         ("end", -10), ("end", 100), ("set", 99999), ("cur", 0), ("end", -1),
         ("set", 7), ("cur", 3), ("end", -100), ("set", 4096), ("cur", 512)]
    ):
        def seek(ctx: TestContext, whence=whence, offset=offset) -> None:
            path = f"{ctx.testdir}/seek"
            ctx.vfs.write_file(path, _pattern("seek", 8192))
            handle = ctx.vfs.open(path, {O_RDWR})
            ctx.vfs.lseek(handle, 200, "set")
            pos = ctx.vfs.lseek(handle, offset, whence)
            expected = {"set": offset, "cur": 200 + offset, "end": 8192 + offset}[whence]
            assert pos == expected, (pos, expected)
            data = ctx.vfs.read(handle, 16)
            assert data == _pattern("seek", 8192)[expected : expected + 16]
            ctx.vfs.close(handle)
        tests.append((f"seek-{i}", seek))
    return tests  # 30


def _fsync_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for i in range(25):
        def fn(ctx: TestContext, i=i) -> None:
            path = f"{ctx.testdir}/durable"
            data = _pattern(f"durable{i}", 4096 * (i % 5 + 1))
            handle = ctx.vfs.open(path, {O_RDWR, O_CREAT})
            ctx.vfs.write(handle, data)
            ctx.vfs.fsync(handle)
            ctx.vfs.close(handle)
            # Drop every clean page: the data must come back from the
            # device, not from the cache.
            ctx.fs.drop_caches()
            assert ctx.vfs.read_file(path) == data
        tests.append((f"fsync-durability-{i}", fn))
    return tests  # 25


def _statfs_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for i, npages in enumerate((1, 2, 4, 8, 16, 32, 64, 128, 200, 256)):
        def fn(ctx: TestContext, npages=npages) -> None:
            before = ctx.vfs.statfs(ctx.testdir)["bfree"]
            path = f"{ctx.testdir}/space"
            ctx.vfs.write_file(path, b"\x55" * (npages * 4096))
            ctx.fs.sync_all()
            after = ctx.vfs.statfs(ctx.testdir)["bfree"]
            assert before - after >= npages, (before, after, npages)
            ctx.vfs.unlink(path)
            freed = ctx.vfs.statfs(ctx.testdir)["bfree"]
            assert freed >= after + npages
        tests.append((f"statfs-accounting-{npages}", fn))
    for i in range(10):
        def consistency(ctx: TestContext, i=i) -> None:
            stats = ctx.vfs.statfs(ctx.testdir)
            assert 0 <= stats["bfree"] <= stats["blocks"]
            assert stats["bsize"] == 4096
        tests.append((f"statfs-consistency-{i}", consistency))
    return tests  # 20


def _path_tests() -> List[Tuple[str, Callable]]:
    tests = []
    cases = [
        ("//double//slash//", "normalize"),
        ("/./dot/./path", "dots"),
        ("/a/b/../c", "dotdot"),
        ("/a/../../b", "dotdot-past-root"),
    ]
    for i in range(10):
        def deep(ctx: TestContext, i=i) -> None:
            depth = 5 + i * 2
            path = ctx.testdir + "".join(f"/d{n}" for n in range(depth))
            ctx.vfs.makedirs(path)
            ctx.vfs.write_file(f"{path}/leaf", b"deep")
            dotted = ctx.testdir + "".join(f"/d{n}/." for n in range(depth))
            assert ctx.vfs.read_file(f"{dotted}/leaf") == b"deep"
            up = f"{path}/../d{depth - 1}/leaf"
            assert ctx.vfs.read_file(up) == b"deep"
        tests.append((f"path-deep-{i}", deep))
    for i in range(10):
        def dotdot(ctx: TestContext, i=i) -> None:
            ctx.vfs.makedirs(f"{ctx.testdir}/a/b")
            ctx.vfs.write_file(f"{ctx.testdir}/a/file", b"up")
            assert ctx.vfs.read_file(f"{ctx.testdir}/a/b/../file") == b"up"
            assert ctx.vfs.read_file(f"{ctx.testdir}/a/b/../../a/file") == b"up"
        tests.append((f"path-dotdot-{i}", dotdot))
    for i in range(10):
        def enoent(ctx: TestContext, i=i) -> None:
            _expect(ctx, "ENOENT", lambda: ctx.vfs.read_file(f"{ctx.testdir}/no/such{i}"))
            _expect(ctx, "ENOENT", lambda: ctx.vfs.stat(f"{ctx.testdir}/missing{i}"))
        tests.append((f"path-enoent-{i}", enoent))
    for i in range(10):
        def notdir(ctx: TestContext, i=i) -> None:
            ctx.vfs.write_file(f"{ctx.testdir}/plainfile", b"x")
            _expect(ctx, "ENOTDIR",
                    lambda: ctx.vfs.read_file(f"{ctx.testdir}/plainfile/below"))
        tests.append((f"path-enotdir-{i}", notdir))
    return tests  # 40


def _dir_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for count in (1, 10, 100, 500):
        def fn(ctx: TestContext, count=count) -> None:
            base = f"{ctx.testdir}/bigdir"
            ctx.vfs.mkdir(base)
            for n in range(count):
                ctx.vfs.write_file(f"{base}/e{n:05d}", b"")
            names = ctx.vfs.readdir(base)
            assert len(names) == count
            assert names == sorted(names)
        tests.append((f"readdir-{count}", fn))
    for i in range(8):
        def rmdir_nonempty(ctx: TestContext, i=i) -> None:
            ctx.vfs.makedirs(f"{ctx.testdir}/d/e")
            _expect(ctx, "ENOTEMPTY", lambda: ctx.vfs.rmdir(f"{ctx.testdir}/d"))
            ctx.vfs.rmdir(f"{ctx.testdir}/d/e")
            ctx.vfs.rmdir(f"{ctx.testdir}/d")
            assert not ctx.vfs.exists(f"{ctx.testdir}/d")
        tests.append((f"rmdir-nonempty-{i}", rmdir_nonempty))
    for i in range(8):
        def nlink(ctx: TestContext, i=i) -> None:
            base = f"{ctx.testdir}/links"
            ctx.vfs.mkdir(base)
            assert ctx.vfs.stat(base)["nlink"] == 2
            for n in range(i + 1):
                ctx.vfs.mkdir(f"{base}/sub{n}")
            assert ctx.vfs.stat(base)["nlink"] == 2 + i + 1
        tests.append((f"dir-nlink-{i}", nlink))
    return tests  # 20


def _errno_tests() -> List[Tuple[str, Callable]]:
    tests = []
    specs = [
        ("EEXIST-excl", lambda ctx: (
            ctx.vfs.write_file(f"{ctx.testdir}/e", b"x"),
            _expect(ctx, "EEXIST",
                    lambda: ctx.vfs.open(f"{ctx.testdir}/e", {O_CREAT, O_EXCL, O_RDWR})),
        )),
        ("EEXIST-mkdir", lambda ctx: (
            ctx.vfs.mkdir(f"{ctx.testdir}/d"),
            _expect(ctx, "EEXIST", lambda: ctx.vfs.mkdir(f"{ctx.testdir}/d")),
        )),
        ("EISDIR-open", lambda ctx: (
            ctx.vfs.mkdir(f"{ctx.testdir}/d"),
            _expect(ctx, "EISDIR",
                    lambda: ctx.vfs.open(f"{ctx.testdir}/d", {O_WRONLY})),
        )),
        ("EISDIR-unlink", lambda ctx: (
            ctx.vfs.mkdir(f"{ctx.testdir}/d"),
            _expect(ctx, "EISDIR", lambda: ctx.vfs.unlink(f"{ctx.testdir}/d")),
        )),
        ("ENOTDIR-rmdir", lambda ctx: (
            ctx.vfs.write_file(f"{ctx.testdir}/f", b"x"),
            _expect(ctx, "ENOTDIR", lambda: ctx.vfs.rmdir(f"{ctx.testdir}/f")),
        )),
        ("EBADF-closed", lambda ctx: _bad_handle(ctx)),
        ("EBADF-readonly-write", lambda ctx: _readonly_write(ctx)),
        ("EINVAL-readlink", lambda ctx: (
            ctx.vfs.write_file(f"{ctx.testdir}/f", b"x"),
            _expect(ctx, "EINVAL", lambda: ctx.vfs.readlink(f"{ctx.testdir}/f")),
        )),
        ("EXDEV-rename", lambda ctx: _exdev_rename(ctx)),
        ("EPERM-dir-hardlink", lambda ctx: (
            ctx.vfs.mkdir(f"{ctx.testdir}/d"),
            _expect(ctx, "EPERM",
                    lambda: ctx.vfs.link(f"{ctx.testdir}/d", f"{ctx.testdir}/l")),
        )),
    ]
    for name, body in specs:
        for i in range(4):
            def fn(ctx: TestContext, body=body) -> None:
                body(ctx)
            tests.append((f"errno-{name}-{i}", fn))
    return tests  # 40


def _exdev_rename(ctx: TestContext) -> None:
    ctx.vfs.write_file(f"{ctx.testdir}/f", b"x")
    other = f"{ctx.testdir}/otherfs"
    ctx.vfs.makedirs(other)
    tmpfs = Filesystem("tmpfs", costs=ctx.fs.costs, label="exdev-tmp")
    ctx.vfs.mount(tmpfs, other)
    try:
        _expect(ctx, "EXDEV", lambda: ctx.vfs.rename(f"{ctx.testdir}/f", f"{other}/f"))
    finally:
        ctx.vfs.umount(other)


def _bad_handle(ctx: TestContext) -> None:
    handle = ctx.vfs.open(f"{ctx.testdir}/f", {O_RDWR, O_CREAT})
    ctx.vfs.close(handle)
    _expect(ctx, "EBADF", lambda: ctx.vfs.read(handle, 1))
    _expect(ctx, "EBADF", lambda: ctx.vfs.close(handle))


def _readonly_write(ctx: TestContext) -> None:
    ctx.vfs.write_file(f"{ctx.testdir}/ro", b"x")
    handle = ctx.vfs.open(f"{ctx.testdir}/ro", {O_RDONLY})
    _expect(ctx, "EBADF", lambda: ctx.vfs.write(handle, b"y"))
    ctx.vfs.close(handle)


def _scratch_tests() -> List[Tuple[str, Callable]]:
    """Tests that exercise the scratch partition (mkfs-fresh each run)."""
    tests = []
    for i in range(20):
        def fn(ctx: TestContext, i=i) -> None:
            data = _pattern(f"scratch{i}", 4096 * (i + 1))
            ctx.scratch_vfs.write_file(f"/s{i}", data)
            ctx.scratch_fs.sync_all()
            ctx.scratch_fs.drop_caches()
            assert ctx.scratch_vfs.read_file(f"/s{i}") == data
        tests.append((f"scratch-rw-{i}", fn))
    return tests  # 20


def _quota_tests() -> List[Tuple[str, Callable]]:
    """Quota accounting (passes everywhere) + quota *reporting* (needs
    device support — the three §6.1 failures on virtio devices)."""
    tests = []
    for i in range(7):
        def accounting(ctx: TestContext, i=i) -> None:
            if not ctx.fs.quota_enabled:
                raise SkipTest("filesystem mounted without quota")
            ctx.vfs.write_file(f"{ctx.testdir}/q{i}", b"\x51" * 8192)
        tests.append((f"quota-accounting-{i}", accounting))
    for i, report_kind in enumerate(("user", "project", "summary")):
        def reporting(ctx: TestContext, kind=report_kind) -> None:
            if not ctx.fs.quota_enabled:
                raise SkipTest("filesystem mounted without quota")
            ctx.vfs.write_file(f"{ctx.testdir}/qr-{kind}", b"\x52" * 16384)
            ctx.fs.sync_all()
            report = ctx.fs.quota_report()   # ENOTSUP on virtio devices
            assert sum(report.values()) > 0
        tests.append((f"quota-report-{report_kind}", reporting))
    return tests  # 10


def _feature_gated_tests() -> List[Tuple[str, Callable]]:
    """Tests for optional features; they skip when absent, like the
    'tests that do not apply to our setup' in the paper."""
    tests = []
    for i, feature in enumerate(["reflink"] * 9 + ["bigtime"] * 8):
        def fn(ctx: TestContext, feature=feature, i=i) -> None:
            if feature not in ctx.fs.features:
                raise SkipTest(f"filesystem lacks {feature}")
            # Would exercise the feature here.
        tests.append((f"feature-{feature}-{i}", fn))
    return tests  # 17


def _mount_tests() -> List[Tuple[str, Callable]]:
    tests = []
    for i in range(11):
        def fn(ctx: TestContext, i=i) -> None:
            sub = f"{ctx.testdir}/mnt{i}"
            ctx.vfs.makedirs(sub)
            extra = Filesystem("tmpfs", costs=ctx.fs.costs, label=f"tmp{i}")
            ctx.vfs.mount(extra, sub)
            try:
                ctx.vfs.write_file(f"{sub}/inside", b"on-tmpfs")
                assert ctx.vfs.stat(f"{sub}/inside")["fs_id"] == extra.fs_id
                _expect(ctx, "EBUSY", lambda: ctx.vfs.rmdir(sub))
            finally:
                ctx.vfs.umount(sub)
            assert not ctx.vfs.exists(f"{sub}/inside")
        tests.append((f"mount-shadow-{i}", fn))
    return tests  # 11


def _sustained_load_test() -> List[Tuple[str, Callable]]:
    """The paper's extra long-running test: sha256 of a large image."""
    def fn(ctx: TestContext) -> None:
        path = f"{ctx.testdir}/os-image.img"
        chunk = _pattern("os-image", 256 * KiB)
        handle = ctx.vfs.open(path, {O_RDWR, O_CREAT})
        hasher_in = hashlib.sha256()
        for n in range(32):                      # 8 MiB image
            ctx.vfs.write(handle, chunk)
            hasher_in.update(chunk)
        ctx.vfs.fsync(handle)
        ctx.vfs.close(handle)
        ctx.fs.drop_caches()
        hasher_out = hashlib.sha256()
        handle = ctx.vfs.open(path, {O_RDONLY})
        while True:
            data = ctx.vfs.read(handle, 256 * KiB)
            if not data:
                break
            hasher_out.update(data)
        ctx.vfs.close(handle)
        assert hasher_in.hexdigest() == hasher_out.hexdigest()
    return [("sustained-sha256", fn)]  # 1


def _expect(ctx: TestContext, code: str, action: Callable) -> None:
    try:
        action()
    except VfsError as exc:
        if exc.code != code:
            raise AssertionError(f"expected {code}, got {exc.code}") from exc
        return
    raise AssertionError(f"expected {code}, but the operation succeeded")


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------

_FAMILIES = [
    ("generic", _write_read_tests),        # 65
    ("generic", _truncate_tests),          # 20
    ("generic", _rename_tests),            # 40
    ("generic", _link_tests),              # 40
    ("generic", _xattr_tests),             # 40
    ("generic", _sparse_tests),            # 30
    ("generic", _direct_io_tests),         # 30
    ("generic", _append_seek_tests),       # 30
    ("generic", _fsync_tests),             # 25
    ("generic", _statfs_tests),            # 20
    ("generic", _path_tests),              # 40
    ("generic", _dir_tests),               # 20
    ("generic", _errno_tests),             # 40
    ("generic", _scratch_tests),           # 20
    ("xfs", _quota_tests),                 # 10
    ("xfs", _feature_gated_tests),         # 17
    ("generic", _mount_tests),             # 11
    ("generic", _sustained_load_test),     # 1
]
# Base count: 499.  Pad to the paper's 619 with extra write/read
# parameterisations drawn deterministically.


def build_suite() -> List[XfsTest]:
    tests: List[XfsTest] = []
    counters: Dict[str, int] = {}
    for group, factory in _FAMILIES:
        for name, fn in factory():
            counters[group] = counters.get(group, 0) + 1
            tests.append(XfsTest(f"{group}/{counters[group]:03d}-{name}", fn))
    rng = stream("xfstests-pad")
    pad_index = 0
    while len(tests) < EXPECTED_TEST_COUNT:
        pad_index += 1
        size = rng.randrange(1, 128 * KiB)
        offset = rng.randrange(0, 16 * KiB)

        def fn(ctx: TestContext, size=size, offset=offset) -> None:
            path = f"{ctx.testdir}/pad"
            data = _pattern(f"pad{size}", size)
            handle = ctx.vfs.open(path, {O_RDWR, O_CREAT})
            ctx.vfs.pwrite(handle, data, offset)
            ctx.vfs.fsync(handle)
            ctx.vfs.close(handle)
            ctx.fs.drop_caches()
            assert ctx.vfs.read_file(path)[offset:] == data

        counters["generic"] = counters.get("generic", 0) + 1
        tests.append(
            XfsTest(f"generic/{counters['generic']:03d}-pad-rw-{pad_index}", fn)
        )
    assert len(tests) == EXPECTED_TEST_COUNT, len(tests)
    return tests


def run_suite(
    make_fs: Callable[[], Tuple[Filesystem, Filesystem]],
    tests: Optional[List[XfsTest]] = None,
) -> SuiteResult:
    """Run the suite; ``make_fs`` provides fresh (test, scratch) FSs.

    A fresh pair per test mirrors xfstests' re-mkfs of the scratch
    device and keeps tests independent.
    """
    suite = tests if tests is not None else build_suite()
    result = SuiteResult()
    for index, test in enumerate(suite):
        test_fs, scratch_fs = make_fs()
        ns = MountNamespace()
        vfs = Vfs(ns)
        vfs.mount(test_fs, "/")
        vfs.makedirs("/test")
        scratch_ns = MountNamespace()
        scratch_vfs = Vfs(scratch_ns)
        scratch_vfs.mount(scratch_fs, "/")
        ctx = TestContext(
            vfs=vfs, testdir="/test", fs=test_fs,
            scratch_fs=scratch_fs, scratch_vfs=scratch_vfs,
        )
        try:
            test.fn(ctx)
        except SkipTest:
            result.skipped.append(test.test_id)
        except Exception as exc:  # noqa: BLE001 - any failure is a test failure
            result.failed.append((test.test_id, f"{type(exc).__name__}: {exc}"))
        else:
            result.passed.append(test.test_id)
    return result
