"""The guest filesystem: inode ops, data paths, quota, extents."""

import pytest

from repro.errors import VfsError
from repro.guestos.blockcore import MemoryBlockDevice, NativeDisk
from repro.guestos.fs import Filesystem
from repro.guestos.pagecache import PageCache
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.units import MiB, PAGE_SIZE


def memfs() -> Filesystem:
    return Filesystem("tmpfs", costs=CostModel(Clock()))


def devfs() -> Filesystem:
    costs = CostModel(Clock())
    device = MemoryBlockDevice("vdx", 32 * MiB)
    return Filesystem("xfs", device=device, cache=PageCache(costs), costs=costs)


@pytest.fixture(params=["mem", "dev"])
def fs(request) -> Filesystem:
    return memfs() if request.param == "mem" else devfs()


def test_create_lookup_read_write(fs):
    node = fs.create(fs.root_ino, "file.txt")
    fs.write(node.no, 0, b"hello")
    assert fs.read(node.no, 0, 5) == b"hello"
    assert fs.lookup(fs.root_ino, "file.txt").no == node.no


def test_read_past_eof_truncates(fs):
    node = fs.create(fs.root_ino, "f")
    fs.write(node.no, 0, b"abc")
    assert fs.read(node.no, 1, 100) == b"bc"
    assert fs.read(node.no, 10, 5) == b""


def test_sparse_hole_reads_zero(fs):
    node = fs.create(fs.root_ino, "sparse")
    fs.write(node.no, 3 * PAGE_SIZE, b"tail")
    assert fs.read(node.no, 0, PAGE_SIZE) == b"\x00" * PAGE_SIZE
    assert fs.read(node.no, 3 * PAGE_SIZE, 4) == b"tail"


def test_unlink_frees_space():
    fs = devfs()
    node = fs.create(fs.root_ino, "big")
    fs.write(node.no, 0, b"\xaa" * (10 * PAGE_SIZE))
    fs.sync_all()
    used = fs.used_pages
    assert used >= 10
    fs.unlink(fs.root_ino, "big")
    assert fs.used_pages == used - 10


def test_nlink_semantics(fs):
    node = fs.create(fs.root_ino, "a")
    fs.link(fs.root_ino, "b", node.no)
    assert node.nlink == 2
    fs.unlink(fs.root_ino, "a")
    assert node.nlink == 1
    assert fs.lookup(fs.root_ino, "b").no == node.no


def test_rmdir_requires_empty(fs):
    d = fs.mkdir(fs.root_ino, "d")
    fs.create(d.no, "child")
    with pytest.raises(VfsError, match="ENOTEMPTY"):
        fs.rmdir(fs.root_ino, "d")
    fs.unlink(d.no, "child")
    fs.rmdir(fs.root_ino, "d")


def test_rename_replaces_file(fs):
    a = fs.create(fs.root_ino, "a")
    fs.write(a.no, 0, b"keepme")
    fs.create(fs.root_ino, "b")
    fs.rename(fs.root_ino, "a", fs.root_ino, "b")
    assert fs.read(fs.lookup(fs.root_ino, "b").no, 0, 6) == b"keepme"
    with pytest.raises(VfsError, match="ENOENT"):
        fs.lookup(fs.root_ino, "a")


def test_readonly_filesystem(fs):
    fs.read_only = True
    with pytest.raises(VfsError, match="EROFS"):
        fs.create(fs.root_ino, "nope")
    with pytest.raises(VfsError, match="EROFS"):
        fs.mkdir(fs.root_ino, "nope")


def test_data_round_trips_through_device():
    """Written bytes must be reconstructable from raw device sectors."""
    costs = CostModel(Clock())
    device = MemoryBlockDevice("vdx", 8 * MiB)
    fs = Filesystem("xfs", device=device, cache=PageCache(costs), costs=costs)
    node = fs.create(fs.root_ino, "f")
    payload = bytes(range(256)) * 32
    fs.write(node.no, 0, payload)
    fs.sync_all()
    raw = b"".join(
        device.read_sectors(s, 8) for s in range(0, device.capacity_sectors, 8)
    )
    assert payload in raw


def test_direct_io_alignment_enforced():
    fs = devfs()
    node = fs.create(fs.root_ino, "d")
    with pytest.raises(VfsError, match="EINVAL"):
        fs.write(node.no, 100, b"x" * 512, direct=True)
    with pytest.raises(VfsError, match="EINVAL"):
        fs.write(node.no, 0, b"x" * 100, direct=True)


def test_direct_write_then_buffered_read():
    fs = devfs()
    node = fs.create(fs.root_ino, "d")
    fs.write(node.no, 0, b"\x11" * 1024, direct=True)
    assert fs.read(node.no, 0, 1024) == b"\x11" * 1024


def test_buffered_write_then_direct_read_sees_data():
    fs = devfs()
    node = fs.create(fs.root_ino, "d")
    fs.write(node.no, 0, b"\x22" * 4096)
    # Direct read forces writeback first.
    assert fs.read(node.no, 0, 4096, direct=True) == b"\x22" * 4096


def test_extents_batch_contiguous_pages():
    costs = CostModel(Clock())
    device = NativeDisk("nvme", 32 * MiB, costs=costs)
    fs = Filesystem("xfs", device=device, cache=PageCache(costs), costs=costs)
    node = fs.create(fs.root_ino, "big")
    fs.write(node.no, 0, b"\x33" * (64 * PAGE_SIZE))
    costs.reset_counters()
    fs.fsync(node.no)
    # 64 contiguous dirty pages coalesce into very few device requests.
    assert costs.count("disk_io") <= 2


def test_quota_accounting_per_uid():
    fs = devfs()
    fs.quota_enabled = True
    node = fs.create(fs.root_ino, "mine", uid=1000)
    fs.write(node.no, 0, b"\x44" * (3 * PAGE_SIZE))
    fs.sync_all()
    fs.quota_enabled = True
    # Device is virtio-less MemoryBlockDevice: no pquota support.
    with pytest.raises(VfsError, match="ENOTSUP"):
        fs.quota_report()


def test_quota_report_native_device():
    costs = CostModel(Clock())
    device = NativeDisk("nvme", 8 * MiB, costs=costs)
    fs = Filesystem("xfs", device=device, cache=PageCache(costs), costs=costs,
                    features={"quota"})
    node = fs.create(fs.root_ino, "mine", uid=1000)
    fs.write(node.no, 0, b"\x55" * (2 * PAGE_SIZE))
    fs.sync_all()
    report = fs.quota_report()
    assert report[1000] == 2


def test_enospc():
    costs = CostModel(Clock())
    device = MemoryBlockDevice("tiny", 16 * PAGE_SIZE)
    fs = Filesystem("xfs", device=device, cache=PageCache(costs), costs=costs)
    node = fs.create(fs.root_ino, "f")
    with pytest.raises(VfsError, match="ENOSPC"):
        fs.write(node.no, 0, b"\x66" * (20 * PAGE_SIZE))


def test_xattr_crud(fs):
    node = fs.create(fs.root_ino, "x")
    fs.setxattr(node.no, "user.key", b"v1")
    assert fs.getxattr(node.no, "user.key") == b"v1"
    assert fs.listxattr(node.no) == ["user.key"]
    fs.removexattr(node.no, "user.key")
    with pytest.raises(VfsError, match="ENODATA"):
        fs.getxattr(node.no, "user.key")


def test_truncate_zeroes_resurrected_range(fs):
    node = fs.create(fs.root_ino, "t")
    fs.write(node.no, 0, b"\x77" * 8192)
    fs.truncate(node.no, 100)
    fs.truncate(node.no, 8192)
    assert fs.read(node.no, 100, 8092) == b"\x00" * 8092


def test_direct_write_preserves_partial_page_tail():
    """Regression: a single-page direct write with an uncovered tail
    must not zero the pre-existing tail bytes on the device."""
    fs = devfs()
    node = fs.create(fs.root_ino, "edge")
    fs.write(node.no, 0, b"A" * 4096, direct=True)
    fs.write(node.no, 0, b"B" * 512, direct=True)
    data = fs.read(node.no, 0, 4096)
    assert data[:512] == b"B" * 512
    assert data[512:] == b"A" * 3584
    # Interior sector too.
    fs.write(node.no, 512, b"C" * 512, direct=True)
    data = fs.read(node.no, 0, 4096)
    assert data[:512] == b"B" * 512
    assert data[512:1024] == b"C" * 512
    assert data[1024:] == b"A" * 3072


def test_dirty_eviction_writes_back():
    """Regression: dirty pages evicted under cache pressure must be
    persisted, not discarded."""
    from repro.guestos.blockcore import MemoryBlockDevice
    from repro.guestos.pagecache import PageCache
    from repro.units import MiB

    costs = CostModel(Clock())
    cache = PageCache(costs, capacity_pages=4)
    fs = Filesystem("xfs", device=MemoryBlockDevice("d", 8 * MiB), cache=cache,
                    costs=costs)
    fs.DIRTY_THRESHOLD_PAGES = 10**9        # defeat threshold writeback
    node = fs.create(fs.root_ino, "f")
    fs.write(node.no, 0, bytes([7]) * (8 * 4096))
    fs.sync_all()
    fs.drop_caches()
    data = fs.read(node.no, 0, 8 * 4096)
    assert all(data[i * 4096] == 7 for i in range(8))
