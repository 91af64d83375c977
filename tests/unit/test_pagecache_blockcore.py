"""Page cache behaviour and block devices."""

import pytest

from repro.errors import GuestError
from repro.guestos.blockcore import MemoryBlockDevice, NativeDisk
from repro.guestos.pagecache import PageCache
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.units import MiB, PAGE_SIZE


def test_cache_miss_then_hit():
    cache = PageCache(CostModel(Clock()))
    assert cache.lookup(1, 1, 0) is None
    cache.insert(1, 1, 0, b"data")
    assert cache.lookup(1, 1, 0)[:4] == b"data"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_write_through_cache_marks_dirty():
    cache = PageCache(CostModel(Clock()))
    cache.write_through_cache(1, 1, 0, 100, b"dirty")
    dirty = cache.dirty_pages_of(1, 1)
    assert len(dirty) == 1
    index, page = dirty[0]
    assert index == 0
    assert page[100:105] == b"dirty"
    cache.clean(1, 1, 0)
    assert cache.dirty_pages_of(1, 1) == []
    assert cache.stats.writebacks == 1


def test_dirty_counters_per_fs():
    cache = PageCache(CostModel(Clock()))
    cache.write_through_cache(1, 1, 0, 0, b"a")
    cache.write_through_cache(1, 2, 0, 0, b"b")
    cache.write_through_cache(2, 1, 0, 0, b"c")
    assert cache.dirty_count(1) == 2
    assert cache.dirty_inodes(1) == [1, 2]
    assert cache.dirty_count(2) == 1


def test_invalidate_inode():
    cache = PageCache(CostModel(Clock()))
    cache.insert(1, 1, 0, b"x")
    cache.write_through_cache(1, 1, 1, 0, b"y")
    cache.invalidate_inode(1, 1)
    assert cache.lookup(1, 1, 0) is None
    assert cache.dirty_pages_of(1, 1) == []


def test_drop_clean_keeps_dirty():
    cache = PageCache(CostModel(Clock()))
    cache.insert(1, 1, 0, b"clean")
    cache.write_through_cache(1, 1, 1, 0, b"dirty")
    cache.drop_clean()
    assert cache.lookup(1, 1, 0) is None
    assert cache.lookup(1, 1, 1) is not None


def test_eviction_prefers_clean():
    cache = PageCache(CostModel(Clock()), capacity_pages=2)
    cache.insert(1, 1, 0, b"clean")
    cache.write_through_cache(1, 1, 1, 0, b"dirty")
    cache.insert(1, 1, 2, b"new")          # evicts the clean page
    assert cache.lookup(1, 1, 0) is None
    assert len(cache.dirty_pages_of(1, 1)) == 1


def test_cache_hit_charges_less_than_insert():
    costs = CostModel(Clock())
    cache = PageCache(costs)
    cache.insert(1, 1, 0, b"x")
    after_insert = costs.clock.now
    cache.lookup(1, 1, 0)
    assert costs.clock.now - after_insert < after_insert


def test_oversized_page_rejected():
    cache = PageCache(CostModel(Clock()))
    with pytest.raises(ValueError):
        cache.insert(1, 1, 0, b"x" * (PAGE_SIZE + 1))
    with pytest.raises(ValueError):
        cache.write_through_cache(1, 1, 0, PAGE_SIZE - 1, b"xy")


# -- block devices ------------------------------------------------------------

def test_memory_block_device_roundtrip():
    device = MemoryBlockDevice("m", 1 * MiB)
    device.write_sectors(10, b"\xab" * 1024)
    assert device.read_sectors(10, 2) == b"\xab" * 1024
    assert device.read_sectors(100, 1) == b"\x00" * 512


def test_block_device_bounds():
    device = MemoryBlockDevice("m", 1 * MiB)
    with pytest.raises(GuestError):
        device.read_sectors(device.capacity_sectors, 1)
    with pytest.raises(ValueError):
        device.write_sectors(0, b"odd-size")


def test_native_disk_charges_costs():
    costs = CostModel(Clock())
    disk = NativeDisk("nvme", 1 * MiB, costs=costs)
    disk.write_sectors(0, b"\x01" * 512)
    assert costs.count("disk_io") == 1
    assert costs.count("syscall") == 1


def test_native_disk_trim():
    disk = NativeDisk("nvme", 1 * MiB, costs=CostModel(Clock()))
    disk.write_sectors(0, b"\x01" * 512)
    disk.discard_all()
    assert disk.read_sectors(0, 1) == b"\x00" * 512


def test_native_disk_supports_pquota():
    assert NativeDisk("nvme", 1 * MiB, costs=CostModel(Clock())).supports_pquota
    assert not MemoryBlockDevice("m", 1 * MiB).supports_pquota
