"""Sparse physical memory, gpa->hva translation, cross-process access."""

import pytest

from repro.errors import MemoryError_, VmshError
from repro.host.ebpf import MemslotRecord
from repro.host.kernel import HostKernel
from repro.mem.physmem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.units import KiB, MiB, PAGE_SIZE
from repro.virtio.memio import GpaTranslator, RemoteProcessAccessor


def test_unwritten_memory_reads_zero():
    mem = PhysicalMemory(1 * MiB)
    assert mem.read(0, 16) == b"\x00" * 16
    assert mem.read(MiB - 8, 8) == b"\x00" * 8


def test_write_read_roundtrip():
    mem = PhysicalMemory(1 * MiB)
    mem.write(1234, b"hello world")
    assert mem.read(1234, 11) == b"hello world"


def test_cross_page_write():
    mem = PhysicalMemory(1 * MiB)
    data = bytes(range(256)) * 40  # 10240 bytes across 3+ pages
    mem.write(PAGE_SIZE - 100, data)
    assert mem.read(PAGE_SIZE - 100, len(data)) == data


def test_out_of_bounds_rejected():
    mem = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(MemoryError_):
        mem.read(PAGE_SIZE - 1, 2)
    with pytest.raises(MemoryError_):
        mem.write(PAGE_SIZE, b"x")
    with pytest.raises(MemoryError_):
        mem.read(-1, 1)


def test_size_must_be_page_multiple():
    with pytest.raises(ValueError):
        PhysicalMemory(100)
    with pytest.raises(ValueError):
        PhysicalMemory(0)


def test_word_accessors_little_endian():
    mem = PhysicalMemory(PAGE_SIZE)
    mem.write_u64(0, 0x1122334455667788)
    assert mem.read(0, 8) == bytes.fromhex("8877665544332211")
    assert mem.read_u64(0) == 0x1122334455667788
    mem.write_u32(8, 0xDEADBEEF)
    assert mem.read_u32(8) == 0xDEADBEEF
    mem.write_u16(12, 0xCAFE)
    assert mem.read_u16(12) == 0xCAFE
    mem.write_i32(16, -12345)
    assert mem.read_i32(16) == -12345


def test_resident_pages_tracks_materialisation():
    mem = PhysicalMemory(1 * MiB)
    assert mem.resident_pages == 0
    mem.read(0, 4096)            # reads do not materialise
    assert mem.resident_pages == 0
    mem.write(0, b"x")
    mem.write(5 * PAGE_SIZE, b"y")
    assert mem.resident_pages == 2


def test_touched_ranges_coalesces():
    mem = PhysicalMemory(1 * MiB)
    mem.write(0, b"a")
    mem.write(PAGE_SIZE, b"b")
    mem.write(10 * PAGE_SIZE, b"c")
    ranges = list(mem.touched_ranges())
    assert ranges == [(0, 2 * PAGE_SIZE), (10 * PAGE_SIZE, 11 * PAGE_SIZE)]


# -- gpa -> hva translation --------------------------------------------------

def _slots(*triples):
    return [
        MemslotRecord(slot=i, gpa=gpa, size=size, hva=hva)
        for i, (gpa, size, hva) in enumerate(triples)
    ]


def test_translator_bisect_lookup():
    size = 64 * KiB
    slots = _slots(*((i * size, size, 0x100000 + i * MiB) for i in range(32)))
    translator = GpaTranslator(slots)
    for i in (0, 7, 31):
        gpa = i * size + 12
        assert translator.to_hva(gpa, 8) == 0x100000 + i * MiB + 12


def test_translator_splits_span_of_contiguous_slots():
    """Regression: a range crossing into the next gpa-contiguous memslot
    used to hard-error; it must split into per-slot hva runs instead."""
    slots = _slots((0, 64 * KiB, 0x10000), (64 * KiB, 64 * KiB, 0x90000))
    translator = GpaTranslator(slots)
    runs = translator.to_hva_iov(64 * KiB - 100, 300)
    assert runs == [(0x10000 + 64 * KiB - 100, 100), (0x90000, 200)]
    # The single-slot translation still refuses the span.
    with pytest.raises(VmshError, match="single"):
        translator.to_hva(64 * KiB - 100, 300)


def test_translator_genuine_hole_raises():
    slots = _slots((0, 64 * KiB, 0x10000), (1 * MiB, 64 * KiB, 0x90000))
    translator = GpaTranslator(slots)
    with pytest.raises(VmshError, match="not covered"):
        translator.to_hva_iov(64 * KiB - 8, 16)
    # An access entirely inside either slot is unaffected.
    assert translator.to_hva_iov(1 * MiB, 16) == [(0x90000, 16)]


# -- remote access across memslots -------------------------------------------

def _remote_env(slot_layout):
    """A vmsh + hypervisor process pair with one mmap per (gpa, size)."""
    host = HostKernel()
    vmsh = host.spawn_process("vmsh")
    hv = host.spawn_process("hypervisor")
    records = []
    for i, (gpa, size) in enumerate(slot_layout):
        hva = host.syscall(hv.main_thread, "mmap", size, f"guest-ram-{i}")
        records.append(MemslotRecord(slot=i, gpa=gpa, size=size, hva=hva))
    accessor = RemoteProcessAccessor(
        host, vmsh.main_thread, hv.pid, GpaTranslator(records),
        MetricsRegistry(),
    )
    return host, hv, records, accessor


def test_remote_access_spans_contiguous_memslots():
    size = 64 * KiB
    host, hv, records, accessor = _remote_env([(0, size), (size, size)])
    payload = bytes(range(256)) * 2
    accessor.write(size - 256, payload)
    # Each half landed in the right mapping.
    space = host.processes[hv.pid].address_space
    assert space.read(records[0].hva + size - 256, 256) == payload[:256]
    assert space.read(records[1].hva, 256) == payload[256:]
    assert accessor.read(size - 256, 512) == payload


def test_remote_access_hole_still_raises():
    size = 64 * KiB
    host, hv, records, accessor = _remote_env([(0, size), (4 * size, size)])
    with pytest.raises(VmshError, match="not covered"):
        accessor.read(size - 8, 16)
    with pytest.raises(VmshError, match="not covered"):
        accessor.write(size - 8, b"x" * 16)


def test_remote_vectored_batches_into_one_syscall():
    host, hv, records, accessor = _remote_env([(0, 1 * MiB)])
    iov = [(page * PAGE_SIZE, PAGE_SIZE) for page in range(0, 64, 2)]
    before = host.costs.count("procvm_copy")
    data = accessor.read_vectored(iov)
    assert len(data) == 32 * PAGE_SIZE
    assert host.costs.count("procvm_copy") == before + 1
    stats = accessor.stats.as_dict()
    assert stats["calls"] == 1
    assert stats["segments"] == 32
    assert stats["segments_coalesced"] == 31
