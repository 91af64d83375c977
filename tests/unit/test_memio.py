"""Guest-memory accessors: stats and vectored batching."""

from repro.host.ebpf import MemslotRecord
from repro.host.kernel import HostKernel
from repro.mem.physmem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.units import MiB, PAGE_SIZE
from repro.virtio.memio import (
    AccessorStats,
    GuestMemoryAccessor,
    GpaTranslator,
    InProcessAccessor,
    IOV_MAX,
    RemoteProcessAccessor,
)


def _remote(size=8 * MiB):
    host = HostKernel()
    vmsh = host.spawn_process("vmsh")
    hv = host.spawn_process("hypervisor")
    hva = host.syscall(hv.main_thread, "mmap", size, "guest-ram")
    translator = GpaTranslator([MemslotRecord(slot=0, gpa=0, size=size, hva=hva)])
    return host, RemoteProcessAccessor(host, vmsh.main_thread, hv.pid,
                                       translator, MetricsRegistry())


def test_accessor_stats_as_dict():
    scope = MetricsRegistry().scope("memio", device="d0")
    stats = AccessorStats(scope)
    stats.read_op(60, 2, 6)
    stats.read_op(40, 1, 4)
    stats.write_op(50, 0, 0)
    assert stats.as_dict() == {
        "reads": 2, "writes": 1, "bytes_read": 100, "bytes_written": 50,
        "calls": 3, "segments": 10, "segments_coalesced": 7,
    }
    # The counters are the scope's own series.
    assert scope.counter("segments").value == 10


def test_base_vectored_falls_back_per_segment():
    class ArrayAccessor(GuestMemoryAccessor):
        def __init__(self):
            super().__init__(MetricsRegistry())
            self.buf = bytearray(4096)

        def read(self, gpa, length):
            return bytes(self.buf[gpa:gpa + length])

        def write(self, gpa, data):
            self.buf[gpa:gpa + len(data)] = data

    acc = ArrayAccessor()
    acc.write_vectored([(0, b"ab"), (100, b"cd")])
    assert acc.read_vectored([(0, 2), (100, 2)]) == b"abcd"


def test_inprocess_vectored_is_one_memcpy():
    mem = PhysicalMemory(1 * MiB)
    costs = CostModel(Clock())
    acc = InProcessAccessor(mem, costs, MetricsRegistry())
    acc.write_vectored([(0, b"aa"), (PAGE_SIZE, b"bb"), (2 * PAGE_SIZE, b"")])
    assert costs.count("memcpy") == 1
    stats = acc.stats.as_dict()
    assert stats["calls"] == 1
    assert stats["segments"] == 2           # empty segment filtered out
    assert acc.read_vectored([(0, 2), (PAGE_SIZE, 2)]) == b"aabb"


def test_remote_vectored_chunks_at_iov_max():
    host, acc = _remote()
    iov = [(page * PAGE_SIZE, 16) for page in range(IOV_MAX + 200)]
    data = acc.read_vectored(iov)
    assert len(data) == (IOV_MAX + 200) * 16
    stats = acc.stats.as_dict()
    assert stats["calls"] == 2              # 1024 + 200 segments
    assert stats["segments"] == IOV_MAX + 200
    assert host.costs.count("procvm_copy") == 2


def test_remote_write_vectored_roundtrip():
    host, acc = _remote()
    chunks = [bytes([i]) * 100 for i in range(20)]
    acc.write_vectored([(i * PAGE_SIZE, c) for i, c in enumerate(chunks)])
    assert acc.read_vectored([(i * PAGE_SIZE, 100) for i in range(20)]) == b"".join(chunks)
    stats = acc.stats.as_dict()
    assert stats["bytes_written"] == 2000
    assert stats["bytes_read"] == 2000
    assert stats["calls"] == 2              # one readv + one writev
