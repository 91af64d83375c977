"""Remaining host/infra pieces: seccomp profiles, host files, p9."""

import pytest

from repro.host.files import HostFile
from repro.host.seccomp import (
    SeccompFilter,
    VMSH_INJECTED_SYSCALLS,
    firecracker_vcpu_filter,
    firecracker_vmm_filter,
)
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.units import MiB, PAGE_SIZE


# -- seccomp profiles --------------------------------------------------------------

def test_firecracker_vcpu_filter_blocks_vmsh_syscalls():
    """The crux of the §6.2 conflict: every syscall VMSH injects that
    the vCPU filter lacks."""
    vcpu = firecracker_vcpu_filter()
    blocked = {s for s in VMSH_INJECTED_SYSCALLS if not vcpu.allows(s)}
    assert "eventfd2" in blocked
    assert "process_vm_readv" in blocked
    assert "socketpair" in blocked
    assert vcpu.allows("ioctl")            # KVM_RUN must still work


def test_vmm_filter_also_insufficient():
    vmm = firecracker_vmm_filter()
    assert not vmm.allows("eventfd2")
    assert vmm.allows("mmap")


def test_filter_check_raises_with_context():
    from repro.errors import SeccompViolationError

    filt = SeccompFilter.allowlist("t", {"read"})
    with pytest.raises(SeccompViolationError) as info:
        filt.check("mmap", "worker-1")
    assert info.value.syscall == "mmap"
    assert info.value.thread_name == "worker-1"


# -- host files ---------------------------------------------------------------------

def test_host_file_page_cache_behaviour():
    costs = CostModel(Clock())
    hf = HostFile("/srv/data", size=1 * MiB, costs=costs)
    hf.io_read(0, PAGE_SIZE)                 # cold: disk
    assert costs.count("disk_io") == 1
    hf.io_read(0, PAGE_SIZE)                 # warm: cache hit
    assert costs.count("disk_io") == 1
    assert costs.count("pagecache_hit") == 1
    hf.discard_cache()
    hf.io_read(0, PAGE_SIZE)                 # cold again
    assert costs.count("disk_io") == 2


def test_host_file_direct_bypasses_cache():
    costs = CostModel(Clock())
    hf = HostFile("/dev/nvme0n1p3", size=1 * MiB, costs=costs, direct=True)
    hf.io_read(0, PAGE_SIZE)
    hf.io_read(0, PAGE_SIZE)
    assert costs.count("disk_io") == 2
    assert costs.count("pagecache_hit") == 0


def test_host_file_raw_accessors_uncosted():
    costs = CostModel(Clock())
    hf = HostFile("/x", size=1 * MiB, costs=costs)
    hf.pwrite_raw(100, b"setup-data")
    assert hf.pread_raw(100, 10) == b"setup-data"
    assert costs.clock.now == 0


def test_host_file_grows_on_write():
    hf = HostFile("/x", size=0, costs=CostModel(Clock()))
    hf.pwrite_raw(5000, b"tail")
    assert hf.size == 5004


# -- 9p ---------------------------------------------------------------------------------

def test_p9_charges_rpcs_per_msize_chunk():
    from repro.guestos.vfs import MountNamespace, Vfs
    from repro.virtio.p9 import P9Filesystem

    costs = CostModel(Clock())
    fs = P9Filesystem(costs)
    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    costs.reset_counters()
    vfs.write_file("/big", b"\xaa" * (256 * 1024))   # 4 msize chunks
    rpc_events = costs.count("p9_rpc")
    assert rpc_events >= 4


def test_p9_guest_cache_hits_skip_rpcs():
    from repro.guestos.vfs import MountNamespace, Vfs
    from repro.virtio.p9 import P9Filesystem

    costs = CostModel(Clock())
    fs = P9Filesystem(costs)
    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    vfs.write_file("/f", b"\xbb" * 8192)
    costs.reset_counters()
    vfs.read_file("/f")                       # cached from the write
    first = costs.count("p9_rpc")
    fs.drop_caches()
    vfs.read_file("/f")                       # cold: needs RPCs
    assert costs.count("p9_rpc") > first


def test_p9_data_roundtrip():
    from repro.guestos.vfs import MountNamespace, Vfs
    from repro.virtio.p9 import P9Filesystem

    fs = P9Filesystem(CostModel(Clock()))
    vfs = Vfs(MountNamespace())
    vfs.mount(fs, "/")
    payload = bytes(range(256)) * 100
    vfs.write_file("/data", payload)
    fs.drop_caches()
    assert vfs.read_file("/data") == payload
