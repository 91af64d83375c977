"""Cost model: charging, counters, copy-path scaling."""

import pytest

from repro.guestos.blockcore import MemoryBlockDevice, NativeDisk
from repro.guestos.console import GuestShell, GuestTty
from repro.guestos.fs import Filesystem
from repro.guestos.pagecache import PageCache
from repro.guestos.process import GuestProcess
from repro.guestos.vfs import MountNamespace
from repro.host.files import HostFile
from repro.image.fsimage import mount_image
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.costs import CostModel, CostParams
from repro.units import MiB
from repro.virtio.core import QueuedWindowDriver
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.vring import DeviceRing


def _model():
    return CostModel(Clock())


def _engine(**charging):
    return QueuedWindowDriver(
        ring=None, transport=None, queue_index=0, name="q", **charging
    )


#: Every component that charges virtual time, built without an
#: argument its charging needs: (id, build, the argument left out).
_UNCHARGED = [
    ("Filesystem", lambda: Filesystem("tmpfs"), "costs"),
    ("PageCache", lambda: PageCache(), "costs"),
    ("NativeDisk", lambda: NativeDisk("nvme", 1 * MiB), "costs"),
    ("GuestTty", lambda: GuestTty(write_out=lambda data: None), "costs"),
    ("GuestShell",
     lambda: GuestShell(GuestProcess("sh", MountNamespace())), "costs"),
    ("HostFile", lambda: HostFile("/x", size=0), "costs"),
    ("mount_image",
     lambda: mount_image(MemoryBlockDevice("img", 1 * MiB)), "costs"),
    ("DeviceRing",
     lambda: DeviceRing(GuestMemoryAccessor(MetricsRegistry()),
                        0x1000, 0x2000, 0x3000, 8),
     "metrics"),
    ("QueuedWindowDriver-costs",
     lambda: _engine(span_name="w", per_chain_cost=lambda: None), "costs"),
    ("QueuedWindowDriver-span_name",
     lambda: _engine(costs=_model(), per_chain_cost=lambda: None),
     "span_name"),
    ("QueuedWindowDriver-per_chain_cost",
     lambda: _engine(costs=_model(), span_name="w"), "per_chain_cost"),
]


@pytest.mark.parametrize(
    "build, missing",
    [(build, missing) for _, build, missing in _UNCHARGED],
    ids=[name for name, _, _ in _UNCHARGED],
)
def test_charging_components_require_their_cost_model(build, missing):
    """No component runs cost-free: leaving out its model is an error,
    never a silent gap in virtual time."""
    with pytest.raises(TypeError, match=f"required .*argument: '{missing}'"):
        build()


def test_syscall_advances_clock():
    model = _model()
    model.syscall()
    assert model.clock.now == model.p.syscall_ns
    assert model.count("syscall") == 1


def test_counters_accumulate():
    model = _model()
    for _ in range(5):
        model.vmexit()
    assert model.count("vmexit") == 5
    model.reset_counters()
    assert model.count("vmexit") == 0


def test_memcpy_scales_with_size():
    model = _model()
    model.memcpy(0)
    base = model.clock.now
    model.memcpy(8_000_000)  # 8 MB at 8 GB/s -> 1 ms
    assert model.clock.now - base == model.p.memcpy_call_ns + 1_000_000


def test_procvm_has_higher_fixed_cost_than_memcpy():
    params = CostParams()
    assert params.procvm_call_ns > params.memcpy_call_ns * 10


def test_bytewise_copy_slower_than_procvm():
    """The §5 ablation depends on this ordering."""
    a = _model()
    b = _model()
    a.procvm_copy(1_000_000)
    b.bytewise_copy(1_000_000)
    assert b.clock.now > a.clock.now * 2


def test_procvm_vectored_single_segment_matches_procvm_copy():
    a = _model()
    b = _model()
    a.procvm_copy(4096)
    b.procvm_vectored(4096, 1)
    assert a.clock.now == b.clock.now
    assert b.count("procvm_copy") == 1
    assert b.count("procvm_sg_segments") == 0


def test_procvm_vectored_charges_per_segment_surcharge():
    a = _model()
    b = _model()
    a.procvm_copy(64 * 4096)
    b.procvm_vectored(64 * 4096, 64)
    assert b.clock.now == a.clock.now + 63 * b.p.procvm_seg_ns
    assert b.count("procvm_copy") == 1
    assert b.count("procvm_sg_segments") == 64


def test_procvm_vectored_beats_per_page_calls():
    """What sg-batching buys: 64 segments amortise one syscall entry."""
    batched = _model()
    per_page = _model()
    batched.procvm_vectored(64 * 4096, 64)
    for _ in range(64):
        per_page.procvm_copy(4096)
    assert batched.clock.now < per_page.clock.now
    assert per_page.count("procvm_copy") == 64
    assert batched.count("procvm_copy") == 1


def test_bump_counts_without_advancing_clock():
    model = _model()
    model.bump("things")
    model.bump("things", 2)
    assert model.count("things") == 3
    assert model.clock.now == 0


def test_disk_io_includes_service_time_and_bandwidth():
    model = _model()
    model.disk_io(3_200_000)  # exactly 1 ms of bandwidth
    assert model.clock.now == model.p.disk_service_ns + 1_000_000


def test_ptrace_stop_dwarfs_syscall():
    """wrap_syscall hurts because stops are ~25x a syscall."""
    params = CostParams()
    assert params.ptrace_stop_ns > 10 * params.syscall_ns


def test_p9_data_op_is_multiple_rpcs():
    model = _model()
    model.p9_data_op()
    assert model.clock.now == model.p.p9_rpc_ns * model.p.p9_rpcs_per_data_op


def test_pagecache_hit_is_cheap():
    model = _model()
    model.pagecache_hit(1)
    hit = model.clock.now
    model2 = _model()
    model2.disk_io(4096)
    assert model2.clock.now > 10 * hit


def test_custom_params_respected():
    params = CostParams(syscall_ns=7)
    model = CostModel(Clock(), params)
    model.syscall()
    assert model.clock.now == 7
