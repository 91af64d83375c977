"""The ``physmem.*`` fault-hook schedule of a seeded data-plane run is pinned.

Chaos plans, fuzz cases and corpus entries armed on ``physmem.read`` /
``physmem.write`` fire at the N-th consultation of
:attr:`PhysicalMemory.fault_check`.  They only keep hitting the same
guest-memory access if every run consults the hook exactly as often,
with the same ``(site, addr, length)``, in the same order.  A speed-up
that merges, splits, skips or reorders accesses moves every such plan;
this test catches it.

The run: an ioregionfd attach to a seeded QEMU VM, queued 4 KiB vmsh-blk
writes and their read-back, a console ``echo ok``, and a detach.
"""

import hashlib
import random

from repro.mem.physmem import PhysicalMemory
from repro.testbed import Testbed

SEED = 0x564D5348

#: taken from a run before the single-page / single-slot fast paths
#: existed; both must hold for every later change to the data plane
EXPECTED_CONSULTATIONS = 9966
EXPECTED_SHA256 = (
    "87cdb9dc6720e8efc004ef810fc29512982c3990cb51209bd8f443ea7d9d2f52"
)


def _schedule():
    calls = []

    def record(site, addr, length):
        calls.append((site, addr, length))

    PhysicalMemory.fault_check = record
    try:
        tb = Testbed(seed=SEED)
        hv = tb.launch_qemu()
        session = tb.vmsh().attach(hv.pid, mmio_mode="ioregionfd")
        disk = hv.guest.vmsh_block
        first = disk.capacity_sectors // 2
        rng = random.Random(SEED)
        for _ in range(4):
            sectors = [first + 8 * rng.randrange(256) for _ in range(8)]
            payloads = [(s, rng.randbytes(4096)) for s in sectors]
            disk.set_iodepth(len(payloads))
            disk.write_sectors_queued(payloads)
            got = disk.read_sectors_queued([(s, 8) for s in sectors])
            assert got == [data for _, data in payloads]
        assert session.console.run_command("echo ok").output.strip() == "ok"
        session.detach()
    finally:
        PhysicalMemory.fault_check = None
    return calls


def test_fault_hook_schedule_is_pinned():
    calls = _schedule()
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == (EXPECTED_CONSULTATIONS, EXPECTED_SHA256)
