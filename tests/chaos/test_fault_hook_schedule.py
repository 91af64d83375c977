"""The ``physmem.*`` fault-hook schedule of a seeded data-plane run is pinned.

Chaos plans, fuzz cases and corpus entries armed on ``physmem.read`` /
``physmem.write`` fire at the N-th consultation of
:attr:`PhysicalMemory.fault_check`.  They only keep hitting the same
guest-memory access if every run consults the hook exactly as often,
with the same ``(site, addr, length)``, in the same order.  A speed-up
that merges, splits, skips or reorders accesses moves every such plan;
this test catches it.

The run: an ioregionfd attach to a seeded QEMU VM, queued 4 KiB vmsh-blk
writes and their read-back, a console ``echo ok``, and a detach.  Each
phase is pinned on its own, so a change to one phase names it.
"""

import hashlib
import random

from repro.mem.physmem import PhysicalMemory
from repro.testbed import Testbed

SEED = 0x564D5348

#: phase -> (consultations, SHA-256 of their repr).  Data plane was
#: taken before the single-page / single-slot fast paths existed;
#: attach, after the page-table view made the attach read each table
#: page once; launch, after the boot built its page tables through the
#: view too (each table page one write, no word-by-word zeroing).
EXPECTED = {
    "launch": (
        22,
        "5f4bb8386acd1b05b2cea88367b49d54ee67bbcfe6ff39ef8485e39033a9ff60",
    ),
    "attach": (
        261,
        "c293258e2d13794c6a8d718897216e393ed79bd5b9dae5c5ee41b5a22dee4542",
    ),
    "data plane": (
        1533,
        "be28b98f78739d6ae61fee1ab5df5376252e80c6eeadd49e4bfb9f367ba463c5",
    ),
}


def _schedule():
    calls = []

    def record(site, addr, length):
        calls.append((site, addr, length))

    PhysicalMemory.fault_check = record
    marks = []
    try:
        tb = Testbed(seed=SEED)
        hv = tb.launch_qemu()
        marks.append(len(calls))
        session = tb.vmsh().attach(hv.pid, mmio_mode="ioregionfd")
        marks.append(len(calls))
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
    launched, attached = marks
    return {
        "launch": calls[:launched],
        "attach": calls[launched:attached],
        "data plane": calls[attached:],
    }


def test_fault_hook_schedule_is_pinned():
    phases = _schedule()
    got = {
        phase: (len(calls), hashlib.sha256(repr(calls).encode()).hexdigest())
        for phase, calls in phases.items()
    }
    assert got == EXPECTED
