"""Fleet-scale determinism: same seed => bit-identical concurrent runs.

The single-VM determinism suite pins replayability of one attach; this
one pins the *scheduler's* contribution.  A run with eight VMs, two
interleaved attach pipelines, cooperative block I/O, and a
fault-injected attach rolling back mid-fleet has thousands of
same-instant event ties — every one resolved by the seed-derived
tie-break stream, never by dict order or wall clock.  Two runs from the
same master seed must therefore produce byte-identical span streams;
a different seed explores a different (still reproducible) interleaving.
"""

from repro.errors import PermanentFaultError
from repro.sim.faults import PERMANENT, FaultPlan, FaultSpec
from repro.testbed import Testbed
from repro.units import SECTOR_SIZE

from tests.chaos.conftest import MASTER_SEED

FLEET_SIZE = 8


def _blk_io(disk, fill, sectors=6):
    payload = bytes([fill]) * SECTOR_SIZE
    yield from disk.write_sectors_queued_task(
        [(i, payload) for i in range(sectors)]
    )
    data = yield from disk.read_sectors_queued_task(
        [(i, 1) for i in range(sectors)]
    )
    return b"".join(data)


def _run_fleet(seed):
    """One full fleet scenario; returns (outcomes, Perfetto export).

    Phase 1 — two attach pipelines interleave while an already-attached
    neighbour's queued block I/O flows through its service task.
    Phase 2 — a third attach hits a permanent irqfd fault and rolls
    back while the neighbour's I/O keeps flowing.
    """
    tb = Testbed(seed=seed)
    hvs = [tb.launch_qemu() for _ in range(FLEET_SIZE)]
    outcomes = []

    # VM 0 is the long-lived neighbour: attached up front, queues
    # drained by a scheduler task from here on.
    neighbour = tb.vmsh().attach(hvs[0].pid)
    neighbour.start_service(tb.scheduler)
    disk = hvs[0].guest.vmsh_block

    # -- phase 1: two interleaved attaches + neighbour I/O ------------------
    io_task = tb.scheduler.spawn(_blk_io(disk, 0xA1), label="io-phase1")
    attach_tasks = [
        tb.scheduler.spawn(tb.vmsh().attach_task(hvs[n].pid), label=f"attach-{n}")
        for n in (1, 2)
    ]
    io_data, session_1, session_2 = tb.scheduler.run(io_task, *attach_tasks)
    outcomes.append(("phase1-io", io_data == b"\xa1" * (6 * SECTOR_SIZE)))
    outcomes.append(("phase1-attached",
                     [s.report.hypervisor_pid for s in (session_1, session_2)]))

    # -- phase 2: fault-injected attach rolls back, I/O keeps flowing -------
    plan = FaultPlan(
        [FaultSpec("ioctl.KVM_IRQFD", occurrence=1, kind=PERMANENT)],
        label="fleet-phase2",
    )
    tb.host.faults.arm(plan)
    io2_task = tb.scheduler.spawn(_blk_io(disk, 0xB2), label="io-phase2")
    doomed = tb.scheduler.spawn(
        tb.vmsh().attach_task(hvs[3].pid), label="attach-doomed"
    )
    tb.scheduler.run_until_idle()
    fired = [(f.site, f.kind, f.occurrence) for f in tb.host.faults.fired]
    tb.host.faults.disarm()
    outcomes.append(("phase2-io", io2_task.result() == b"\xb2" * (6 * SECTOR_SIZE)))
    outcomes.append(("phase2-error", type(doomed.error).__name__))
    outcomes.append(("phase2-fired", fired))
    # Rollback left the doomed VM untraced and its vCPUs running.
    outcomes.append(("phase2-rolled-back", hvs[3].process.tracer is None))

    for session in (session_1, session_2, neighbour):
        session.detach()
    outcomes.append(("events-run", tb.scheduler.events_run))
    return outcomes, tb.obs.perfetto_json()


def test_fleet_same_seed_bit_identical():
    outcomes_a, trace_a = _run_fleet(MASTER_SEED)
    outcomes_b, trace_b = _run_fleet(MASTER_SEED)
    assert outcomes_a == outcomes_b
    # Byte-identical span streams: the Perfetto export renders every
    # span and instant, the canonical record of what happened and when.
    assert trace_a == trace_b


def test_fleet_scenario_outcomes():
    """The scenario itself behaves, independent of replay identity."""
    outcomes, trace = _run_fleet(MASTER_SEED)
    by_key = dict(outcomes)
    assert by_key["phase1-io"] is True
    assert len(by_key["phase1-attached"]) == 2
    assert by_key["phase2-io"] is True
    assert by_key["phase2-error"] == "PermanentFaultError"
    assert by_key["phase2-fired"] and by_key["phase2-fired"][0][0] == "ioctl.KVM_IRQFD"
    assert by_key["phase2-rolled-back"] is True
    assert by_key["events-run"] > 0
    assert trace  # the run is actually traced


def test_fleet_different_seed_different_interleaving():
    _, trace_a = _run_fleet(MASTER_SEED)
    _, trace_b = _run_fleet(MASTER_SEED + 1)
    # Same workload, different tie-breaks: the streams should diverge
    # somewhere (identical streams would mean the seed is ignored).
    assert trace_a != trace_b
