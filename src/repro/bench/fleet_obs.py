"""The canonical *observed* fleet run for PR 5's observability spine.

One scenario, two consumers: ``python -m repro trace``/``metrics``
dump its exports, and the chaos suite replays it twice to pin the
byte-identity of both exports under one seed.

The run deliberately crosses every instrumented layer: eight VMs boot
(per-VM registry subtrees), two attach pipelines interleave with a
neighbour's queued block I/O (attach-step spans, blk window/batch
spans, vring counters), a third attach dies on a permanent irqfd fault
and rolls back (fault instants, rollback/undo spans), and an agent-less
monitor samples a fourth guest from a cooperative task (monitor spans,
each carrying its span-id cursor window).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.snapshot import VmSnapshot
from repro.sim.faults import PERMANENT, FaultPlan, FaultSpec
from repro.sim.sched import run_inline
from repro.testbed import Testbed
from repro.units import SECTOR_SIZE
from repro.usecases.monitoring import GuestMonitor

FLEET_SIZE = 8
IO_SECTORS = 6
IO_DEPTH = 3
MONITOR_SAMPLES = 3
MONITOR_INTERVAL_NS = 50_000


def _blk_io(disk, fill: int, sectors: int = IO_SECTORS):
    payload = bytes([fill]) * SECTOR_SIZE
    yield from disk.write_sectors_queued_task(
        [(i, payload) for i in range(sectors)]
    )
    data = yield from disk.read_sectors_queued_task(
        [(i, 1) for i in range(sectors)]
    )
    return b"".join(data)


def _at_boundary(gen, boundary: str, interfere: Callable[[], None]):
    """``gen`` (an ``attach_task``), with ``interfere`` fired once at
    the named step boundary; yields, sends and throws pass through
    unchanged, so ``gen``'s handlers (its rollback) see every error."""
    fired = False
    resume, arg = gen.send, None
    while True:
        try:
            yielded = resume(arg)
        except StopIteration as stop:
            if not fired:
                raise RuntimeError(f"attach never reached boundary {boundary!r}")
            return stop.value
        if yielded == boundary and not fired:
            fired = True
            interfere()
        try:
            resume, arg = gen.send, (yield yielded)
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:
            resume, arg = gen.throw, exc


def run_observed_fleet(
    seed: Optional[int] = None,
    fleet_size: int = FLEET_SIZE,
    on_testbed: Optional[Callable[[Any], None]] = None,
    snapshot_mid_attach: bool = False,
    cost_params: Any = None,
) -> Testbed:
    """Run the scenario; returns the testbed with its hub populated.

    Raises if any phase misbehaves — the consumers only ever export a
    run that actually exercised commit, rollback and queued I/O.  The
    scenario addresses five distinct VMs (neighbour, two attaches, the
    doomed one, the monitored one), so smaller fleets are rounded up.

    ``on_testbed`` fires right after the testbed is built (recorders
    and replay comparators tap the span stream there).
    ``snapshot_mid_attach`` adds phase 1.5: a sixth VM's attach runs
    inline; at the ``load_library`` boundary the VM is snapshotted and
    restored in place, then the attach completes — the record/replay
    round-trip property covers snapshot traffic that way.
    """
    fleet_size = max(fleet_size, 6 if snapshot_mid_attach else 5)
    tb = Testbed(seed=seed, cost_params=cost_params)
    if on_testbed is not None:
        on_testbed(tb)
    hvs = [tb.launch_qemu() for _ in range(fleet_size)]

    # VM 0: long-lived neighbour whose queues drain via a service task.
    neighbour = tb.vmsh().attach(hvs[0].pid)
    neighbour.start_service(tb.scheduler)
    disk = hvs[0].guest.vmsh_block
    disk.set_iodepth(IO_DEPTH)

    # Phase 1: two interleaved attaches + neighbour I/O.
    io_task = tb.scheduler.spawn(_blk_io(disk, 0xA1), label="io-phase1")
    attach_tasks = [
        tb.scheduler.spawn(tb.vmsh().attach_task(hvs[n].pid), label=f"attach-{n}")
        for n in (1, 2)
    ]
    io_data, *sessions = tb.scheduler.run(io_task, *attach_tasks)
    if io_data != b"\xa1" * (IO_SECTORS * SECTOR_SIZE):
        raise RuntimeError("phase-1 I/O returned wrong data")

    # Phase 1.5 (opt-in): a sixth VM snapshots + restores in place
    # between two ATTACH_STEPS, then the attach completes normally.
    if snapshot_mid_attach:
        hv5 = hvs[5]

        def interfere():
            snap = VmSnapshot.capture(hv5)      # silent core path
            snap.restore_into(hv5)

        mid = run_inline(
            _at_boundary(tb.vmsh().attach_task(hv5.pid), "load_library",
                         interfere),
            tb.clock,
        )
        sessions.append(mid)

    # Phase 2: a doomed attach rolls back while I/O and an agent-less
    # monitor watch keep flowing.
    monitor = GuestMonitor(tb.vmsh())
    monitor.attach(hvs[4])
    tb.host.faults.arm(
        FaultPlan(
            [FaultSpec("ioctl.KVM_IRQFD", occurrence=1, kind=PERMANENT)],
            label="obs-fleet",
        )
    )
    io2_task = tb.scheduler.spawn(_blk_io(disk, 0xB2), label="io-phase2")
    doomed = tb.scheduler.spawn(
        tb.vmsh().attach_task(hvs[3].pid), label="attach-doomed"
    )
    mon_task = tb.scheduler.spawn(
        monitor.watch_task(MONITOR_SAMPLES, MONITOR_INTERVAL_NS),
        label="monitor",
    )
    tb.scheduler.run_until_idle()
    tb.host.faults.disarm()
    if doomed.error is None:
        raise RuntimeError("doomed attach did not fail")
    if io2_task.result() != b"\xb2" * (IO_SECTORS * SECTOR_SIZE):
        raise RuntimeError("phase-2 I/O returned wrong data")
    if len(mon_task.result()) != MONITOR_SAMPLES:
        raise RuntimeError("monitor watch returned short")

    monitor.detach()
    for session in sessions + [neighbour]:
        session.detach()
    return tb
