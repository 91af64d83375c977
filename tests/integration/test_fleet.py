"""Fleet concurrency: interleaved attaches and multi-VM queue servicing.

The discrete-event scheduler turns what used to be strictly sequential
entry points into cooperating tasks: N attach pipelines advance step by
step in a seed-determined interleaving, and each attached session's
virtqueues drain one queue per scheduling turn — so two VMs' I/O makes
progress side by side instead of one monopolising the simulation.
"""

import pytest

from repro.errors import VmshError
from repro.sim.sched import SchedulerError
from repro.testbed import Testbed
from repro.units import MiB, SECTOR_SIZE


def _attach_with_service(tb, hv):
    session = tb.vmsh().attach(hv.pid)
    session.start_service(tb.scheduler)
    return session


# -- interleaved attaches ---------------------------------------------------------


def test_concurrent_attaches_complete_and_sessions_work():
    tb = Testbed()
    hvs = [tb.launch_qemu() for _ in range(3)]
    tasks = [
        tb.scheduler.spawn(tb.vmsh().attach_task(hv.pid), label=f"attach-{i}")
        for i, hv in enumerate(hvs)
    ]
    sessions = tb.scheduler.run(*tasks)
    assert len(sessions) == 3
    # Scheduler is idle again: sessions serve synchronously as before.
    for hv, session in zip(hvs, sessions):
        out = session.console.run_command("uname")
        assert "Linux" in out.output
        assert hv.guest.vmsh_overlay is not None
        session.detach()


def test_attach_steps_interleave_between_pipelines():
    tb = Testbed()
    hv_a, hv_b = tb.launch_qemu(), tb.launch_qemu()
    order = []

    def traced(vmsh, hv, name):
        gen = vmsh.attach_task(hv.pid)
        result = None
        while True:
            try:
                step = gen.send(result)
            except StopIteration as stop:
                return stop.value
            order.append((name, step))
            result = yield step

    task_a = tb.scheduler.spawn(traced(tb.vmsh(), hv_a, "a"), label="a")
    task_b = tb.scheduler.spawn(traced(tb.vmsh(), hv_b, "b"), label="b")
    tb.scheduler.run(task_a, task_b)
    names = [name for name, _ in order]
    assert set(names) == {"a", "b"}
    # Step boundaries really are yield points: neither pipeline runs
    # start-to-finish before the other gets a turn.
    first_b = names.index("b")
    assert "a" in names[first_b:]
    steps_a = [step for name, step in order if name == "a"]
    assert steps_a[0] == "discover" and steps_a[-1] == "drop_privileges"


# -- multi-VM queue servicing -----------------------------------------------------


def test_two_vm_block_io_interleaves():
    tb = Testbed()
    hv_a, hv_b = tb.launch_qemu(), tb.launch_qemu()
    session_a = _attach_with_service(tb, hv_a)
    session_b = _attach_with_service(tb, hv_b)
    disk_a = hv_a.guest.vmsh_block
    disk_b = hv_b.guest.vmsh_block
    progress = []

    def io(name, disk, fill):
        payload = bytes([fill]) * SECTOR_SIZE
        yield from disk.write_sectors_queued_task(
            [(i, payload) for i in range(8)]
        )
        progress.append((name, "wrote"))
        data = yield from disk.read_sectors_queued_task([(i, 1) for i in range(8)])
        progress.append((name, "read"))
        return b"".join(data)

    task_a = tb.scheduler.spawn(io("a", disk_a, 0xAA), label="io-a")
    task_b = tb.scheduler.spawn(io("b", disk_b, 0xBB), label="io-b")
    data_a, data_b = tb.scheduler.run(task_a, task_b)
    assert data_a == b"\xaa" * (8 * SECTOR_SIZE)
    assert data_b == b"\xbb" * (8 * SECTOR_SIZE)
    # Both VMs made progress in the same run; neither was starved
    # until the other finished.
    assert {name for name, _ in progress} == {"a", "b"}
    session_a.detach()
    session_b.detach()


def test_console_command_as_task_under_deferred_service():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = _attach_with_service(tb, hv)
    task = tb.scheduler.spawn(
        session.console.run_command_task("uname"), label="cmd"
    )
    (result,) = tb.scheduler.run(task)
    assert "Linux" in result.output
    session.detach()


def test_plain_command_under_deferred_service_raises():
    """With the device host on the scheduler and no loop running, the
    output can never arrive: a plain run_command must say so, not
    return an empty output."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = _attach_with_service(tb, hv)
    with pytest.raises(SchedulerError, match="console-wait"):
        session.console.run_command("echo hi")
    session.detach()


def test_plain_queued_io_under_deferred_service_raises_and_ends_its_span():
    """The same for a queued blk window: it raises, and its window span
    is ended rather than left open on the disk's track."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = _attach_with_service(tb, hv)
    with pytest.raises(SchedulerError, match="harvest"):
        hv.guest.vmsh_block.write_sectors_queued([(2048, b"\x5a" * 512)])
    assert tb.obs.spans.open_spans() == []
    session.detach()


def test_detach_restores_inline_servicing():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = _attach_with_service(tb, hv)
    session.detach()
    # After detach the device host is back to inline kicks: a second
    # session on the same guest works without any scheduler involved.
    session2 = tb.vmsh().attach(hv.pid)
    out = session2.console.run_command("uname")
    assert "Linux" in out.output
    session2.detach()


def test_service_task_rejects_double_start():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    session.start_service(tb.scheduler)
    with pytest.raises(VmshError):
        session.start_service(tb.scheduler)
    session.detach()


def test_blk_io_task_flows_while_attach_runs():
    """A neighbour's I/O is not paused by someone else's attach."""
    tb = Testbed()
    hv_a = tb.launch_qemu(disk=tb.nvme_partition(32 * MiB))
    hv_b = tb.launch_qemu()
    session_a = _attach_with_service(tb, hv_a)
    disk = hv_a.guest.vmsh_block

    def io():
        for i in range(6):
            data = yield from disk.read_sectors_queued_task([(i, 1)])
            assert len(data[0]) == SECTOR_SIZE
        return "io-done"

    io_task = tb.scheduler.spawn(io(), label="io")
    attach_task = tb.scheduler.spawn(
        tb.vmsh().attach_task(hv_b.pid), label="attach"
    )
    io_result, session_b = tb.scheduler.run(io_task, attach_task)
    assert io_result == "io-done"
    assert session_b.report.hypervisor_pid == hv_b.pid
    session_a.detach()
    session_b.detach()
