"""Extensions beyond the paper's prototype: vm-exec device (§2.2
vision), seccomp-aware injection (§6.2 future work), and the guest
monitor (§2.3)."""

import pytest

from repro.errors import SeccompViolationError, VmshError
from repro.testbed import Testbed
from repro.units import MSEC
from repro.usecases.monitoring import GuestMonitor
from repro.virtio.vmexec import ExecResult


# -- vm-exec device -------------------------------------------------------------

@pytest.fixture()
def exec_session():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, exec_device=True)
    return tb, hv, session


def test_exec_runs_commands_in_overlay(exec_session):
    tb, hv, session = exec_session
    result = session.exec("echo hello")
    assert result.ok and result.output == "hello"
    result = session.exec(["cat", "/etc/os-release"])
    assert result.ok and "vmsh-overlay" in result.output


def test_exec_reaches_guest_root(exec_session):
    tb, hv, session = exec_session
    result = session.exec("cat /var/lib/vmsh/etc/hostname")
    assert result.output == "guest"


def test_exec_exit_codes(exec_session):
    tb, hv, session = exec_session
    assert session.exec("definitely-not-a-binary").exit_code == 127
    assert session.exec("cat /no/such/file").exit_code == 1
    assert session.exec("true").exit_code == 0


def test_exec_without_device_rejected():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)  # no exec device
    with pytest.raises(VmshError, match="exec_device"):
        session.exec("echo nope")


def test_exec_concurrent_with_console(exec_session):
    tb, hv, session = exec_session
    assert session.console.run_command("echo console").output == "console"
    assert session.exec("echo exec").output == "exec"
    assert session.console.run_command("echo console2").output == "console2"


def test_exec_device_in_guest_klog(exec_session):
    tb, hv, session = exec_session
    assert any("vmsh: exec device" in line for line in hv.guest.klog)


def test_exec_many_requests_recycle_buffers(exec_session):
    tb, hv, session = exec_session
    for i in range(20):
        assert session.exec(f"echo round{i}").output == f"round{i}"


def test_exec_output_is_cut_to_its_response_slot(exec_session):
    """A response is its 8-byte header plus output, and never spills
    past the guest's 16-page response slot."""
    tb, hv, session = exec_session
    driver = hv.guest.vmsh_exec
    driver.set_executor(lambda argv: ExecResult(0, "y" * 70_000))
    after_slot = driver._tx.slots[0] + 16 * 4096
    before = hv.guest.memory.read(after_slot, 8)
    result = session.exec("flood")
    assert result.ok and result.output == "y" * 65_528
    assert hv.guest.memory.read(after_slot, 8) == before


# -- seccomp-aware injection -----------------------------------------------------

def test_heuristic_attaches_with_vmsh_profile():
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=True, vmsh_seccomp_profile=True)
    session = tb.vmsh().attach(hv.pid, seccomp_aware=True)
    assert session.console.run_command("echo secure").output == "secure"
    # vCPU threads keep their strict filter throughout.
    vcpu_threads = [t for t in hv.process.threads if t.name.startswith("fc_vcpu")]
    assert all(
        t.seccomp_filter is not None and not t.seccomp_filter.allows("eventfd2")
        for t in vcpu_threads
    )


def test_heuristic_cannot_beat_fully_strict_profile():
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=True)
    with pytest.raises(SeccompViolationError):
        tb.vmsh().attach(hv.pid, seccomp_aware=True)


def test_profile_without_heuristic_still_blocked():
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=True, vmsh_seccomp_profile=True)
    with pytest.raises(SeccompViolationError):
        tb.vmsh().attach(hv.pid)


# -- guest monitor ---------------------------------------------------------------------

def test_monitor_samples_processes_and_fs():
    tb = Testbed()
    hv = tb.launch_qemu()
    monitor = GuestMonitor(tb.vmsh())
    monitor.attach(hv)
    sample = monitor.sample()
    assert sample.kernel.startswith("Linux")
    names = {p.name for p in sample.processes}
    assert "init" in names
    assert "/" in sample.filesystems
    monitor.detach()


def test_monitor_sees_containerised_workloads():
    from repro.guestos.process import GuestProcess

    tb = Testbed()
    hv = tb.launch_qemu()
    guest = hv.guest
    guest.processes.add(
        GuestProcess("webapp", guest.root_ns.clone(), pid_ns="container-1",
                     cgroup="/docker/web")
    )
    monitor = GuestMonitor(tb.vmsh())
    monitor.attach(hv)
    sample = monitor.sample()
    contained = sample.containerised_processes()
    assert any(p.name == "webapp" and p.cgroup == "/docker/web" for p in contained)


def test_monitor_watch_advances_time():
    tb = Testbed()
    hv = tb.launch_qemu()
    monitor = GuestMonitor(tb.vmsh())
    monitor.attach(hv)
    samples = monitor.watch(samples=3, interval_ns=5 * MSEC)
    assert len(samples) == 3
    assert samples[2].time_ns - samples[0].time_ns >= 10 * MSEC


def test_monitor_watch_task_matches_sync_watch():
    """The cooperative watch collects the same view as the sync one."""
    tb = Testbed()
    hv = tb.launch_qemu()
    monitor = GuestMonitor(tb.vmsh())
    monitor.attach(hv)
    task = tb.scheduler.spawn(
        monitor.watch_task(samples=3, interval_ns=5 * MSEC), label="watch"
    )
    samples = tb.scheduler.run(task)[0]
    assert len(samples) == 3
    assert all(s.kernel.startswith("Linux") for s in samples)
    assert all("/" in s.filesystems for s in samples)
    assert samples[2].time_ns - samples[0].time_ns >= 10 * MSEC
    # Each sample recorded a span carrying its span-id cursor window:
    # the spans and instants its exec round trips opened.
    spans = tb.obs.spans.find("monitor.sample", track="monitor")
    assert [s.attrs["sample"] for s in spans] == [0, 1, 2]
    assert all(s.end_ns is not None for s in spans)
    assert all(s.attrs["spans"] > 0 for s in spans)
    monitor.detach()


def test_exec_task_matches_sync_exec():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, exec_device=True)
    task = tb.scheduler.spawn(session.exec_task("echo hello"), label="exec")
    result = tb.scheduler.run(task)[0]
    assert result.ok and result.output == "hello"
    session.detach()


def test_monitor_requires_attach():
    tb = Testbed()
    monitor = GuestMonitor(tb.vmsh())
    with pytest.raises(VmshError, match="not attached"):
        monitor.sample()
