"""Hypervisor-specific quirk faults (§6.2 of the paper).

Two failure modes are not generic "the operation failed" faults but
behavioural quirks of specific deployments:

* Firecracker's per-thread seccomp filters kill the process on an
  injected syscall outside the allowlist (modelled as the
  ``seccomp.injected`` site with the ``seccomp_kill`` flavor);
* a host kernel without the ioregionfd patch (or Cloud Hypervisor's
  lack of the API) makes ``KVM_CHECK_EXTENSION`` deny ioregionfd
  (modelled as the non-raising ``quirk.ioregionfd_missing`` flag).
"""

import pytest

from repro.errors import SeccompViolationError
from repro.sim.faults import FaultPlan, FaultSpec, PERMANENT

from tests.chaos.conftest import (
    assert_restored,
    launch_flavor,
    snapshot_state,
)


def test_firecracker_seccomp_kill_rolls_back_cleanly():
    """A seccomp kill mid-pipeline is just another fault to unwind."""
    tb, hv, attach_kwargs = launch_flavor("firecracker")
    vmsh = tb.vmsh()
    before = snapshot_state(tb, hv, vmsh)
    plan = FaultPlan(
        [
            FaultSpec(
                site="seccomp.injected",
                occurrence=3,          # let the first injected calls through
                kind=PERMANENT,
                flavor="seccomp_kill",
            )
        ],
        label="fc-seccomp-kill",
    )
    with tb.host.faults.plan(plan):
        with pytest.raises(SeccompViolationError):
            vmsh.attach(hv.pid, **attach_kwargs)
    assert_restored(before, snapshot_state(tb, hv, vmsh))
    assert hv.guest.panicked is None
    session = vmsh.attach(hv.pid, **attach_kwargs)
    assert session.console.run_command("echo ok").output == "ok"


def test_seccomp_kill_is_not_retried():
    """Retries only help transient faults — a filter never heals."""
    tb, hv, attach_kwargs = launch_flavor("firecracker")
    vmsh = tb.vmsh()
    plan = FaultPlan(
        [FaultSpec(site="seccomp.injected", kind=PERMANENT, flavor="seccomp_kill")],
        label="fc-seccomp-kill",
    )
    with tb.host.faults.plan(plan):
        with pytest.raises(SeccompViolationError):
            vmsh.attach(hv.pid, retries=5, **attach_kwargs)
    assert tb.obs.spans.find("attach.retry") == []


def test_ioregionfd_missing_quirk_falls_back_to_wrap_syscall():
    """The patched-kernel probe is honest: when the quirk flag says the
    host lacks ioregionfd, attach degrades to the ptrace wrapper."""
    tb, hv, attach_kwargs = launch_flavor("qemu", ioregionfd=True)
    vmsh = tb.vmsh()
    plan = FaultPlan(
        [FaultSpec(site="quirk.ioregionfd_missing", kind=PERMANENT)],
        label="no-ioregionfd",
    )
    with tb.host.faults.plan(plan):
        session = vmsh.attach(hv.pid, **attach_kwargs)
        assert session.report.mmio_mode == "wrap_syscall"
        assert session._ptrace is not None and session._ptrace.attached
        assert session.console.run_command("echo degraded").output == "degraded"
        assert [f.site for f in tb.host.faults.fired] == [
            "quirk.ioregionfd_missing"
        ]
    session.detach()
    # Without the quirk the same testbed negotiates ioregionfd again.
    second = tb.vmsh().attach(hv.pid)
    assert second.report.mmio_mode == "ioregionfd"
