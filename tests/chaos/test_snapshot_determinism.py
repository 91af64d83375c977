"""Snapshot/restore must be invisible to deterministic replay.

The PR 6 acceptance bar: restoring a VM — even one with a live
attached VMSH session, even mid-attach between two pipeline steps —
round-trips byte-identically.  A run that snapshots and restores on
the pinned seed must produce the same span stream (its Perfetto
export) and metrics registry as a twin run that never snapshotted, and the
serverless snapshot pool must replay exactly across same-seed runs.
"""

import pytest

from repro.core.snapshot import VmSnapshot
from repro.core.vmsh import ATTACH_STEPS
from repro.testbed import Testbed
from repro.units import SEC
from repro.usecases.serverless import VHivePlatform

from .conftest import MASTER_SEED, snapshot_state, assert_restored


def _drive(tb, gen, boundary=None, interfere=None):
    """Run an ``attach_task`` generator to completion, synchronously.

    String yields are step boundaries; int yields are timed sleeps
    (advanced inline, exactly as the sync ``attach`` would).  When the
    ``boundary`` step yields, ``interfere`` runs once — *between* two
    ATTACH_STEPS, which is the seam the snapshot has to survive.
    """
    y = gen.send(None)
    try:
        while True:
            if isinstance(y, int):
                tb.clock.advance(y)
            elif y == boundary and interfere is not None:
                interfere()
                interfere = None
            y = gen.send(None)
    except StopIteration as stop:
        return stop.value


def _attach_run(snapshot_at=None):
    """One attach on the pinned seed, optionally snapshotting
    (and immediately restoring) at the given step boundary."""
    tb = Testbed(seed=MASTER_SEED)
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()

    def interfere():
        snap = VmSnapshot.capture(hv)       # silent core path
        snap.restore_into(hv)

    session = _drive(
        tb, vmsh.attach_task(hv.pid),
        boundary=snapshot_at,
        interfere=interfere if snapshot_at is not None else None,
    )
    out = session.console.run_command("cat /var/lib/vmsh/etc/hostname").output
    return tb, hv, vmsh, session, out


@pytest.mark.parametrize("boundary", ["snoop_memslots", "load_library"])
def test_mid_attach_snapshot_restore_is_invisible(boundary):
    """Snapshot + restore between two ATTACH_STEPS changes nothing.

    ``snoop_memslots`` is before any device fds exist; ``load_library``
    is after irqfd routes, ioeventfds and the blob memslot are armed —
    the restore has to reconcile all of them back bit-identically.
    """
    assert boundary in ATTACH_STEPS
    base_tb, base_hv, base_vmsh, _, base_out = _attach_run(snapshot_at=None)
    snap_tb, snap_hv, snap_vmsh, _, snap_out = _attach_run(snapshot_at=boundary)
    assert snap_out == base_out == "guest"
    assert_restored(
        snapshot_state(base_tb, base_hv, base_vmsh),
        snapshot_state(snap_tb, snap_hv, snap_vmsh),
    )
    assert snap_tb.clock.now == base_tb.clock.now
    assert snap_tb.obs.metrics_json() == base_tb.obs.metrics_json()
    assert snap_tb.obs.perfetto_json() == base_tb.obs.perfetto_json()


def test_attached_session_roundtrip_is_byte_identical():
    """Capture+restore of a VM with a live session is a perfect no-op:
    a twin run that never snapshotted is indistinguishable."""

    def run(snapshot=False):
        tb = Testbed(seed=MASTER_SEED)
        hv = tb.launch_qemu()
        vmsh = tb.vmsh()
        session = vmsh.attach(hv.pid)
        if snapshot:
            snap = VmSnapshot.capture(hv, session=session)
            snap.restore_into(hv, session=session)
        out = session.console.run_command("ls /var/lib/vmsh").output
        return tb, hv, vmsh, out

    base_tb, base_hv, base_vmsh, base_out = run(snapshot=False)
    snap_tb, snap_hv, snap_vmsh, snap_out = run(snapshot=True)
    assert snap_out == base_out
    assert_restored(
        snapshot_state(base_tb, base_hv, base_vmsh),
        snapshot_state(snap_tb, snap_hv, snap_vmsh),
    )
    assert snap_tb.obs.metrics_json() == base_tb.obs.metrics_json()
    assert snap_tb.obs.perfetto_json() == base_tb.obs.perfetto_json()


def test_restore_rolls_back_attached_session_divergence():
    """Post-capture activity (console traffic, dirtied guest memory)
    is fully unwound; the session stays live afterwards."""
    tb = Testbed(seed=MASTER_SEED)
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    session = vmsh.attach(hv.pid)
    before = snapshot_state(tb, hv, vmsh)
    snap = VmSnapshot.capture(hv, session=session)
    session.console.run_command("ls /")
    session.console.run_command("cat /etc/os-release")
    hv.vm.guest_memory().write(hv.guest.cr3, b"\xff" * 32)
    snap.restore_into(hv, session=session)
    assert_restored(before, snapshot_state(tb, hv, vmsh))
    out = session.console.run_command("cat /var/lib/vmsh/etc/hostname")
    assert out.output == "guest"
    session.detach()


def test_detach_after_restore_is_idempotent():
    tb = Testbed(seed=MASTER_SEED)
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    snap = VmSnapshot.capture(hv, session=session)
    snap.restore_into(hv, session=session)
    session.detach()
    session.detach()                        # second detach: a no-op
    assert session.detached
    # A fresh attach to the restored VM still works.
    again = tb.vmsh().attach(hv.pid)
    assert "guest" in again.console.run_command(
        "cat /var/lib/vmsh/etc/hostname"
    ).output
    again.detach()


def test_snapshot_pool_fleet_replays_exactly():
    """Bake + clone + restore in the serverless pool is deterministic:
    two same-seed runs agree on every event, metric and timestamp."""

    def run():
        tb = Testbed(seed=MASTER_SEED)
        platform = VHivePlatform(tb, snapshot_pool=True)
        platform.deploy("resize", lambda p: {"ok": p["width"] * 2})
        outputs = [platform.invoke("resize", {"width": 2})]
        tb.clock.advance(3 * SEC)
        platform.scale_down()
        outputs.append(platform.invoke("resize", {"width": 3}))
        return tb, outputs

    tb_a, out_a = run()
    tb_b, out_b = run()
    assert out_a == out_b == [{"ok": 4}, {"ok": 6}]
    assert tb_a.clock.now == tb_b.clock.now
    assert tb_a.obs.metrics_json() == tb_b.obs.metrics_json()
    assert tb_a.obs.perfetto_json() == tb_b.obs.perfetto_json()
