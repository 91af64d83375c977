"""Snapshot/restore/clone/migrate units, plus the fleet-path bugfixes.

Covers the PR 6 tentpole (``repro.core.snapshot``) at the unit level:
in-place restore rolls back diverged guest state, clones are
independent VMs with rebound interrupt plumbing, migration moves a VM
(and its attached session, via the detach/re-attach fallback) across
simulated hosts — plus the serverless snapshot pool and the three
satellite bugfixes (mid-yield instance termination, instance reaping,
sector-torn backend writes).
"""

import pickletools
import types

import pytest

from repro.core.snapshot import VmSnapshot, _environment_of
from repro.errors import SnapshotError, VirtioError, VmshError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.testbed import Testbed
from repro.units import MSEC, SEC, SECTOR_SIZE
from repro.usecases.serverless import ServerlessDebugger, VHivePlatform
from repro.virtio.blk import MappedImageBackend


# -- capture / restore ----------------------------------------------------------------


def test_restore_rolls_back_guest_memory():
    tb = Testbed()
    hv = tb.launch_qemu()
    snap = VmSnapshot.capture(hv)
    mem = hv.vm.guest_memory()
    original = mem.read(hv.guest.cr3, 16)
    mem.write(hv.guest.cr3, b"\xde\xad\xbe\xef" * 4)
    snap.restore_into(hv)
    assert mem.read(hv.guest.cr3, 16) == original


def test_restore_rolls_back_vcpu_registers():
    tb = Testbed()
    hv = tb.launch_qemu()
    snap = VmSnapshot.capture(hv)
    vcpu = hv.vm.vcpus[0]
    saved = dict(vcpu.regs)
    ip = tb.arch.ip_register
    vcpu.regs[ip] = (vcpu.regs[ip] + 0x1000) & (2**64 - 1)
    snap.restore_into(hv)
    assert vcpu.regs == saved
    # identity preserved: the register dict object itself survives
    assert hv.vm.vcpus[0].regs is vcpu.regs


def test_restore_rolls_back_memslot_layout():
    tb = Testbed()
    hv = tb.launch_qemu()
    snap = VmSnapshot.capture(hv)
    before = [(s.slot, s.gpa, s.size, s.hva) for s in hv.vm.memslots()]
    free = hv.vm._memslots.free_slot_id()
    hv.vm._memslots.set_region(free, 0x8_0000_0000, 0x1000, 0x7F00DEAD0000)
    snap.restore_into(hv)
    assert [(s.slot, s.gpa, s.size, s.hva) for s in hv.vm.memslots()] == before


def test_restore_is_metrics_and_clock_silent():
    tb = Testbed()
    hv = tb.launch_qemu()
    now = tb.clock.now
    metrics = tb.obs.metrics_json()
    snap = VmSnapshot.capture(hv)
    snap.restore_into(hv)
    assert tb.clock.now == now
    assert tb.obs.metrics_json() == metrics


def test_restore_rejects_flavor_mismatch():
    tb = Testbed()
    qemu = tb.launch_qemu()
    fc = tb.launch_firecracker(seccomp=False)
    snap = VmSnapshot.capture(qemu)
    with pytest.raises(SnapshotError, match="cannot restore"):
        snap.restore_into(fc)


def test_cow_shares_unchanged_pages_against_base():
    tb = Testbed()
    hv = tb.launch_qemu()
    base = VmSnapshot.capture(hv)
    assert base.cow.pages_shared == 0          # nothing to share against
    second = VmSnapshot.capture(hv, base=base)
    assert second.cow.pages_total == base.cow.pages_total
    assert second.cow.pages_shared == second.cow.pages_total
    # Dirty one page: exactly that page is copied, the rest shared.
    hv.vm.guest_memory().write(hv.guest.cr3, b"\x01" * 8)
    third = VmSnapshot.capture(hv, base=base)
    assert third.cow.pages_copied >= 1
    assert third.cow.pages_shared == third.cow.pages_total - third.cow.pages_copied


# -- clone ---------------------------------------------------------------------------


def test_clone_is_an_independent_vm():
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=False)
    snap = tb.snapshot(hv)
    clone = tb.clone(snap)
    assert clone.pid != hv.pid
    assert clone.pid in tb.host.processes
    assert clone.vm in tb.kvm.vms
    # RAM is copied, not shared: dirtying the source leaves the clone alone.
    sentinel = clone.vm.guest_memory().read(clone.guest.cr3, 8)
    hv.vm.guest_memory().write(hv.guest.cr3, b"Z" * 8)
    assert clone.vm.guest_memory().read(clone.guest.cr3, 8) == sentinel


def test_clone_supports_vmsh_attach():
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=False)
    clone = tb.clone(tb.snapshot(hv))
    session = tb.vmsh().attach(clone.pid)
    out = session.console.run_command("ls /")
    assert "etc" in out.output
    session.detach()


def test_clone_requires_frozen_graph():
    tb = Testbed()
    hv = tb.launch_qemu()
    snap = VmSnapshot.capture(hv, freeze=False)
    with pytest.raises(SnapshotError, match="freeze"):
        snap.clone_into(tb.host, tb.kvm)


def test_freeze_refuses_ptraced_vm():
    from repro.host.ptrace import attach as ptrace_attach

    tb = Testbed()
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    ptrace = ptrace_attach(tb.host, vmsh.process, hv.process)
    with pytest.raises(SnapshotError, match="detach"):
        VmSnapshot.capture(hv, freeze=True)
    ptrace.detach()
    assert VmSnapshot.capture(hv, freeze=True) is not None


def test_snapshot_and_clone_charge_virtual_time():
    tb = Testbed()
    hv = tb.launch_qemu()
    t0 = tb.clock.now
    snap = tb.snapshot(hv)
    assert tb.clock.now - t0 == tb.costs.p.vm_snapshot_capture_ns
    assert tb.costs.count("vm_snapshot_capture") == 1
    t1 = tb.clock.now
    tb.clone(snap)
    assert tb.clock.now - t1 == tb.costs.p.vm_snapshot_restore_ns
    t2 = tb.clock.now
    tb.clone(snap, charge=False)
    assert tb.clock.now == t2


_ATOMS = (str, bytes, bytearray, memoryview, int, float, type(None), type,
          types.FunctionType, types.BuiltinFunctionType, types.ModuleType)


def _metric_cells(root, env):
    """Every metric cell reachable from ``root`` through attributes,
    containers and bound methods, without entering ``env`` objects,
    registry views (the shared tree) or closures."""
    stop = {id(obj) for obj in env}
    seen, cells, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in stop:
            continue
        seen.add(id(obj))
        if isinstance(obj, (Counter, Gauge, Histogram)):
            cells.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif not isinstance(obj, _ATOMS + (MetricsRegistry,)):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return cells


def test_clone_rehomes_device_and_driver_counters():
    tb = Testbed()
    hv = tb.launch_qemu(disk=tb.nvme_partition())
    # A detached session leaves its console and vmsh-blk guest drivers.
    tb.vmsh().attach(hv.pid).detach()
    clone = tb.clone(tb.snapshot(hv))
    requests = tb.obs.metrics.scope(
        "virtio", device=next(iter(clone._mmio_devices.values())).name
    ).counter("requests")
    before = requests.value
    disk = clone.guest.block_devices["vda"]
    for i in range(4):
        disk.write_sectors(8 * i, bytes([i + 1]) * 4096)
    assert requests.value == before + 4
    live = {id(metric) for metric in tb.obs.metrics._store.values()}
    cells = _metric_cells(clone, _environment_of(clone))
    # kvm, memio, vring, virtio device, blk and console driver cells
    assert {"vmexits", "reads", "used_publishes", "requests", "windows",
            "kicks"} <= {cell.name for cell in cells}
    detached = [(c.name, c.labels) for c in cells if id(c) not in live]
    assert detached == []


def _freeze_and_clone(others):
    """Freeze one VM of a fleet of ``others`` + 1, grow the fleet, clone."""
    tb = Testbed()
    for _ in range(others):
        tb.launch_firecracker(seccomp=False)
    hv = tb.launch_firecracker(seccomp=False)
    snap = tb.snapshot(hv)
    tb.launch_firecracker(seccomp=False)         # grows the registry
    clone = tb.clone(snap)
    return tb, hv, snap, clone


def _image_objects(image):
    """The objects an image serializes: pickle memoizes each one once,
    and a clone builds exactly these."""
    return sum(op.name == "MEMOIZE" for op, _, _ in pickletools.genops(image))


def test_clone_shares_the_metrics_tree_at_any_fleet_size():
    copied = {}
    for others in (2, 32):
        tb, hv, snap, clone = _freeze_and_clone(others)
        store = tb.obs.metrics._store
        by_reference = {id(obj) for obj in snap._refs}
        assert id(hv.metrics) in by_reference            # the view itself
        assert id(hv.vm.metrics) in by_reference
        assert clone.metrics._store is store
        assert clone.vm.metrics._store is store
        copied[others] = (len(snap._image), _image_objects(snap._image))
    assert copied[2] == copied[32]


# -- attached sessions --------------------------------------------------------------


def test_restore_with_attached_session_keeps_console_alive():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    snap = VmSnapshot.capture(hv, session=session)
    session.console.run_command("ls /var/lib/vmsh")
    snap.restore_into(hv, session=session)
    out = session.console.run_command("cat /var/lib/vmsh/etc/hostname")
    assert "guest" in out.output
    session.detach()


def test_detach_is_idempotent_after_restore():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    snap = VmSnapshot.capture(hv, session=session)
    snap.restore_into(hv, session=session)
    session.detach()
    session.detach()  # double detach: a no-op, not an error
    assert session.detached


def test_quiesce_drains_service_task():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    session.start_service(tb.scheduler)
    device_host = session.device_host
    assert device_host._service_task is not None
    snap = VmSnapshot.capture(hv, session=session, scheduler=tb.scheduler)
    # quiesce drained and the resume hook reinstalled a service task
    assert device_host._pending_kicks == []
    assert device_host._service_task is not None
    assert snap.session is not None
    device_host.stop_service_task()
    session.detach()


def test_freeze_refuses_a_live_ioregionfd_session():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, mmio_mode="ioregionfd")
    session.start_service(tb.scheduler)
    assert hv.process.tracer is None            # no ptrace link to refuse on
    snap = tb.snapshot(hv, session=session)
    assert not snap.clonable                    # auto: restore-only
    with pytest.raises(SnapshotError, match="live ioregionfd session"):
        tb.snapshot(hv, session=session, freeze=True)
    session.device_host.stop_service_task()
    session.detach()
    snap = tb.snapshot(hv, session=session, freeze=True)
    clone = tb.clone(snap)
    again = tb.vmsh().attach(clone.pid)
    assert again.console.run_command("echo ok").output == "ok"
    again.detach()


# -- migrate --------------------------------------------------------------------------


def test_migrate_moves_vm_to_second_host():
    tb = Testbed()
    hv = tb.launch_qemu()
    source_pid = hv.pid
    result = tb.migrate(hv)
    assert result.hypervisor.host is not tb.host
    assert result.hypervisor.host in tb.hosts
    assert tb.host.processes[source_pid].exited
    assert result.fallback_reason is None
    assert tb.costs.count("vm_migrate") == 1


def test_migrate_with_live_session_detaches_and_reattaches():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    result = tb.migrate(hv, session=session)
    assert result.reattached
    assert "detach/re-attach" in result.fallback_reason
    assert session.detached                     # old session torn down
    out = result.session.console.run_command("ls /")
    assert "etc" in out.output
    result.session.detach()


# -- serverless snapshot pool ---------------------------------------------------------


def _pool_platform():
    tb = Testbed()
    platform = VHivePlatform(tb, snapshot_pool=True)
    platform.deploy("resize", lambda p: {"ok": p["width"] * 2})
    return tb, platform


def test_pool_restores_instead_of_rebooting():
    tb, platform = _pool_platform()
    assert platform.invoke("resize", {"width": 2}) == {"ok": 4}
    tb.clock.advance(3 * SEC)
    platform.scale_down()
    assert platform.invoke("resize", {"width": 3}) == {"ok": 6}
    assert tb.costs.count("faas_cold_start") == 1        # only the first
    assert tb.costs.count("faas_snapshot_restore") == 1  # pool hit
    assert tb.costs.count("faas_pool_miss") == 1
    assert tb.costs.count("faas_pool_hit") == 1
    assert any("restored resize from snapshot pool" in l.message
               for l in platform.logs)


def test_pool_hit_is_at_least_5x_cheaper_than_cold_start():
    tb, platform = _pool_platform()
    t0 = tb.clock.now
    platform.invoke("resize", {"width": 1})
    cold_latency = tb.clock.now - t0
    tb.clock.advance(3 * SEC)
    platform.scale_down()
    t1 = tb.clock.now
    platform.invoke("resize", {"width": 2})
    restore_latency = tb.clock.now - t1
    # The acceptance criterion: a pool-served cold invocation is >= 5x
    # cheaper than faas_cold_start_ns (and than the real cold path).
    assert restore_latency * 5 <= tb.costs.p.faas_cold_start_ns
    assert restore_latency * 5 <= cold_latency


def test_pool_disabled_by_default_keeps_cold_start_semantics():
    tb = Testbed()
    platform = VHivePlatform(tb)
    platform.deploy("f", lambda p: p)
    platform.invoke("f", {})
    tb.clock.advance(3 * SEC)
    platform.scale_down()
    platform.invoke("f", {})
    assert tb.costs.count("faas_cold_start") == 2
    assert tb.costs.count("faas_snapshot_restore") == 0


def test_pool_task_invocations_charge_restore_cost():
    tb, platform = _pool_platform()
    platform.invoke("resize", {"width": 1})
    tb.clock.advance(3 * SEC)
    platform.scale_down()
    results = []

    def task():
        r = yield from platform.invoke_task("resize", {"width": 5})
        results.append(r)

    tb.scheduler.spawn(task())
    tb.scheduler.run_until_idle()
    assert results == [{"ok": 10}]
    assert tb.costs.count("faas_cold_start") == 1
    assert tb.costs.count("faas_snapshot_restore") == 1


# -- satellite: mid-yield termination retry ------------------------------------------


def test_invoke_task_retries_when_instance_dies_mid_yield():
    tb = Testbed()
    platform = VHivePlatform(tb)
    platform.deploy("resize", lambda p: {"ok": p["width"] * 2})
    results = []

    def task():
        r = yield from platform.invoke_task("resize", {"width": 3})
        results.append(r)

    def saboteur():
        # Fires during the cold-start yield: the instance the task
        # resolved is scaled down under it.
        instance = platform.live_instances()[0]
        instance.last_used_ns -= platform.IDLE_TIMEOUT_NS
        platform.scale_down()

    spawned = tb.scheduler.spawn(task())
    tb.scheduler.after(MSEC, saboteur)
    tb.scheduler.run(spawned)
    assert results == [{"ok": 6}]
    # The handler never ran on the terminated instance: a retry
    # re-acquired (and re-booted) a live one.
    assert tb.costs.count("faas_cold_start") == 2
    assert tb.costs.count("faas_invoke_retry") == 1
    assert any("terminated mid-invoke; retrying resize" in l.message
               for l in platform.logs)
    executed_on = [l.instance_id for l in platform.logs if "invoke ok" in l.message]
    assert executed_on == ["inst-2"]
    assert not platform.instance("inst-2").terminated


def test_invoke_task_gives_up_after_max_retries():
    tb = Testbed()
    platform = VHivePlatform(tb)
    platform.deploy("f", lambda p: p)
    platform.IDLE_TIMEOUT_NS = 50 * MSEC       # every cold boot outlives it
    platform.start_autoscaler(tb.scheduler, period_ns=60 * MSEC)
    results = []

    def task():
        r = yield from platform.invoke_task("f", {})
        results.append(r)

    spawned = tb.scheduler.spawn(task())
    tb.scheduler.run(spawned)
    platform.stop_autoscaler()
    assert results == [None]                    # logged, not raised
    assert tb.costs.count("faas_invoke_retry") == platform.MAX_INVOKE_RETRIES + 1
    assert any("gave up invoking f" in l.message for l in platform.logs)


# -- satellite: terminated-instance reaping -------------------------------------------


def test_scale_down_reaps_terminated_instances():
    tb = Testbed()
    platform = VHivePlatform(tb)
    platform.deploy("f", lambda p: p)
    platform.invoke("f", {})
    (instance_id,) = [i.instance_id for i in platform.live_instances()]
    tb.clock.advance(3 * SEC)
    assert platform.scale_down() == [instance_id]
    # Reaped from the scannable table, tombstone still resolvable.
    assert instance_id not in platform._instances
    tombstone = platform.instance(instance_id)
    assert tombstone.terminated
    assert tombstone.hypervisor is None         # VM graph released
    # Repeated churn never grows the live table.
    for _ in range(5):
        platform.invoke("f", {})
        tb.clock.advance(3 * SEC)
        platform.scale_down()
    assert len(platform._instances) == 0
    assert len(platform._retired) == 6


def test_debugger_too_late_still_works_after_reaping():
    tb = Testbed()
    platform = VHivePlatform(tb)
    platform.deploy("f", lambda p: p["missing"])
    platform.invoke("f", {})                    # logs the ERROR
    tb.clock.advance(3 * SEC)
    platform.scale_down()
    with pytest.raises(VmshError, match="scaled down"):
        ServerlessDebugger(platform).debug_shell()


# -- satellite: sector-aligned backend writes ----------------------------------------


def test_mapped_image_backend_rejects_torn_sector():
    backend = MappedImageBackend(CostModel(Clock()), bytes(4 * SECTOR_SIZE))
    with pytest.raises(VirtioError, match="not a sector multiple"):
        backend.write(0, b"torn")
    with pytest.raises(VirtioError, match="not a sector multiple"):
        backend.write(0, b"\x00" * (SECTOR_SIZE + 1))
    with pytest.raises(VirtioError, match="not a sector multiple"):
        backend.write(0, b"")
    backend.write(1, b"\xaa" * SECTOR_SIZE)     # aligned write is fine
    assert backend.read(1, 1) == b"\xaa" * SECTOR_SIZE


def test_raw_disk_backend_rejects_torn_sector():
    tb = Testbed()
    hv = tb.launch_qemu(disk=tb.nvme_partition())
    backend = next(d.backend for d in hv.devices() if hasattr(d, "backend"))
    with pytest.raises(VirtioError, match="not a sector multiple"):
        backend.write(0, b"short")
    backend.write(0, b"\xbb" * SECTOR_SIZE)
    assert backend.read(0, 1) == b"\xbb" * SECTOR_SIZE


def _vmm_memio_devices(tb, pid):
    """The ``device`` labels of the VMM memio series bound for ``pid``."""
    devices = set()
    for (_, _, labels), _ in tb.obs.metrics.scope("memio").walk():
        labels = dict(labels)
        if labels.get("role") == "vmm" and labels.get("vm") == str(pid):
            devices.add(labels["device"])
    return devices


def test_clone_binds_the_memio_labels_of_a_fresh_launch():
    tb = Testbed()
    for kwargs in ({"disk": tb.nvme_partition()}, {"nic": True}):
        hv = tb.launch_qemu(**kwargs)
        fresh = _vmm_memio_devices(tb, hv.pid)
        clone = tb.clone(tb.snapshot(hv, freeze=True))
        assert fresh and _vmm_memio_devices(tb, clone.pid) == fresh, kwargs
