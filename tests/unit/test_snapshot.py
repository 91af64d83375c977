"""Snapshot/restore/clone/migrate units, plus the fleet-path bugfixes.

Covers the PR 6 tentpole (``repro.core.snapshot``) at the unit level:
in-place restore rolls back diverged guest state, clones are
independent VMs with rebound interrupt plumbing, migration moves a VM
(and its attached session, via the detach/re-attach fallback) across
simulated hosts — plus the serverless snapshot pool, requests that
wait for a boot or restore in progress, and the three satellite
bugfixes (mid-yield instance termination, instance reaping,
sector-torn backend writes), each request-loop test run through all
three cooperative entry points.
"""

import pickletools
import types

import pytest

from repro.core.snapshot import VmSnapshot, _environment_of
from repro.errors import (
    PermanentFaultError,
    SnapshotError,
    VirtioError,
    VmshError,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.sim.faults import PERMANENT, FaultPlan, FaultSpec
from repro.testbed import Testbed
from repro.units import MSEC, SEC, SECTOR_SIZE
from repro.usecases.fleet import FleetControlPlane
from repro.usecases.serverless import ServerlessDebugger, VHivePlatform
from repro.virtio.blk import MappedImageBackend
from repro.virtio.console import RX_QUEUE, VirtioConsoleDevice
from repro.virtio.constants import REG_STATUS
from repro.virtio.net import BROADCAST_MAC, make_frame


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


def test_restore_keeps_a_set_equal_to_its_captured_value_in_its_order():
    """A set or frozenset that equals its captured value after a
    restore is the live object still, so it iterates as before: a
    rebuilt frozenset or a refilled set can iterate in another order.
    Int hashes do not depend on the hash seed."""
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=False)
    init = hv.guest.processes.get(1)
    init.capabilities = frozenset(
        [104, 448, 504, 464, 31, 2752, 57, 53, 320, 2752, 44, 3840, 2496])
    init.seen = set()
    for item in (40, 232, 40, 14, 288, 6):
        init.seen.add(item)
    init.seen.discard(40)
    capabilities, seen = init.capabilities, init.seen
    orders = list(capabilities), list(seen)
    assert orders[1] == [288, 6, 232, 14]
    snap = VmSnapshot.capture(hv)
    snap.restore_into(hv)
    assert (list(init.capabilities), list(init.seen)) == orders
    assert init.capabilities is capabilities and init.seen is seen


def test_restore_rejects_flavor_mismatch():
    tb = Testbed()
    qemu = tb.launch_qemu()
    fc = tb.launch_firecracker(seccomp=False)
    snap = VmSnapshot.capture(qemu)
    with pytest.raises(SnapshotError, match="cannot restore"):
        snap.restore_into(fc)


def test_restored_nic_vm_keeps_moving_frames():
    """The NIC's driver rings are captured with the rest: traffic between
    capture and restore leaves neither direction wedged."""
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=False, nic=True)
    driver = hv.guest.net_devices["eth0"]
    device = hv.nics["net0"]
    got = []
    driver.on_receive(lambda frame, pair: got.append(frame))
    peer = b"\x02" * 6
    snap = tb.snapshot(hv)
    for n in range(3):
        driver.send(make_frame(BROADCAST_MAC, driver.mac, b"tx%d" % n))
        device.deliver(make_frame(driver.mac, peer, b"rx%d" % n))
    tb.restore(snap, hv)
    sent = device.frames_tx
    driver.send(make_frame(BROADCAST_MAC, driver.mac, b"after"))
    assert device.frames_tx == sent + 1
    # More frames than RX buffers: every buffer is posted once, intact.
    frames = [make_frame(driver.mac, peer, b"rx-after%d" % n)
              for n in range(driver.RX_BUFFER_COUNT + 8)]
    del got[:]
    for frame in frames:
        device.deliver(frame)
    assert got == frames


def test_restored_exec_session_keeps_answering():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, exec_device=True)
    snap = tb.snapshot(hv, session=session)
    for n in range(3):
        assert session.exec(["echo", f"x{n}"]).output == f"x{n}"
    tb.restore(snap, hv, session=session)
    for n in range(6):      # more requests than posted request buffers
        assert session.exec(["echo", f"after{n}"]).output == f"after{n}"
    session.detach()


def test_restore_reads_the_captured_guest_files_as_a_clone_does():
    """Guest state that lives outside guest RAM, such as the VFS, is
    rewound with the rest: a write after the capture is gone."""
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=False)
    captured = hv.guest.kernel_vfs.read_file("/etc/shadow")
    snap = tb.snapshot(hv)
    hv.guest.kernel_vfs.write_file("/etc/shadow", b"root:$6$after:19000::::::\n")
    tb.restore(snap, hv)
    assert hv.guest.kernel_vfs.read_file("/etc/shadow") == captured
    assert tb.clone(snap).guest.kernel_vfs.read_file("/etc/shadow") == captured


def test_restore_after_a_console_reset_keeps_the_console():
    """A driver reset after the capture drops the queue's ring; the
    restore brings it back, on the device's own accessor."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    device = next(d for d in session.device_host.devices()
                  if isinstance(d, VirtioConsoleDevice))
    snap = VmSnapshot.capture(hv, session=session)
    device.write_register(REG_STATUS, 0)
    snap.restore_into(hv, session=session)
    assert session.console.run_command("echo ok").output == "ok"
    session.detach()


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


def test_clone_plugs_its_nic_into_a_fresh_port():
    tb = Testbed()
    hv = tb.launch_qemu(nic=True)
    clone = tb.clone(tb.snapshot(hv))
    fabric = tb.fabric()
    device = clone.nics["net0"]
    driver = clone.guest.net_devices["eth0"]
    port = clone.ports["net0"]
    assert port is not hv.ports["net0"] and port.fabric is fabric
    assert device.mac == driver.mac == port.mac != hv.nics["net0"].mac
    assert device.config_space[:6] == port.mac
    # a frame to the clone's MAC reaches the clone's guest, not the source's
    got, source_got = [], []
    driver.on_receive(lambda frame, pair: got.append(frame))
    hv.guest.net_devices["eth0"].on_receive(
        lambda frame, pair: source_got.append(frame))
    peer = fabric.attach("peer")
    frame = make_frame(port.mac, peer.mac, b"to-the-clone")
    peer.transmit(frame)
    tb.scheduler.run_until_idle()
    assert (got, source_got) == ([frame], [])
    # its net.window spans sit on a track named by its own MAC
    driver.send(make_frame(BROADCAST_MAC, driver.mac, b"out"))
    (window,) = tb.obs.spans.find("net.window")
    assert window.track == f"net:eth0@{port.mac.hex(':')}"


def test_nic_vm_image_does_not_grow_with_the_fabric():
    """The fabric is environment: an image keeps it by reference and
    never copies the other endpoints plugged into it."""
    sizes = []
    for others in (0, 1, 4):
        tb = Testbed()
        for _ in range(others):
            tb.launch_firecracker(seccomp=False, nic=True)
        hv = tb.launch_firecracker(seccomp=False, nic=True)
        sizes.append(len(tb.snapshot(hv)._image))
    assert max(sizes) <= 1.01 * min(sizes), sizes


def test_clones_take_their_reference_on_dev_kvm():
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=False)
    snap = tb.snapshot(hv)
    before = tb.kvm._refs
    clones = [tb.clone(snap) for _ in range(3)]
    assert tb.kvm._refs == before + 3
    for clone in clones:
        clone.exit()
    assert tb.kvm._refs == before
    # A migrated VM holds the destination's /dev/kvm, not the source's.
    moved = tb.migrate(hv).hypervisor
    assert tb.kvm._refs == before - 1
    assert tb.hosts[moved.host]._refs == 1


def test_clone_requires_frozen_graph():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    snap = VmSnapshot.capture(hv, session=session)      # restore-only
    with pytest.raises(SnapshotError, match="cannot clone"):
        snap.clone_into(tb.host, tb.kvm)


def test_freeze_refuses_ptraced_vm():
    from repro.host.ptrace import attach as ptrace_attach

    tb = Testbed()
    hv = tb.launch_qemu()
    vmsh = tb.vmsh()
    ptrace = ptrace_attach(tb.host, vmsh.process, hv.process)
    with pytest.raises(SnapshotError, match="detach"):
        VmSnapshot.capture(hv).clone_into(tb.host, tb.kvm)
    ptrace.detach()
    assert VmSnapshot.capture(hv).clone_into(tb.host, tb.kvm) is not None


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


def test_restore_keeps_the_buffers_the_device_holds():
    """A restore rewinds each device ring's posted heads with its
    ``last_avail``: the console device holds exactly the RX buffers the
    driver has in flight, however often the VM is restored."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    device = next(d for d in session.device_host.devices()
                  if isinstance(d, VirtioConsoleDevice))
    driver = hv.guest.vmsh_console

    def held():
        heads = device.absorb_posted(RX_QUEUE)
        assert sorted(heads) == sorted(driver.rx_ring._chain_heads)
        return len(set(heads))

    snap = VmSnapshot.capture(hv, session=session)
    for n in range(3):
        session.console.run_command(f"echo {n}")
    snap.restore_into(hv, session=session)
    assert held() == driver.RX_BUFFER_COUNT
    for n in range(5):
        snap.restore_into(hv, session=session)
        assert session.console.run_command(f"echo r{n}").output == f"r{n}"
        assert held() == driver.RX_BUFFER_COUNT
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
    assert snap._load()[1] is not None          # the image holds the session
    device_host.stop_service_task()
    session.detach()


def test_freeze_refuses_a_live_ioregionfd_session():
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, mmio_mode="ioregionfd")
    session.start_service(tb.scheduler)
    assert hv.process.tracer is None            # no ptrace link to refuse on
    snap = tb.snapshot(hv, session=session)
    assert not snap.clonable                    # restore-only
    with pytest.raises(SnapshotError, match="live ioregionfd session"):
        tb.clone(snap)
    session.device_host.stop_service_task()
    session.detach()
    snap = tb.snapshot(hv, session=session)
    clone = tb.clone(snap)
    again = tb.vmsh().attach(clone.pid)
    assert again.console.run_command("echo ok").output == "ok"
    again.detach()


@pytest.mark.parametrize("mode, with_session", [
    ("ioregionfd", False), ("ioregionfd", True), ("wrap_syscall", True),
])
def test_a_session_capture_carries_no_overlay_image(mode, with_session):
    """The overlay image is shared read-only, so an image keeps it by
    reference: a capture that reaches the session's blk backend holds
    only the chunks the session wrote (none here), not 8 MiB of image."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid, mmio_mode=mode)
    snap = VmSnapshot.capture(hv, session=session if with_session else None)
    assert len(snap._image) < 512 * 1024
    session.detach()


def test_restore_rewinds_the_overlay_chunks_a_session_wrote():
    """A chunk written before the capture and overwritten after it
    reads its captured bytes after a restore; a chunk first written
    after the capture reads the shared image again."""
    tb = Testbed()
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    disk, backend = hv.guest.vmsh_block, session.device_host.backend
    per_chunk = backend.CHUNK // SECTOR_SIZE
    early = disk.capacity_sectors - 4 * per_chunk
    late = disk.capacity_sectors - 2 * per_chunk
    image_at_late = disk.read_sectors(late, 8)
    disk.write_sectors(early, b"\xaa" * 4096)
    snap = VmSnapshot.capture(hv, session=session)
    disk.write_sectors(early, b"\xbb" * 4096)
    disk.write_sectors(late, b"\xcc" * 4096)
    snap.restore_into(hv, session=session)
    assert disk.read_sectors(early, 8) == b"\xaa" * 4096
    assert disk.read_sectors(late, 8) == image_at_late
    assert late // per_chunk not in backend._chunks
    session.detach()


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


def test_migrated_nic_checks_the_fault_plans_of_its_new_host():
    tb = Testbed()
    hv = tb.launch_firecracker(seccomp=False, nic=True)
    moved = tb.migrate(hv).hypervisor
    # the source's port left the fabric as its process exited
    assert list(tb.fabric()._ports) == [moved.ports["net0"].mac]
    driver = moved.guest.net_devices["eth0"]
    frame = make_frame(BROADCAST_MAC, driver.mac, b"x" * 64)

    def tx_plan():
        return FaultPlan([FaultSpec("virtio.net_tx_ring", kind=PERMANENT)])

    tb.host.faults.arm(tx_plan())       # the host the VM left
    driver.send(frame)
    tb.host.faults.disarm()
    assert moved.nics["net0"].frames_tx == 1
    moved.host.faults.arm(tx_plan())    # the host the VM runs on
    with pytest.raises(PermanentFaultError):
        driver.send(frame)
    moved.host.faults.disarm()
    assert moved.nics["net0"].frames_tx == 1


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


# -- the three cooperative entry points ----------------------------------------------


def _platform_entry(tb, **kwargs):
    """``VHivePlatform.invoke_task``: the platform's own request loop."""
    platform = VHivePlatform(tb, **kwargs)
    return platform, platform.deploy, platform.invoke_task


def _fleet_entry(tb, **kwargs):
    """``FleetControlPlane.invoke_task`` on a one-shard fleet."""
    fleet = FleetControlPlane(tb, **kwargs)
    return fleet.shards[0].platform, fleet.deploy, fleet.invoke_task


def _fleet_over_entry(tb, **kwargs):
    """``FleetControlPlane.invoke_over_task`` with an execution leg that
    runs the handler where the other two entries do, so the logs match."""
    fleet = FleetControlPlane(tb, **kwargs)

    def invoke(name, payload):
        def execute(shard, instance):
            yield from ()
            return shard.platform._execute(instance, name, payload)

        return fleet.invoke_over_task(name, execute)

    return fleet.shards[0].platform, fleet.deploy, invoke


entry_points = pytest.mark.parametrize(
    "entry", [_platform_entry, _fleet_entry, _fleet_over_entry],
    ids=["platform", "fleet", "fleet-over"],
)


def _warn_lines(platform):
    return [l.message for l in platform.logs if l.level == "WARN"]


def _recording_handler(tb, ran):
    """A ``resize`` handler that notes when each width ran."""
    def handler(payload):
        ran[payload["width"]] = tb.clock.now
        return {"ok": payload["width"] * 2}

    return handler


def _two_requests_1ms_apart(tb, invoke_task):
    """Run a request for width 1 and, 1 ms later, one for width 2;
    returns the first one's arrival time."""
    t0 = tb.clock.now
    tasks = [tb.scheduler.spawn(invoke_task("resize", {"width": 1}))]
    tb.scheduler.after(MSEC, lambda: tasks.append(
        tb.scheduler.spawn(invoke_task("resize", {"width": 2}))))
    tb.scheduler.run_until_idle()
    assert [t.result() for t in tasks] == [{"ok": 2}, {"ok": 4}]
    return t0


@entry_points
def test_request_waits_for_a_restore_in_progress(entry):
    tb = Testbed()
    platform, deploy, invoke_task = entry(tb, snapshot_pool=True)
    ran = {}
    deploy("resize", _recording_handler(tb, ran))
    platform.invoke("resize", {"width": 0})     # boots and bakes the pool
    tb.clock.advance(3 * SEC)
    platform.scale_down()
    t0 = _two_requests_1ms_apart(tb, invoke_task)
    # The second request parks until the restore the first one started
    # has passed, then pays its own route: it never runs on a VM that
    # is still restoring, and it never starts a second restore.
    p = tb.costs.p
    assert ran[2] == ran[1] >= t0 + p.faas_snapshot_restore_ns + p.faas_route_ns
    assert tb.costs.count("faas_snapshot_restore") == 1
    assert tb.costs.count("faas_pool_hit") == 1
    assert len(platform.live_instances()) == 1


@entry_points
def test_request_waits_for_a_cold_boot_in_progress(entry):
    tb = Testbed()
    platform, deploy, invoke_task = entry(tb)
    ran = {}
    deploy("resize", _recording_handler(tb, ran))
    t0 = _two_requests_1ms_apart(tb, invoke_task)
    p = tb.costs.p
    assert ran[2] == ran[1] >= t0 + p.faas_cold_start_ns + p.faas_route_ns
    assert tb.costs.count("faas_cold_start") == 1
    assert tb.costs.count("faas_route") == 2
    assert len(platform.live_instances()) == 1


@entry_points
def test_request_parked_on_a_dying_boot_waits_for_the_next_one(entry):
    tb = Testbed()
    platform, deploy, invoke_task = entry(tb)
    ran = {}
    deploy("resize", _recording_handler(tb, ran))

    def saboteur():
        # Scales inst-1 down while it boots, with the second request
        # parked on it.
        instance = platform.live_instances()[0]
        instance.last_used_ns -= platform.IDLE_TIMEOUT_NS
        platform.scale_down()

    tb.scheduler.after(2 * MSEC, saboteur)
    t0 = _two_requests_1ms_apart(tb, invoke_task)
    # Both requests retry onto inst-2, which only the first one boots,
    # and both run once that boot has passed.
    p = tb.costs.p
    assert ran[2] == ran[1] >= t0 + 2 * p.faas_cold_start_ns + p.faas_route_ns
    assert tb.costs.count("faas_cold_start") == 2
    assert tb.costs.count("faas_invoke_retry") == 2
    assert _warn_lines(platform) == [
        "instance terminated mid-invoke; retrying resize (1/3)"
    ] * 2
    executed_on = [l.instance_id for l in platform.logs if "invoke ok" in l.message]
    assert executed_on == ["inst-2", "inst-2"]


# -- satellite: mid-yield termination retry ------------------------------------------


@entry_points
def test_invoke_task_retries_when_instance_dies_mid_yield(entry):
    tb = Testbed()
    platform, deploy, invoke_task = entry(tb)
    deploy("resize", lambda p: {"ok": p["width"] * 2})
    results = []

    def task():
        r = yield from invoke_task("resize", {"width": 3})
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
    assert _warn_lines(platform) == [
        "instance terminated mid-invoke; retrying resize (1/3)"
    ]
    executed_on = [l.instance_id for l in platform.logs if "invoke ok" in l.message]
    assert executed_on == ["inst-2"]
    assert not platform.instance("inst-2").terminated


@entry_points
def test_invoke_task_retries_when_warm_instance_dies_mid_route(entry):
    tb = Testbed()
    platform, deploy, invoke_task = entry(tb)
    deploy("resize", lambda p: {"ok": p["width"] * 2})
    results = []

    def task(width):
        r = yield from invoke_task("resize", {"width": width})
        results.append(r)

    tb.scheduler.run(tb.scheduler.spawn(task(1)))   # boots inst-1

    def saboteur():
        # Fires during the warm request's route yield.
        instance = platform.live_instances()[0]
        instance.last_used_ns -= platform.IDLE_TIMEOUT_NS
        platform.scale_down()

    spawned = tb.scheduler.spawn(task(3))
    tb.scheduler.after(MSEC, saboteur)
    tb.scheduler.run(spawned)
    assert results == [{"ok": 2}, {"ok": 6}]
    assert tb.costs.count("faas_cold_start") == 2
    assert tb.costs.count("faas_route") == 3
    assert tb.costs.count("faas_invoke_retry") == 1
    assert _warn_lines(platform) == [
        "instance terminated mid-invoke; retrying resize (1/3)"
    ]
    executed_on = [l.instance_id for l in platform.logs if "invoke ok" in l.message]
    assert executed_on == ["inst-1", "inst-2"]


@entry_points
def test_invoke_task_gives_up_after_max_retries(entry):
    tb = Testbed()
    platform, deploy, invoke_task = entry(tb)
    deploy("f", lambda p: p)
    platform.IDLE_TIMEOUT_NS = 50 * MSEC       # every cold boot outlives it
    platform.start_autoscaler(tb.scheduler, period_ns=60 * MSEC)
    results = []

    def task():
        r = yield from invoke_task("f", {})
        results.append(r)

    spawned = tb.scheduler.spawn(task())
    tb.scheduler.run(spawned)
    platform.stop_autoscaler()
    assert results == [None]                    # logged, not raised
    assert tb.costs.count("faas_invoke_retry") == platform.MAX_INVOKE_RETRIES + 1
    assert _warn_lines(platform) == [
        f"instance terminated mid-invoke; retrying f ({n}/3)" for n in (1, 2, 3)
    ]
    assert any("gave up invoking f after 3 mid-invoke terminations" in l.message
               for l in platform.logs)


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
        clone = tb.clone(tb.snapshot(hv))
        assert fresh and _vmm_memio_devices(tb, clone.pid) == fresh, kwargs
