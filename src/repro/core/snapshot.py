"""Snapshot, restore, clone and migrate for running VMs.

The paper leaves open what happens to a VMSH session when its VM is
snapshotted or live-migrated (§7).  This module answers it for the
simulated stack, in three layers:

* :meth:`VmSnapshot.capture` — a *plain-data* image of everything that
  makes a VM's execution state: guest physical memory (copy-on-write
  against an optional base snapshot), vCPU register files, the memslot
  layout, device register + virtqueue state on both sides of every
  ring (device ``last_avail``/``used_idx``/EVENT_IDX words, driver
  free-lists and in-flight chain windows), irqfd/ioeventfd/ioregionfd
  routes, and — when a VMSH session is attached — the overlay image
  bytes and session flags.

* :meth:`VmSnapshot.restore_into` — writes that state back *in place*,
  preserving object identity so every live reference (guest runtime,
  irq closures, accessors, gateways) stays valid.  Restore is silent:
  it charges no costs, bumps no counters and emits no spans, so a
  capture/restore round trip is bit-invisible to the metrics registry
  and the trace exports (the determinism acceptance criterion).  Cost
  accounting and observability happen in the Testbed entry points.

* :meth:`VmSnapshot.clone_into` — materializes a *new* VM from the
  snapshot's frozen object graph: a fresh process (new pid/tids) on a
  chosen host, with irqfd callbacks re-armed against the clone, device
  interrupt closures rebound, and metrics re-homed under the new pid.
  This is the substrate for the serverless snapshot pool and for
  :func:`migrate_vm`.

Quiesce semantics: a live session's device-host service task is
stopped (draining its pending queue windows inline, in order) before
capture and restarted afterwards.  Page-table state needs no separate
journal replay on restore — the journaled PT words live in guest RAM,
so the page capture subsumes the PR 2 ``pt_journal``; what the journal
still buys is rollback of an attach *in progress*, which composes with
snapshots because both operate on the same RAM image.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SnapshotError
from repro.kvm.memslots import Memslot
from repro.mem.physmem import PhysicalMemory

# ---------------------------------------------------------------------------
# Plain-data state fragments
# ---------------------------------------------------------------------------


@dataclass
class _RingState:
    """Device-side virtqueue indices (the EVENT_IDX protocol state)."""

    last_avail: int
    used_idx: int
    used_event: Optional[int]


@dataclass
class _QueueState:
    num: int
    ready: bool
    desc_gpa: int
    avail_gpa: int
    used_gpa: int
    ring: Optional[_RingState]


@dataclass
class _DeviceState:
    """Register file + queues of one virtio-mmio device."""

    status: int
    driver_features: int
    interrupt_status: int
    queue_sel: int
    queues: List[_QueueState]


@dataclass
class _DriverRingState:
    """Guest-driver-side mirror of one virtqueue."""

    free: List[int]
    avail_idx: int
    last_used: int
    kicked_avail: int
    chain_heads: Dict[int, Any]


@dataclass
class _SessionState:
    detached: bool
    image_bytes: Optional[bytes]
    image_writable: Optional[bool]


@dataclass
class CowStats:
    """How much of the capture was shared against the base snapshot."""

    pages_total: int = 0
    pages_shared: int = 0

    @property
    def pages_copied(self) -> int:
        return self.pages_total - self.pages_shared


# ---------------------------------------------------------------------------
# Quiesce
# ---------------------------------------------------------------------------


def quiesce(session) -> Optional[Callable[[Any], None]]:
    """Drain a live session's service task; return a resume hook.

    Stopping the service task restores inline kicks and services every
    pending queue window in submission order — nothing in flight is
    lost, and afterwards the device host holds no queued work that a
    plain-data capture could not represent.  Returns ``None`` when
    there was nothing to stop, else a callable taking the scheduler to
    restart the task on.
    """
    if session is None:
        return None
    device_host = getattr(session, "device_host", None)
    if device_host is None:
        return None
    task = device_host._service_task
    if task is None or task.done:
        return None
    device_host.stop_service_task()

    def resume(scheduler) -> None:
        # The stopped generator may not have been dispatched to
        # completion yet; cancel it so start_service_task accepts.
        if device_host._service_task is not None:
            device_host._service_task.cancel()
            device_host._service_task = None
        device_host.start_service_task(scheduler)

    return resume


# ---------------------------------------------------------------------------
# Graph helpers shared by capture, clone and migrate
# ---------------------------------------------------------------------------


def _environment_of(hv) -> List[Any]:
    """The simulation singletons a VM graph references but never owns.

    The metrics tree is environment too, but needs no pin here: every
    registry scope view deepcopies to itself.
    """
    host = hv.host
    env = [host, hv.kvm, host.clock, host.costs, host.obs, host.arch,
           host.faults, host.obs.spans]
    if host.tracer is not None:
        env.append(host.tracer)
    if host.scheduler is not None:
        env.append(host.scheduler)
    return env


def _pin(objects) -> Dict[int, Any]:
    return {id(obj): obj for obj in objects}


def _device_map(hv, session) -> Dict[str, Any]:
    """Every virtio-mmio device around this VM, keyed for restore."""
    devices: Dict[str, Any] = {}
    for base, device in hv._mmio_devices.items():
        devices[f"vmm:{base:#x}"] = device
    device_host = getattr(session, "device_host", None) if session else None
    if device_host is not None:
        for base, device in device_host._windows.items():
            devices[f"vmsh:{base:#x}"] = device
    return devices


def _driver_rings(hv) -> Dict[str, Any]:
    """Guest-side DriverRing mirrors, keyed by the owning driver.

    ``guest.block_devices`` is a name->driver dict (and the sideloaded
    vmsh-blk driver appears there too, so rings are deduped by
    identity); the console driver carries two rings (rx/tx).
    """
    rings: Dict[str, Any] = {}
    guest = hv.guest
    seen: set = set()

    def add(key: str, ring) -> None:
        if ring is None or id(ring) in seen:
            return
        seen.add(id(ring))
        rings[key] = ring

    devices = getattr(guest, "block_devices", None) or {}
    for name, disk in devices.items():
        add(f"blk:{name}", getattr(disk, "ring", None))
    for attr in ("vmsh_block", "vmsh_exec"):
        add(attr, getattr(getattr(guest, attr, None), "ring", None))
    console = getattr(guest, "vmsh_console", None)
    add("vmsh_console.rx", getattr(console, "rx_ring", None))
    add("vmsh_console.tx", getattr(console, "tx_ring", None))
    return rings


def _driver_aux(hv) -> Dict[str, Any]:
    """Driver-side bookkeeping beyond the rings themselves.

    Maps a key to a *live* mutable container (dict or list) whose
    contents are snapshotted by shallow copy and restored in place —
    the values are plain ints/tuples, never object graphs.
    """
    aux: Dict[str, Any] = {}
    guest = hv.guest
    console = getattr(guest, "vmsh_console", None)
    chains = getattr(console, "_rx_chains", None)
    if chains is not None:
        aux["vmsh_console._rx_chains"] = chains
    devices = getattr(guest, "block_devices", None) or {}
    for name, disk in devices.items():
        pending = getattr(disk, "_pending_completions", None)
        if pending is not None:
            aux[f"blk:{name}._pending_completions"] = pending
    return aux


def _capture_ring(ring) -> Optional[_RingState]:
    if ring is None:
        return None
    return _RingState(
        last_avail=ring._last_avail,
        used_idx=ring._used_idx,
        used_event=ring._used_event,
    )


def _capture_device(device) -> _DeviceState:
    return _DeviceState(
        status=device.status,
        driver_features=device.driver_features,
        interrupt_status=device.interrupt_status,
        queue_sel=device._queue_sel,
        queues=[
            _QueueState(
                num=q.num, ready=q.ready, desc_gpa=q.desc_gpa,
                avail_gpa=q.avail_gpa, used_gpa=q.used_gpa,
                ring=_capture_ring(q.ring),
            )
            for q in device.queues
        ],
    )


def _restore_device(device, state: _DeviceState) -> None:
    device.status = state.status
    device.driver_features = state.driver_features
    device.interrupt_status = state.interrupt_status
    device._queue_sel = state.queue_sel
    for queue, saved in zip(device.queues, state.queues):
        queue.num = saved.num
        queue.ready = saved.ready
        queue.desc_gpa = saved.desc_gpa
        queue.avail_gpa = saved.avail_gpa
        queue.used_gpa = saved.used_gpa
        if saved.ring is None:
            queue.ring = None
        elif queue.ring is not None:
            # Identity-preserving: the device keeps its DeviceRing (and
            # its registry-bound counters); only the indices roll back.
            queue.ring._last_avail = saved.ring.last_avail
            queue.ring._used_idx = saved.ring.used_idx
            queue.ring._used_event = saved.ring.used_event


# ---------------------------------------------------------------------------
# The snapshot
# ---------------------------------------------------------------------------


class VmSnapshot:
    """A restorable (and optionally clonable) image of one VM."""

    def __init__(self) -> None:
        self.flavor: str = ""
        self.source_pid: int = 0
        self.taken_at_ns: int = 0
        #: per-mapping sparse page images: [(name, size, {index: bytes})]
        self.memory: List[Tuple[str, int, Dict[int, bytes]]] = []
        self.memslots: Tuple = ()
        self.vcpus: List[Tuple[Dict[str, int], Dict[str, int]]] = []
        self.irq_routes: Dict[int, Any] = {}
        self.irq_route_cbs: Dict[int, Any] = {}
        self.msi_routes: Dict[int, Any] = {}
        self.ioeventfds: List[Any] = []
        self.ioregions: List[Any] = []
        self.devices: Dict[str, _DeviceState] = {}
        self.driver_rings: Dict[str, _DriverRingState] = {}
        self.driver_aux: Dict[str, Any] = {}
        self.guest_phys_bump: int = 0
        self.guest_klog: List[str] = []
        self.guest_booted: bool = False
        self.guest_panicked: Optional[str] = None
        self.session: Optional[_SessionState] = None
        self.cow = CowStats()
        #: deepcopied object graph for clone()/migrate(); None when the
        #: snapshot was captured restore-only (freeze=False).
        self._frozen = None

    # -- capture -----------------------------------------------------------------

    @classmethod
    def capture(cls, hv, session=None, base: Optional["VmSnapshot"] = None,
                freeze: bool = False, scheduler=None) -> "VmSnapshot":
        """Capture ``hv`` (and optionally its attached ``session``).

        Pure with respect to the simulation: no virtual time passes, no
        counters move.  ``base`` enables copy-on-write page sharing;
        ``freeze`` additionally deep-freezes the object graph so the
        snapshot can be cloned.  A live service task is quiesced for
        the duration and restarted on ``scheduler`` (defaults to the
        host's scheduler).
        """
        resume = quiesce(session)
        try:
            snap = cls()
            snap.flavor = hv.NAME
            snap.source_pid = hv.process.pid
            snap.taken_at_ns = hv.host.clock.now
            snap._capture_memory(hv, base)
            vm = hv.vm
            snap.memslots = tuple(
                (s.slot, s.gpa, s.size, s.hva) for s in vm.memslots()
            )
            snap.vcpus = [(dict(v.regs), dict(v.sregs)) for v in vm.vcpus]
            snap.irq_routes = dict(vm.irq_routes)
            snap.irq_route_cbs = dict(vm._irq_route_cbs)
            snap.msi_routes = dict(vm._msi_routes)
            snap.ioeventfds = list(vm.ioeventfds)
            snap.ioregions = list(vm.ioregions)
            snap.devices = {
                key: _capture_device(device)
                for key, device in _device_map(hv, session).items()
            }
            snap.driver_rings = {
                key: _DriverRingState(
                    free=list(ring._free),
                    avail_idx=ring._avail_idx,
                    last_used=ring._last_used,
                    kicked_avail=ring._kicked_avail,
                    chain_heads=dict(ring._chain_heads),
                )
                for key, ring in _driver_rings(hv).items()
            }
            snap.driver_aux = {
                key: dict(live) if isinstance(live, dict) else list(live)
                for key, live in _driver_aux(hv).items()
            }
            guest = hv.guest
            snap.guest_phys_bump = guest._phys_bump
            snap.guest_klog = list(guest.klog)
            snap.guest_booted = guest.booted
            snap.guest_panicked = getattr(guest, "panicked", None)
            if session is not None:
                device_host = getattr(session, "device_host", None)
                backend = getattr(device_host, "backend", None)
                snap.session = _SessionState(
                    detached=session.detached,
                    image_bytes=(bytes(backend._data)
                                 if backend is not None else None),
                    image_writable=(backend.writable
                                    if backend is not None else None),
                )
                if device_host is not None and device_host._pending_kicks:
                    raise SnapshotError(
                        "device host still has pending queue windows after "
                        "quiesce — cannot capture a non-quiescent session"
                    )
            if freeze:
                snap._freeze(hv)
            return snap
        finally:
            if resume is not None:
                sched = scheduler if scheduler is not None else hv.host.scheduler
                if sched is None:
                    raise SnapshotError(
                        "quiesced a live service task but have no scheduler "
                        "to restart it on"
                    )
                resume(sched)

    def _capture_memory(self, hv, base: Optional["VmSnapshot"]) -> None:
        base_pages: Dict[int, Dict[int, bytes]] = {}
        if base is not None:
            base_pages = {i: pages for i, (_, _, pages) in enumerate(base.memory)}
        for index, mapping in enumerate(hv.process.address_space._mappings):
            if not isinstance(mapping.backing, PhysicalMemory):
                continue
            reference = base_pages.get(index, {})
            pages: Dict[int, bytes] = {}
            for page_index, page in mapping.backing._pages.items():
                self.cow.pages_total += 1
                shared = reference.get(page_index)
                if shared is not None and shared == page:
                    # Immutable bytes: share the base snapshot's page
                    # object instead of copying (the COW win).
                    pages[page_index] = shared
                    self.cow.pages_shared += 1
                else:
                    pages[page_index] = bytes(page)
            self.memory.append((mapping.name, mapping.backing.size, pages))

    def _freeze(self, hv) -> None:
        if hv.process.tracer is not None:
            raise SnapshotError(
                "cannot freeze a VM with a ptrace-attached session — "
                "detach first, or migrate() with the detach/re-attach "
                "fallback"
            )
        self._frozen = copy.deepcopy(hv, _pin(_environment_of(hv)))

    @property
    def clonable(self) -> bool:
        return self._frozen is not None

    # -- restore ----------------------------------------------------------------------

    def restore_into(self, hv, session=None, scheduler=None) -> None:
        """Overwrite ``hv``'s mutable state with the snapshot, in place.

        Every object keeps its identity — register dicts are updated,
        page stores refilled, ring indices rewound — so closures and
        cross-references built since boot stay valid.  irqfd routes
        added since the capture are deassigned and missing ones
        re-armed (without touching the assign/deassign counters: a
        round trip must be metrics-invisible).
        """
        if hv.NAME != self.flavor:
            raise SnapshotError(
                f"snapshot of {self.flavor!r} cannot restore a {hv.NAME!r} VM"
            )
        resume = quiesce(session)
        try:
            self._restore_memory(hv)
            vm = hv.vm
            vm._memslots._slots = [Memslot(*entry) for entry in self.memslots]
            if len(vm.vcpus) != len(self.vcpus):
                raise SnapshotError(
                    f"vCPU count changed: snapshot has {len(self.vcpus)}, "
                    f"VM has {len(vm.vcpus)}"
                )
            for vcpu, (regs, sregs) in zip(vm.vcpus, self.vcpus):
                vcpu.regs.clear()
                vcpu.regs.update(regs)
                vcpu.sregs.clear()
                vcpu.sregs.update(sregs)
            self._rearm_routes(vm)
            vm.ioeventfds[:] = list(self.ioeventfds)
            vm.ioregions[:] = list(self.ioregions)
            current_devices = _device_map(hv, session)
            for key, state in self.devices.items():
                device = current_devices.get(key)
                if device is not None:
                    _restore_device(device, state)
            current_rings = _driver_rings(hv)
            for key, state in self.driver_rings.items():
                ring = current_rings.get(key)
                if ring is None:
                    continue
                ring._free[:] = list(state.free)
                ring._avail_idx = state.avail_idx
                ring._last_used = state.last_used
                ring._kicked_avail = state.kicked_avail
                ring._chain_heads.clear()
                ring._chain_heads.update(state.chain_heads)
            current_aux = _driver_aux(hv)
            for key, saved in self.driver_aux.items():
                live = current_aux.get(key)
                if live is None:
                    continue
                if isinstance(live, dict):
                    live.clear()
                    live.update(saved)
                else:
                    live[:] = list(saved)
            guest = hv.guest
            guest._phys_bump = self.guest_phys_bump
            guest.klog[:] = list(self.guest_klog)
            guest.booted = self.guest_booted
            if self.guest_panicked is not None or hasattr(guest, "panicked"):
                guest.panicked = self.guest_panicked
            if session is not None and self.session is not None:
                session.detached = self.session.detached
                device_host = getattr(session, "device_host", None)
                backend = getattr(device_host, "backend", None)
                if backend is not None and self.session.image_bytes is not None:
                    backend._data[:] = self.session.image_bytes
                    backend.writable = bool(self.session.image_writable)
        finally:
            if resume is not None:
                sched = scheduler if scheduler is not None else hv.host.scheduler
                if sched is not None:
                    resume(sched)

    def _restore_memory(self, hv) -> None:
        mappings = [
            m for m in hv.process.address_space._mappings
            if isinstance(m.backing, PhysicalMemory)
        ]
        if len(mappings) != len(self.memory):
            raise SnapshotError(
                f"mapping layout changed: snapshot has {len(self.memory)} "
                f"physical mappings, process has {len(mappings)}"
            )
        for mapping, (name, size, pages) in zip(mappings, self.memory):
            if mapping.name != name or mapping.backing.size != size:
                raise SnapshotError(
                    f"mapping {mapping.name!r} no longer matches the "
                    f"snapshot's {name!r} ({size:#x} bytes)"
                )
            mapping.backing._pages.clear()
            for page_index, page in pages.items():
                mapping.backing._pages[page_index] = bytearray(page)

    def _rearm_routes(self, vm) -> None:
        """Reconcile irqfd routes with the snapshot, metrics-silently."""
        for gsi in [g for g in vm.irq_routes if g not in self.irq_routes]:
            eventfd = vm.irq_routes.pop(gsi)
            cb = vm._irq_route_cbs.pop(gsi, None)
            if cb is not None:
                eventfd.remove_signal(cb)
            eventfd.decref()
        for gsi, eventfd in self.irq_routes.items():
            if gsi in vm.irq_routes:
                continue
            cb = self.irq_route_cbs.get(gsi)
            if cb is None:
                cb = lambda gsi=gsi: vm.kernel.wakeup(  # noqa: E731
                    lambda gsi=gsi: vm.inject_irq(gsi), label=f"irqfd:gsi{gsi}"
                )
            vm.irq_routes[gsi] = eventfd
            vm._irq_route_cbs[gsi] = cb
            if cb not in eventfd._callbacks:
                eventfd.on_signal(cb)
            eventfd.incref()
        for message in [m for m in vm._msi_routes if m not in self.msi_routes]:
            eventfd, cb = vm._msi_routes.pop(message)
            eventfd.remove_signal(cb)
            eventfd.decref()
        for message, (eventfd, cb) in self.msi_routes.items():
            if message in vm._msi_routes:
                continue
            vm._msi_routes[message] = (eventfd, cb)
            if cb not in eventfd._callbacks:
                eventfd.on_signal(cb)
            eventfd.incref()

    # -- clone -------------------------------------------------------------------------

    def clone_into(self, host, kvm) -> Any:
        """Materialize a new VM from the frozen graph on ``host``.

        The returned hypervisor is a fully independent VM: fresh
        pid/tids drawn from ``host``'s deterministic counters, its own
        guest RAM and disk image (copied from the snapshot), irqfd
        callbacks and device interrupt closures rebound to the clone's
        VmFd, and metrics re-homed under the new pid.
        """
        if self._frozen is None:
            raise SnapshotError(
                "snapshot was captured without freeze=True — no frozen "
                "graph to clone from"
            )
        memo = _pin(_environment_of(self._frozen))
        source_host = self._frozen.host
        source_kvm = self._frozen.kvm
        if host is not source_host:
            # Cross-host materialization (migration): substitute the
            # destination environment for the source's while copying.
            memo[id(source_host)] = host
            memo[id(source_kvm)] = kvm
        hv = copy.deepcopy(self._frozen, memo)
        _rebind_clone(hv, host, kvm, source_pid=self.source_pid)
        return hv


def _rebind_clone(hv, host, kvm, source_pid: int) -> None:
    """Fix up a deepcopied VM graph so it lives on ``host`` as itself.

    deepcopy rebinds bound methods through the memo but copies plain
    closures by identity — so the irqfd wakeup callbacks and the
    device ``inject_irq`` closures still point at the *source* VmFd
    and must be rebuilt against the clone.
    """
    process = hv.process
    process.pid = next(host.pid_counter)
    for thread in process.threads:
        thread.tid = next(host.tid_counter)
    process.host = host
    host.processes[process.pid] = process

    vm = hv.vm
    kvm.vms.append(vm)

    # Re-arm irqfd routes: drop the source's callbacks (present in the
    # cloned eventfds by identity) and register clone-bound ones.
    for gsi, eventfd in list(vm.irq_routes.items()):
        stale = vm._irq_route_cbs.get(gsi)
        if stale is not None:
            eventfd.remove_signal(stale)
        cb = lambda gsi=gsi: vm.kernel.wakeup(  # noqa: E731
            lambda gsi=gsi: vm.inject_irq(gsi), label=f"irqfd:gsi{gsi}"
        )
        vm._irq_route_cbs[gsi] = cb
        eventfd.on_signal(cb)
    for message, (eventfd, stale) in list(vm._msi_routes.items()):
        eventfd.remove_signal(stale)
        cb = lambda message=message: vm.kernel.wakeup(  # noqa: E731
            lambda message=message: vm.inject_msi(message),
            label=f"irqfd:msi{message}",
        )
        vm._msi_routes[message] = (eventfd, cb)
        eventfd.on_signal(cb)

    # Device interrupt closures captured the source VmFd in _attach_blk.
    costs = host.costs
    for device in hv._mmio_devices.values():
        gsi = getattr(device, "gsi", None)
        if gsi is None:
            continue

        def inject_irq(gsi: int = gsi) -> None:
            costs.syscall()
            vm.inject_irq(gsi)

        device._irq_signal = inject_irq

    _rebind_metrics(hv, host)

    host.tracer.emit(
        "vmm", "cloned", name=hv.NAME, pid=process.pid, source=source_pid
    )


def _rebind_metrics(hv, host) -> None:
    """Re-home the clone's metric cells onto the live registry.

    Registry scope views are shared, but the Counter/Gauge/Histogram
    cells a VM graph caches were copied with it: detached cells no
    export sees.  Each holder re-resolves them to the series a fresh
    launch binds — per-pid series under the clone's new pid, and the
    pid-less device/driver series a second VM of the flavor shares.
    """
    pid = hv.process.pid
    registry = host.obs.metrics
    hv.vm.bind_metrics()

    hv.metrics = registry.scope("vm", vm=pid, flavor=hv.NAME)
    hv.metrics.gauge("vcpus").set(hv.vcpu_count)
    hv.metrics.gauge("ram_bytes").set(hv.ram_bytes)
    hv.metrics.counter("cloned").inc()

    for device in hv._mmio_devices.values():
        stats = device.mem.stats
        # A clone starts its memio accounting from zero under its pid.
        for name in stats.FIELDS:
            setattr(stats, name, 0)
        short = device.name.split("-blk-", 1)[-1]
        stats.bind(registry.scope("memio", role="vmm", vm=pid, device=short))
        device.bind_metrics()

    # Guest drivers, deduped by identity: a sideloaded vmsh driver (a
    # detached session leaves them behind) is both a platform device
    # and a block device.
    guest = hv.guest
    drivers = {
        id(driver): driver
        for table in (guest.block_devices, guest.net_devices,
                      guest.platform_devices)
        for driver in table.values()
    }
    for driver in drivers.values():
        if hasattr(driver, "bind_metrics"):     # the exec driver has none
            driver.bind_metrics()


# ---------------------------------------------------------------------------
# Migration
# ---------------------------------------------------------------------------


@dataclass
class MigrationResult:
    """Outcome of :func:`migrate_vm`."""

    hypervisor: Any
    session: Optional[Any]
    source_pid: int
    dest_pid: int
    reattached: bool = False
    #: why the detach/re-attach fallback ran (None for a plain move)
    fallback_reason: Optional[str] = None


def migrate_vm(hv, dst_host, dst_kvm, session=None,
               reattach: Optional[Callable[[int], Any]] = None) -> MigrationResult:
    """Move a running VM to another simulated host.

    The VM is quiesced, frozen and materialized on ``dst_host`` with
    fresh pids; the source process exits.  A live VMSH session cannot
    ride along — its ptrace link, injected fds and irqfd routes are
    host-kernel state the destination does not share — so the paper's
    open question is answered with the capability fallback: detach
    before the move, re-attach after (via ``reattach(new_pid)`` when
    provided).
    """
    source_pid = hv.process.pid
    fallback_reason = None
    if session is not None and not session.detached:
        fallback_reason = (
            "live VMSH session: ptrace link and injected fds are "
            "host-local — detach/re-attach fallback"
        )
        session.detach()
    snap = VmSnapshot.capture(hv, freeze=True)
    clone = snap.clone_into(dst_host, dst_kvm)
    hv.host.exit_process(source_pid)
    new_session = None
    reattached = False
    if fallback_reason is not None and reattach is not None:
        new_session = reattach(clone.process.pid)
        reattached = True
    return MigrationResult(
        hypervisor=clone,
        session=new_session,
        source_pid=source_pid,
        dest_pid=clone.process.pid,
        reattached=reattached,
        fallback_reason=fallback_reason,
    )
