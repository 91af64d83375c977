"""Snapshot, restore, clone and migrate for running VMs.

The paper leaves open what happens to a VMSH session when its VM is
snapshotted or live-migrated (§7).  This module answers it for the
simulated stack, in three layers:

* :meth:`VmSnapshot.capture` — a *plain-data* image of everything that
  makes a VM's execution state: guest physical memory, vCPU register
  files, the memslot layout, device register + virtqueue state on both
  sides of every ring (device ``last_avail``/``used_idx``/EVENT_IDX
  words and posted heads, driver free-lists and in-flight chain
  windows),
  irqfd/ioeventfd/ioregionfd routes, and — when a VMSH session is
  attached — the overlay image bytes and session flags.

* :meth:`VmSnapshot.restore_into` — writes that state back *in place*,
  preserving object identity so every live reference (guest runtime,
  irq closures, accessors, gateways) stays valid.  Restore is silent:
  it charges no costs, bumps no counters and emits no spans, so a
  capture/restore round trip is bit-invisible to the metrics registry
  and the trace exports (the determinism acceptance criterion).  Cost
  accounting and observability happen in the Testbed entry points.

* :meth:`VmSnapshot.clone_into` — materializes a *new* VM from the
  snapshot's frozen image (the VM's object graph serialized once, at
  freeze): a fresh process (new pid/tids) on a chosen host, with irqfd
  callbacks re-armed against the clone, device interrupt closures
  rebound, and metrics re-homed under the new pid.  This is the
  substrate for the serverless snapshot pool and for
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

import io
import pickle
import types
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SnapshotError
from repro.kvm.memslots import Memslot
from repro.mem.physmem import PhysicalMemory
from repro.obs.metrics import MetricsRegistry
from repro.virtio.memio import AccessorStats

# ---------------------------------------------------------------------------
# Plain-data state fragments
# ---------------------------------------------------------------------------


@dataclass
class _RingState:
    """Device-side virtqueue indices (the EVENT_IDX protocol state) and
    the chains popped from the avail ring but not yet used."""

    last_avail: int
    used_idx: int
    used_event: Optional[int]
    posted: List[int]


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
    #: head -> (descriptor indices, token): the in-flight chains
    chain_heads: Dict[int, Any]


@dataclass
class _SessionState:
    detached: bool
    image_bytes: Optional[bytes]
    image_writable: Optional[bool]


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

    Host and KVM come first: migration swaps the destination's in at
    those two slots of an image's reference table.  The fabric each NIC
    port is on is environment too: an image never copies the other
    endpoints, and a clone plugs into the live fabric.
    """
    host = hv.host
    env = [host, hv.kvm, host.clock, host.costs, host.obs, host.arch,
           host.faults, host.obs.spans]
    if host.scheduler is not None:
        env.append(host.scheduler)
    fabrics = {id(port.fabric): port.fabric for port in hv.ports.values()}
    env.extend(fabrics.values())
    return env


def freeze_refusal(hv) -> Optional[str]:
    """Why ``hv`` cannot be frozen for cloning right now, or ``None``.

    A live VMSH session is host-local state a clone cannot carry: its
    ptrace link, or the device host answering its ioregionfd sockets.
    Detaching closes the session's socket ends, which leaves the VM's
    ioregions peerless.
    """
    if hv.process.tracer is not None:
        return "a ptrace-attached session"
    if any(region.socket.peer is not None for region in hv.vm.ioregions):
        return "a live ioregionfd session"
    return None


# ---------------------------------------------------------------------------
# Images: a VM graph serialized once, loaded once per clone
# ---------------------------------------------------------------------------

#: The types ``copy.deepcopy`` returns as-is (besides classes and
#: plain values): an image keeps them by reference too.  Closures are
#: among them, which is why ``_rebind_clone`` finds the stale ones by
#: identity.
_BY_REFERENCE_TYPES = frozenset((
    types.FunctionType, types.BuiltinFunctionType, types.CodeType,
    weakref.ref, property,
))

#: Exact types pickle saves by value without consulting
#: ``reducer_override``; no environment object may be one.
_PICKLED_BY_VALUE = (type(None), bool, int, float, str, bytes, bytearray,
                     dict, list, tuple, set, frozenset)


def _ref(index: int) -> Any:
    """The global an image names for an object kept by reference.

    Never called: :class:`_ImageLoader` resolves this name to its
    reference table's ``__getitem__``.
    """
    raise AssertionError("an image reference resolves through its loader")


class _ImageWriter(pickle.Pickler):
    """Serializes a VM graph, keeping what it does not own by reference.

    Kept by reference, as entries of :attr:`refs`: the environment
    (seeded first, in :func:`_environment_of` order), registry scope
    views (handles onto the one shared metrics tree), and every
    deepcopy atom — classes, functions, closures, builtins, weakrefs,
    code objects, properties.  Everything else is copied by value.
    """

    def __init__(self, buffer, environment: List[Any]) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        for obj in environment:
            assert type(obj) not in _PICKLED_BY_VALUE, type(obj)
        self.refs = list(environment)
        self._env = {id(obj): index for index, obj in enumerate(environment)}

    def reducer_override(self, obj: Any) -> Any:
        # Called once per object (pickle memoizes), never for the
        # _PICKLED_BY_VALUE types.
        index = self._env.get(id(obj))
        if index is None:
            if obj is _ref or not (
                type(obj) in _BY_REFERENCE_TYPES
                or isinstance(obj, (type, MetricsRegistry))
            ):
                return NotImplemented
            index = len(self.refs)
            self.refs.append(obj)
        return _ref, (index,)


class _ImageLoader(pickle.Unpickler):
    """Builds one clone from an image and its reference table."""

    def __init__(self, image: bytes, refs: List[Any]) -> None:
        super().__init__(io.BytesIO(image))
        self._refs = refs

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_ref":
            return self._refs.__getitem__
        return super().find_class(module, name)


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


def _guest_drivers(hv) -> Dict[str, Any]:
    """Every guest driver once, keyed by the first table that lists it.

    A sideloaded vmsh driver is both a platform device and a block,
    net or console device, and a detached session leaves its drivers
    behind in ``platform_devices``.
    """
    guest = hv.guest
    drivers: Dict[str, Any] = {}
    seen: set = set()
    for kind, table in (("blk", guest.block_devices),
                        ("net", guest.net_devices),
                        ("pdev", guest.platform_devices)):
        for name, driver in table.items():
            if id(driver) not in seen:
                seen.add(id(driver))
                drivers[f"{kind}:{name}"] = driver
    return drivers


def _driver_rings(hv) -> Dict[str, Any]:
    """Every DriverRing of every guest driver, found through its transport."""
    return {
        f"{key}/q{index}": ring
        for key, driver in _guest_drivers(hv).items()
        for index, ring in driver.transport.rings.items()
    }


def _capture_ring(ring) -> Optional[_RingState]:
    if ring is None:
        return None
    return _RingState(
        last_avail=ring._last_avail,
        used_idx=ring._used_idx,
        used_event=ring._used_event,
        posted=list(ring.posted),
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
            queue.ring.posted[:] = saved.ring.posted


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
        self.guest_phys_bump: int = 0
        self.guest_klog: List[str] = []
        self.guest_booted: bool = False
        self.guest_panicked: Optional[str] = None
        self.session: Optional[_SessionState] = None
        #: the VM graph serialized for clone()/migrate(), and the
        #: objects it keeps by reference; None when the snapshot was
        #: captured restore-only (freeze=False).  An image never leaves
        #: the process: only bytes this module wrote are ever loaded.
        self._image: Optional[bytes] = None
        self._refs: List[Any] = []

    # -- capture -----------------------------------------------------------------

    @classmethod
    def capture(cls, hv, session=None, freeze: bool = False,
                scheduler=None) -> "VmSnapshot":
        """Capture ``hv`` (and optionally its attached ``session``).

        Pure with respect to the simulation: no virtual time passes, no
        counters move.  ``freeze`` additionally serializes the object
        graph into an image so the snapshot can be cloned.  A live
        service task is quiesced for the duration and restarted on
        ``scheduler`` (defaults to the host's scheduler).
        """
        resume = quiesce(session)
        try:
            snap = cls()
            snap.flavor = hv.NAME
            snap.source_pid = hv.process.pid
            snap.taken_at_ns = hv.host.clock.now
            snap._capture_memory(hv)
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

    def _capture_memory(self, hv) -> None:
        for mapping in hv.process.address_space._mappings:
            if not isinstance(mapping.backing, PhysicalMemory):
                continue
            pages = {
                index: bytes(page)
                for index, page in mapping.backing._pages.items()
            }
            self.memory.append((mapping.name, mapping.backing.size, pages))

    @property
    def pages(self) -> int:
        """Guest pages captured."""
        return sum(len(pages) for _, _, pages in self.memory)

    def _freeze(self, hv) -> None:
        refusal = freeze_refusal(hv)
        if refusal is not None:
            raise SnapshotError(
                f"cannot freeze a VM with {refusal} — detach first, or "
                "migrate() with the detach/re-attach fallback"
            )
        buffer = io.BytesIO()
        writer = _ImageWriter(buffer, _environment_of(hv))
        writer.dump(hv)
        self._image = buffer.getvalue()
        self._refs = writer.refs

    @property
    def clonable(self) -> bool:
        return self._image is not None

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
        """Materialize a new VM from the frozen image on ``host``.

        The returned hypervisor is a fully independent VM: fresh
        pid/tids drawn from ``host``'s deterministic counters, its own
        guest RAM and disk image (copied from the snapshot), irqfd
        callbacks and device interrupt closures rebound to the clone's
        VmFd, and metrics re-homed under the new pid.
        """
        if self._image is None:
            raise SnapshotError(
                "snapshot was captured without freeze=True — no frozen "
                "image to clone from"
            )
        refs = self._refs
        if host is not refs[0]:
            # Cross-host materialization (migration): the destination's
            # host and KVM stand in for the source's.
            refs = [host, kvm, *refs[2:]]
        hv = _ImageLoader(self._image, refs).load()
        _rebind_clone(hv, host, kvm, source_pid=self.source_pid)
        return hv


def _rebind_clone(hv, host, kvm, source_pid: int) -> None:
    """Fix up a cloned VM graph so it lives on ``host`` as itself.

    An image rebinds bound methods to the copied objects but keeps
    plain closures by reference — so the irqfd wakeup callbacks and the
    device ``inject_irq`` closures still point at the *source* VmFd
    and must be rebuilt against the clone.  The fabric is kept by
    reference too, while the NIC ports were copied off it: each NIC
    gets a fresh port, and with it the fault checks of ``host``.
    """
    process = hv.process
    process.pid = next(host.pid_counter)
    for thread in process.threads:
        thread.tid = next(host.tid_counter)
    process.host = host
    host.processes[process.pid] = process
    # The fd table was copied but the environment files it holds
    # (/dev/kvm) were not: the clone takes its own reference on each.
    environment = {id(obj) for obj in _environment_of(hv)}
    for _fd, file in process.fds.items():
        if id(file) in environment:
            file.incref()

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

    # Each cloned NIC plugs into a fresh port on the live fabric, with a
    # MAC of its own, which its guest driver learns too.
    macs = {}
    for name, port in list(hv.ports.items()):
        fresh = port.fabric.attach(port.name)
        hv.plug_nic(name, fresh)
        macs[port.mac] = fresh.mac
    for driver in hv.guest.net_devices.values():
        driver.mac = macs.get(driver.mac, driver.mac)

    _rebind_metrics(hv, host)

    host.obs.instant(
        "vmm.cloned", track="vmm", name=hv.NAME, pid=process.pid, source=source_pid
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
        # A clone starts its memio accounting from zero under its pid.
        device.mem.stats = AccessorStats()
        hv.bind_memio(device.mem)
        device.bind_metrics()

    for driver in _guest_drivers(hv).values():
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
    hv.exit()
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
