"""Snapshot, restore, clone and migrate for running VMs.

The paper leaves open what happens to a VMSH session when its VM is
snapshotted or live-migrated (§7).  This module answers it for the
simulated stack with one description of a VM's state, its *image*:

* :meth:`VmSnapshot.capture` pickles ``(hv, session)`` once
  (:class:`_ImageWriter`): the VMM process, VmFd, vCPUs, devices and
  their rings, the guest kernel and guest RAM, and — when a VMSH
  session is passed — the session and its device host.  What the VM
  runs in, and what a restore must never rewind, stays by reference
  in the image's table.

* :meth:`VmSnapshot.restore_into` loads the image and writes each
  loaded object's state into the live object at the same place in the
  graph (:func:`_restore_by_place`): identities survive, objects made
  after the capture drop out, and what the live graph lost since comes
  back as the loaded copy.  Restore is silent: it charges no costs,
  bumps no counters and emits no spans, so a capture/restore round
  trip is bit-invisible to the metrics registry and the trace exports.
  Cost accounting and observability happen in the Testbed entry points.

* :meth:`VmSnapshot.clone_into` loads the same image as a *new* VM: a
  fresh process (new pid/tids) on a chosen host, with its NICs on fresh
  fabric ports and its metrics re-homed under the new pid.  This is the
  substrate for the serverless snapshot pool and for
  :func:`migrate_vm`.  A VM that a live VMSH session holds is captured
  for restore only (:func:`freeze_refusal`).

Quiesce semantics: a live session's device-host service task is
stopped (draining its pending queue windows inline, in order) before a
capture or restore and restarted afterwards.  Page-table state needs
no journal replay: the journaled PT words live in guest RAM, so the
image subsumes the attach's ``pt_journal``; what the journal still
buys is rollback of an attach *in progress*, which composes with
snapshots because both operate on the same RAM image.
"""

from __future__ import annotations

import functools
import io
import pickle
import types
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SnapshotError
from repro.host.process import Process
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim.sched import PeriodicTimer, Task, Timer
from repro.virtio.memio import AccessorStats

# ---------------------------------------------------------------------------
# Quiesce
# ---------------------------------------------------------------------------


def quiesce(session) -> Optional[Callable[[Any], None]]:
    """Drain a live session's service task; return a resume hook.

    Stopping the service task restores inline kicks and services every
    pending queue window in submission order — nothing in flight is
    lost, and afterwards the device host holds no queued work.  Returns
    ``None`` when there was nothing to stop, else a callable taking the
    scheduler to restart the task on.
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
        # completion yet; cancel it so start_service_task accepts.  A
        # restore may have put the captured task in its place.
        task.cancel()
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
    """Why ``hv`` cannot be captured for cloning right now, or ``None``.

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
# Images: a VM graph serialized once, loaded per restore or clone
# ---------------------------------------------------------------------------

#: The exact types an image keeps by reference: the deepcopy atoms
#: (classes, functions and closures, builtins, weakrefs, code objects,
#: properties), registry scope views (handles onto the one shared
#: metrics tree), what a restore must never rewind (metric cells and
#: accessor stats), what cannot be pickled (scheduler tasks and timers,
#: whose generators and callbacks belong to the running simulation; the
#: read-only overlay image that every session's blk backend shares), and
#: every host process but the VM's own (``_ImageWriter`` copies that one).
_BY_REFERENCE_TYPES = frozenset((
    types.FunctionType, types.BuiltinFunctionType, types.CodeType,
    weakref.ref, property, type, MetricsRegistry,
    Counter, Gauge, Histogram, AccessorStats,
    Task, Timer, PeriodicTimer, memoryview, Process,
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
    (seeded first, in :func:`_environment_of` order) and every object of
    an exact type in ``_BY_REFERENCE_TYPES`` but the VM's own process,
    ``own``.  Everything else is copied by value.
    """

    def __init__(self, buffer, environment: List[Any], own: Process) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        for obj in environment:
            assert type(obj) not in _PICKLED_BY_VALUE, type(obj)
        self.refs = list(environment)
        self._env = {id(obj): index for index, obj in enumerate(environment)}
        self._own = own

    def reducer_override(self, obj: Any) -> Any:
        # Called once per object (pickle memoizes), never for the
        # _PICKLED_BY_VALUE types.
        index = self._env.get(id(obj))
        if index is None:
            if (type(obj) not in _BY_REFERENCE_TYPES or obj is _ref
                    or obj is self._own):
                return NotImplemented
            index = len(self.refs)
            self.refs.append(obj)
        return _ref, (index,)


class _ImageLoader(pickle.Unpickler):
    """Builds one copy of an image's graph from its reference table."""

    def __init__(self, image: bytes, refs: List[Any]) -> None:
        super().__init__(io.BytesIO(image))
        self._refs = refs

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_ref":
            return self._refs.__getitem__
        return super().find_class(module, name)


# ---------------------------------------------------------------------------
# Restore by place
# ---------------------------------------------------------------------------

#: Immutable leaves: a restore takes the loaded value as it is.
_LEAVES = frozenset((type(None), bool, int, float, complex, str, bytes,
                     range))
#: Immutable holders of references: rebuilt around live partners.
_FROZEN = (tuple, frozenset, types.MethodType)
_CONTAINERS = (dict, list, set)
#: Buffers a restore refills in place.
_BUFFERS = (bytearray,)
_MISSING = object()


@functools.lru_cache(maxsize=None)
def _slots(kind) -> Tuple[str, ...]:
    names: List[str] = []
    for cls in kind.__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.extend((slots,) if isinstance(slots, str) else slots)
    return tuple(name for name in names
                 if name not in ("__dict__", "__weakref__"))


@functools.lru_cache(maxsize=None)
def _in_place(kind) -> bool:
    """Whether a restore writes a ``kind`` object's state into the live
    one: a mutable container or buffer, or an object whose state is its
    ``__dict__`` and slots.  Anything else (an ``itertools.count``) is
    replaced by its loaded copy."""
    return (kind in _CONTAINERS or kind in _BUFFERS
            or bool(kind.__dictoffset__ or _slots(kind)))


def _places(obj):
    """``(place, child)`` for each reference ``obj`` holds by place: an
    attribute or slot name, a dict key or a sequence index."""
    kind = type(obj)
    if kind is dict:
        return obj.items()
    if kind in (list, tuple):
        return enumerate(obj)
    if kind is types.MethodType:
        return (("__self__", obj.__self__),)
    if kind in (set, frozenset) or kind in _BUFFERS:
        return ()
    places = list(getattr(obj, "__dict__", {}).items())
    for slot in _slots(kind):
        value = getattr(obj, slot, _MISSING)
        if value is not _MISSING:
            places.append((slot, value))
    return places


def _at(obj, place) -> Any:
    """What ``obj`` holds at ``place``, or ``_MISSING``."""
    kind = type(obj)
    if kind is dict:
        return obj.get(place, _MISSING)
    if kind in (list, tuple):
        return obj[place] if place < len(obj) else _MISSING
    return getattr(obj, place, _MISSING)


def _restore_by_place(loaded, live, refs: List[Any]) -> None:
    """Write the loaded graph ``loaded`` into the live graph ``live``.

    First each loaded object is paired with the live object of its
    type at the same place, walking from the roots along pairs only,
    so an object shared between places keeps its live identity.  Then
    every loaded object the pairing did not reach is adopted: it joins
    the live graph as it is.  Last, each loaded object's state, with
    every reference to a paired object swapped for its live partner,
    is written into its partner, or into itself when adopted.  Objects
    in ``refs`` are live already and are neither walked nor written.
    """
    skip = {id(obj) for obj in refs}
    pairs: Dict[int, Any] = {}
    #: the live frozenset at each loaded frozenset's place
    frozen: Dict[int, frozenset] = {}
    claimed: set = set()
    visited: Dict[int, Any] = {}
    stack = [(loaded, live)]
    adopted = []
    while stack:
        old, new = stack.pop()
        kind = type(old)
        if kind in _LEAVES or id(old) in skip or id(old) in visited:
            continue
        if kind is not type(new) or id(new) in claimed:
            adopted.append(old)
            continue
        visited[id(old)] = old
        if _in_place(kind):
            pairs[id(old)] = new
            claimed.add(id(new))
        elif kind is frozenset:
            frozen[id(old)] = new
        elif kind not in _FROZEN:
            continue
        stack.extend((child, _at(new, place)) for place, child in _places(old))
    while adopted:
        old = adopted.pop()
        if type(old) in _LEAVES or id(old) in skip or id(old) in visited:
            continue
        visited[id(old)] = old
        adopted.extend(child for _, child in _places(old))

    rebuilt: Dict[int, Any] = {}

    def live_of(obj):
        partner = pairs.get(id(obj))
        if partner is not None:
            return partner
        kind = type(obj)
        if kind not in _FROZEN:
            return obj
        if id(obj) not in rebuilt:
            if kind is types.MethodType:
                owner = live_of(obj.__self__)
                rebuilt[id(obj)] = (obj if owner is obj.__self__ else
                                    types.MethodType(obj.__func__, owner))
            else:
                value = kind(live_of(item) for item in obj)
                # An equal live frozenset stays, iteration order and all.
                rebuilt[id(obj)] = (frozen[id(obj)]
                                    if frozen.get(id(obj)) == value else value)
        return rebuilt[id(obj)]

    for old in visited.values():
        if _in_place(type(old)):
            _write(old, pairs.get(id(old), old), live_of)


def _write(old, new, live_of) -> None:
    """Write ``old``'s state, through ``live_of``, into ``new``."""
    kind = type(old)
    if kind is dict:
        items = [(live_of(key), live_of(value)) for key, value in old.items()]
        new.clear()
        new.update(items)
    elif kind is list:
        new[:] = [live_of(item) for item in old]
    elif kind is set:
        items = {live_of(item) for item in old}
        if new != items:        # an equal live set keeps its order
            new.clear()
            new.update(items)
    elif kind in _BUFFERS:
        if new is not old:
            new[:] = old
    else:
        if kind.__dictoffset__:
            state = {name: live_of(value) for name, value in vars(old).items()}
            vars(new).clear()
            vars(new).update(state)
        for slot in _slots(kind):
            value = getattr(old, slot, _MISSING)
            if value is not _MISSING:
                setattr(new, slot, live_of(value))
            elif hasattr(new, slot):
                delattr(new, slot)


# ---------------------------------------------------------------------------
# The snapshot
# ---------------------------------------------------------------------------


class VmSnapshot:
    """A restorable (and, unless a live session held the VM, clonable)
    image of one VM.

    Holds the image bytes, its reference table and scalars; no live
    object of the VM.  An image never leaves the process: only bytes
    this module wrote are ever loaded.
    """

    def __init__(self) -> None:
        self.flavor: str = ""
        self.source_pid: int = 0
        self.taken_at_ns: int = 0
        #: guest pages captured
        self.pages: int = 0
        #: why the image cannot be cloned (``freeze_refusal``), or None
        self.clone_refusal: Optional[str] = None
        self._image: bytes = b""
        self._refs: List[Any] = []

    # -- capture -----------------------------------------------------------------

    @classmethod
    def capture(cls, hv, session=None, scheduler=None) -> "VmSnapshot":
        """Capture ``hv`` (and optionally its attached ``session``).

        Pure with respect to the simulation: no virtual time passes, no
        counters move.  A live service task is quiesced for the
        duration and restarted on ``scheduler`` (defaults to the host's
        scheduler).
        """
        resume = quiesce(session)
        try:
            snap = cls()
            snap.flavor = hv.NAME
            snap.source_pid = hv.process.pid
            snap.taken_at_ns = hv.host.clock.now
            snap.pages = sum(len(mapping.backing._pages)
                             for mapping in hv.process.address_space._mappings)
            snap.clone_refusal = freeze_refusal(hv)
            buffer = io.BytesIO()
            writer = _ImageWriter(buffer, _environment_of(hv), own=hv.process)
            writer.dump((hv, session))
            snap._image = buffer.getvalue()
            snap._refs = writer.refs
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

    @property
    def clonable(self) -> bool:
        return self.clone_refusal is None

    def _load(self, refs: Optional[List[Any]] = None):
        """A fresh copy of the captured ``(hv, session)``."""
        return _ImageLoader(self._image, refs or self._refs).load()

    # -- restore ----------------------------------------------------------------------

    def restore_into(self, hv, session=None, scheduler=None) -> None:
        """Rewind ``hv`` (and ``session``) to the snapshot, in place.

        ``hv`` must be the captured VM.  Every live object keeps its
        identity, so closures and cross-references built since boot stay
        valid; see :func:`_restore_by_place`.
        """
        if (hv.NAME, hv.process.pid) != (self.flavor, self.source_pid):
            raise SnapshotError(
                f"snapshot of {self.flavor!r} pid {self.source_pid} cannot "
                f"restore {hv.NAME!r} pid {hv.process.pid}: a restore rewinds "
                "the captured VM, clone_into() makes another"
            )
        resume = quiesce(session)
        try:
            _restore_by_place(self._load(), (hv, session), self._refs)
        finally:
            if resume is not None:
                sched = scheduler if scheduler is not None else hv.host.scheduler
                if sched is not None:
                    resume(sched)

    # -- clone -------------------------------------------------------------------------

    def clone_into(self, host, kvm) -> Any:
        """Materialize a new VM from the image on ``host``.

        The returned hypervisor is a fully independent VM: fresh
        pid/tids drawn from ``host``'s deterministic counters, its own
        guest RAM and disk image (copied from the snapshot), interrupts
        that signal its own VmFd, and metrics re-homed under the new
        pid.
        """
        if self.clone_refusal is not None:
            raise SnapshotError(
                f"cannot clone a VM captured with {self.clone_refusal} — "
                "detach first, or migrate() with the detach/re-attach fallback"
            )
        refs = self._refs
        if host is not refs[0]:
            # Cross-host materialization (migration): the destination's
            # host and KVM stand in for the source's.
            refs = [host, kvm, *refs[2:]]
        hv = self._load(refs)[0]
        _rebind_clone(hv, host, kvm, source_pid=self.source_pid)
        return hv



def _rebind_clone(hv, host, kvm, source_pid: int) -> None:
    """Fix up a cloned VM graph so it lives on ``host`` as itself.

    An image rebinds bound methods, irqfd wakeups and device interrupt
    lines to the copied objects.  What it keeps by reference needs
    fixing: the fabric is kept by reference while the NIC ports were
    copied off it, so each NIC gets a fresh port, and with it the fault
    checks of ``host``; and the metric cells are the source's.
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

    kvm.vms.append(hv.vm)

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


def _guest_drivers(hv) -> List[Any]:
    """Every guest driver once.

    A sideloaded vmsh driver is both a platform device and a block,
    net or console device, and a detached session leaves its drivers
    behind in ``platform_devices``.
    """
    guest = hv.guest
    drivers: Dict[int, Any] = {}
    for table in (guest.block_devices, guest.net_devices,
                  guest.platform_devices):
        for driver in table.values():
            drivers.setdefault(id(driver), driver)
    return list(drivers.values())


def _rebind_metrics(hv, host) -> None:
    """Re-home the clone's metric cells onto the live registry.

    An image keeps the Counter/Gauge/Histogram cells a VM graph caches
    by reference, so a loaded clone still counts into its source's
    series.  Each holder re-resolves them to the series a fresh launch
    binds — per-pid series under the clone's new pid, and the pid-less
    device/driver series a second VM of the flavor shares.
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

    for driver in _guest_drivers(hv):
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

    The VM is quiesced, captured and materialized on ``dst_host`` with
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
    snap = VmSnapshot.capture(hv)
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
