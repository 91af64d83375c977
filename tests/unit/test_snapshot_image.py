"""A clone loaded from a snapshot image equals a deepcopy clone.

The reference is the mechanism images replaced: ``copy.deepcopy`` of
the source VM with its environment pinned and registry scope views and
metric cells kept, as an image keeps them, followed by ``_rebind_clone``.
Each clone is made in its own testbed with the same seed, so pids and
labels match.  The two clones are compared structurally — a walk of
the clone's object graph — and by behaviour: the same guest I/O must
give the same bytes, the same metrics and the same clock.
"""

import collections
import copy
import enum
import hashlib
import itertools
import mmap
import types
import weakref

import pytest

from repro.core.snapshot import _environment_of, _rebind_clone
from repro.guestos.fs import Filesystem
from repro.guestos.process import GuestProcess
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.testbed import Testbed
from repro.virtio.net import BROADCAST_MAC, make_frame

SEED = 0x564D5348

#: immutable values: compared by value, their identity carries nothing
_VALUES = (type(None), bool, int, float, complex, str, bytes, range)

#: process-wide id counters, which a testbed's seed does not reach:
#: restarted for each run so that both testbeds number alike
_GLOBAL_COUNTERS = ((Filesystem, "_fs_ids", 1), (GuestProcess, "_pid_counter", 2))

#: what both mechanisms keep by reference (``copy.deepcopy``'s atoms),
#: and the read-only overlay image a session's blk backend shares, which
#: an image keeps by reference and a deepcopy clone never reaches
_BY_REFERENCE = (types.FunctionType, types.BuiltinFunctionType,
                 types.CodeType, weakref.ref, property, type,
                 MetricsRegistry, memoryview)


def _is_value(obj):
    """Immutable, identity-free data.  deepcopy returns a tuple of
    values itself, an image load an equal new one."""
    if type(obj) in (tuple, frozenset):
        return all(_is_value(item) for item in obj)
    return type(obj) in _VALUES or isinstance(obj, enum.Enum)


def _describe(obj):
    """A testbed-independent name for an object kept by reference."""
    if isinstance(obj, MetricsRegistry):
        return ("view", obj.subsystem, obj._labels)
    if isinstance(obj, weakref.ref):
        return ("weakref", type(obj()).__qualname__)
    if isinstance(obj, memoryview):
        return ("memoryview", obj.nbytes, hashlib.sha256(obj).hexdigest())
    return (type(obj).__name__, getattr(obj, "__module__", None),
            getattr(obj, "__qualname__", None))


def _attributes(obj):
    attrs = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if slot not in ("__dict__", "__weakref__") and hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    return attrs


def _walk(root, registry, source_refs=None):
    """Fingerprint the object graph of the VM ``root``.

    Returns the fingerprint, the ids of the graph's own (copied)
    objects, and the position of each by-reference object in walk
    order.  The fingerprint lists, in breadth-first order, each copied
    object's type and contents.  A reference inside it is one of: a
    value; an environment slot; a metric cell live in ``registry``
    (its key); a by-reference object (its name, and its position
    among ``source_refs`` — the source graph's — when it is the very
    object the source holds); or the walk ordinal of another copied
    object, which captures the sharing topology.
    """
    env_slots = {id(obj): index for index, obj in enumerate(_environment_of(root))}
    cells = {id(metric): key for key, metric in registry._store.items()}
    ordinals, refs, records = {id(root): 0}, {}, []
    queue = collections.deque([root])

    def token(obj):
        if _is_value(obj):
            return ("value", type(obj).__qualname__, repr(obj))
        if id(obj) in env_slots:
            return ("env", env_slots[id(obj)])
        if id(obj) in cells:
            return ("cell", cells[id(obj)])
        if isinstance(obj, _BY_REFERENCE):
            refs.setdefault(id(obj), len(refs))
            where = None if source_refs is None else source_refs.get(id(obj))
            return ("ref", _describe(obj), where)
        if id(obj) not in ordinals:
            ordinals[id(obj)] = len(ordinals)
            queue.append(obj)
        return ("obj", ordinals[id(obj)])

    while queue:
        obj = queue.popleft()
        kind = type(obj).__qualname__
        if isinstance(obj, (bytearray, mmap.mmap)):
            body = hashlib.sha256(obj[:]).hexdigest()
        elif isinstance(obj, (set, frozenset)):
            assert all(_is_value(item) for item in obj), kind
            body = sorted(repr(item) for item in obj)
        elif isinstance(obj, dict):
            body = [(token(k), token(v)) for k, v in obj.items()]
        elif isinstance(obj, (list, tuple, collections.deque)):
            body = [token(item) for item in obj]
        elif isinstance(obj, types.MethodType):
            body = (obj.__func__.__qualname__, token(obj.__self__))
        elif _attributes(obj) or type(obj) is object:
            body = [(n, token(v)) for n, v in _attributes(obj).items()]
        else:                           # a C-level object, e.g. a counter
            body = repr(obj)
            assert " at 0x" not in body, f"opaque {kind}"
        if isinstance(obj, (dict, list)) and type(obj) not in (dict, list):
            body = (body, [(n, token(v)) for n, v in _attributes(obj).items()])
        records.append((kind, body))
    return records, set(ordinals), refs


def _reference_clone(tb, hv, monkeypatch):
    """The deepcopy clone images replaced, built in testbed ``tb``."""
    with monkeypatch.context() as patch:
        for kept in (MetricsRegistry, Counter, Gauge, Histogram):
            patch.setattr(kept, "__deepcopy__",
                          lambda obj, memo: obj, raising=False)
        memo = {id(obj): obj for obj in _environment_of(hv)}
        clone = copy.deepcopy(hv, memo)
    _rebind_clone(clone, tb.host, tb.kvm, source_pid=hv.pid)
    return clone


def _plain(tb):
    return tb.launch_qemu()


def _disk(tb):
    return tb.launch_qemu(disk=tb.nvme_partition())


def _leftover_drivers(tb):
    hv = tb.launch_qemu(disk=tb.nvme_partition())
    tb.vmsh().attach(hv.pid).detach()
    return hv


def _console(tb, clone, **attach):
    session = tb.vmsh().attach(clone.pid, **attach)
    out = session.console.run_command("echo ok").output
    session.detach()
    return out.encode()


def _blk(tb, clone):
    disk = clone.guest.block_devices["vda"]
    disk.write_sectors(8, bytes(range(256)) * 16)
    return disk.read_sectors(8, 8)


def _nic(tb, clone):
    nic = clone.guest.net_devices["eth0"]
    device = clone.nics["net0"]
    got = []
    nic.on_receive(lambda frame, pair: got.append(frame))
    device.deliver(make_frame(device.mac, b"\x02" * 6, b"in"))
    nic.send(make_frame(BROADCAST_MAC, nic.mac, b"out"))
    return b"".join(got)


CASES = {
    "qemu": ("x86_64", _plain, _console),
    "kvmtool": ("x86_64", lambda tb: tb.launch_kvmtool(), _console),
    "crosvm": ("x86_64", lambda tb: tb.launch_crosvm(), _console),
    "firecracker": ("x86_64", lambda tb: tb.launch_firecracker(seccomp=False),
                    _console),
    "cloud_hypervisor": ("x86_64", lambda tb: tb.launch_cloud_hypervisor(),
                         lambda tb, clone: _console(tb, clone, transport="pci")),
    "qemu-arm64": ("arm64", _plain, _console),
    "qemu-riscv64": ("riscv64", _plain, _console),
    "disk": ("x86_64", _disk, _blk),
    "nic": ("x86_64", lambda tb: tb.launch_qemu(nic=True), _nic),
    "leftover-drivers": ("x86_64", _leftover_drivers,
                         lambda tb, clone: _blk(tb, clone) + _console(tb, clone)),
}


def _run(case, make_clone, monkeypatch):
    """Launch the case's source VM in a fresh seeded testbed, freeze it,
    clone it with ``make_clone`` and drive the clone."""
    arch, launch, drive = CASES[case]
    for cls, name, start in _GLOBAL_COUNTERS:
        monkeypatch.setattr(cls, name, itertools.count(start))
    tb = Testbed(arch=arch, seed=SEED)
    for _ in range(2):
        tb.launch_firecracker(seccomp=False) if arch == "x86_64" else tb.launch_qemu()
    hv = launch(tb)
    snap = tb.snapshot(hv)
    clone = make_clone(tb, hv, snap)
    registry = tb.obs.metrics
    source_records, source_ids, source_refs = _walk(hv, registry)
    records, ids, _ = _walk(clone, registry, source_refs)
    assert not ids & source_ids, "a clone shares a copied object with its source"
    after_clone = (tb.clock.now, tb.obs.metrics_json())
    output = drive(tb, clone)
    return {
        "records": records,
        "source_records": source_records,
        "after_clone": after_clone,
        "output": output,
        "after_drive": (tb.clock.now, tb.obs.metrics_json()),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_image_clone_equals_deepcopy_clone(case, monkeypatch):
    image = _run(case, lambda tb, hv, snap: snap.clone_into(tb.host, tb.kvm),
                 monkeypatch)
    reference = _run(
        case, lambda tb, hv, snap: _reference_clone(tb, hv, monkeypatch),
        monkeypatch,
    )
    assert image["source_records"] == reference["source_records"]
    assert len(image["records"]) == len(reference["records"])
    for ours, theirs in zip(image["records"], reference["records"]):
        assert ours == theirs
    assert image["after_clone"] == reference["after_clone"]
    assert image["output"] and image["output"] == reference["output"]
    assert image["after_drive"] == reference["after_drive"]
