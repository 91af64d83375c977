"""Restore oracles: a restored VM is the VM its snapshot captured.

A snapshot is one image, which both ``restore_into`` and ``clone_into``
load.  So after any guest activity between capture and restore, the
restored source and a clone of the same snapshot must answer a fixed
probe with the same bytes; the object graph a restore leaves must be
the one the capture saw; a snapshot must not keep its VM alive; and an
object that a restore brings back joins the live graph, not a copy of
it.
"""

import gc
import importlib.util
import pathlib
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.snapshot import VmSnapshot
from repro.testbed import Testbed
from repro.virtio.console import VirtioConsoleDevice
from repro.virtio.constants import REG_STATUS
from repro.virtio.net import make_frame

SEED = 0x564D5348

_spec = importlib.util.spec_from_file_location(
    "snapshot_image_walk",
    pathlib.Path(__file__).resolve().parents[1] / "unit" / "test_snapshot_image.py",
)
_image_tests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_image_tests)
_walk = _image_tests._walk

FILES = ("/etc/shadow", "/etc/hostname", "/tmp/note", "/root/.profile")
PEER_MAC = b"\x02\x00\x00\x00\x00\x01"
VM_MAC = b"\x00" * 6        # what a probe writes for the VM's own MAC


def _launch(kind, tb):
    if kind == "firecracker-nic":
        return tb.launch_firecracker(seccomp=False, nic=True)
    return tb.launch_qemu(disk=tb.nvme_partition())


def _reset_driver(hv):
    """The guest driver of the VMM's device resets it (status 0)."""
    guest = hv.guest
    driver = (guest.net_devices.get("eth0")
              or guest.block_devices.get("vda"))
    driver.transport.write32(REG_STATUS, 0)


def _apply(hv, op):
    guest = hv.guest
    vfs = guest.kernel_vfs
    kind = op[0]
    if kind == "write":
        vfs.write_file(op[1], op[2])
    elif kind == "unlink":
        if vfs.exists(op[1]):
            vfs.unlink(op[1])
    elif kind == "spawn":
        guest.exec_user("/bin/sh")
    elif kind == "blk":
        guest.block_devices["vda"].write_sectors(8 * op[1], bytes([op[2]]) * 4096)
    elif kind == "tx":
        driver = guest.net_devices["eth0"]
        driver.send(make_frame(b"\x02\x00\x00\x00\x00\x09", driver.mac, op[1]))
    elif kind == "rx":
        device = hv.nics["net0"]
        device.deliver(make_frame(device.mac, PEER_MAC, op[1]))


def _normalized(frame, mac):
    return frame.replace(mac, VM_MAC)


def _probe(tb, hv, peer):
    """One fixed workload; its answers with the VM's MAC normalized."""
    guest = hv.guest
    vfs = guest.kernel_vfs
    answers = [
        [vfs.read_file(path) if vfs.exists(path) else None for path in FILES],
        guest.exec_user("/bin/sh"),
        [(process.pid, process.name) for process in guest.processes.alive()],
    ]
    if "vda" in guest.block_devices:
        disk = guest.block_devices["vda"]
        disk.write_sectors(8 * 20, bytes(range(256)) * 16)
        answers.append([disk.read_sectors(8 * k, 8) for k in (0, 1, 2, 3, 20)])
    if "eth0" in guest.net_devices:
        driver = guest.net_devices["eth0"]
        mac = hv.nics["net0"].mac
        received, sent = [], []
        driver.on_receive(lambda frame, pair: received.append(frame))
        peer.connect(sent.append)
        for n in range(3):
            driver.send(make_frame(PEER_MAC, mac, b"probe-tx%d" % n))
            peer.transmit(make_frame(mac, PEER_MAC, b"probe-rx%d" % n))
            tb.scheduler.run_until_idle()
        answers.append([_normalized(f, mac) for f in sent])
        answers.append([_normalized(f, mac) for f in received])
    return answers


_COMMON = [
    st.tuples(st.just("write"), st.sampled_from(FILES), st.binary(max_size=48)),
    st.tuples(st.just("unlink"), st.sampled_from(FILES)),
    st.tuples(st.just("spawn")),
]
OPS = {
    "firecracker-nic": st.lists(st.one_of(
        *_COMMON,
        st.tuples(st.just("tx"), st.binary(min_size=1, max_size=32)),
        st.tuples(st.just("rx"), st.binary(min_size=1, max_size=32)),
    ), max_size=8),
    "qemu-disk": st.lists(st.one_of(
        *_COMMON,
        st.tuples(st.just("blk"), st.integers(0, 3), st.integers(0, 255)),
    ), max_size=8),
}


@pytest.mark.parametrize("kind", sorted(OPS))
def test_restored_vm_answers_like_a_clone_of_its_snapshot(kind):
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS[kind], reset=st.booleans())
    def check(ops, reset):
        tb = Testbed(seed=SEED)
        hv = _launch(kind, tb)
        snap = tb.snapshot(hv)
        for op in ops:
            _apply(hv, op)
        if reset:
            _reset_driver(hv)
        tb.scheduler.run_until_idle()
        tb.restore(snap, hv)
        clone = tb.clone(snap)
        peer = tb.fabric().attach("peer", mac=PEER_MAC)
        restored = _probe(tb, hv, peer)
        assert restored == _probe(tb, clone, peer)

    check()


def _console_session(tb):
    hv = tb.launch_qemu()
    session = tb.vmsh().attach(hv.pid)
    device = next(d for d in session.device_host.devices()
                  if isinstance(d, VirtioConsoleDevice))
    return hv, session, device


def test_restore_gives_back_the_captured_object_graph():
    """The fingerprint of a session-attached VM after console traffic
    and a console reset, then a restore, is the one at capture."""
    tb = Testbed(seed=SEED)
    hv, session, device = _console_session(tb)
    session.console.run_command("echo before")
    captured, _, _ = _walk(hv, tb.obs.metrics)
    snap = VmSnapshot.capture(hv, session=session)
    for n in range(3):
        session.console.run_command(f"echo {n}")
    device.write_register(REG_STATUS, 0)
    snap.restore_into(hv, session=session)
    restored, _, _ = _walk(hv, tb.obs.metrics)
    assert restored == captured
    session.detach()


def test_a_restored_ring_runs_on_the_devices_own_accessor():
    """A ring a reset dropped comes back joined to the live graph: the
    device and its accessor keep their identities, and the ring reads
    guest memory through the device's ``mem``."""
    tb = Testbed(seed=SEED)
    hv, session, device = _console_session(tb)
    mem = device.mem
    snap = VmSnapshot.capture(hv, session=session)
    device.write_register(REG_STATUS, 0)
    assert device.queues[0].ring is None
    snap.restore_into(hv, session=session)
    ring = device.queues[0].ring
    assert ring is not None and ring._mem is mem is device.mem
    assert device in session.device_host.devices()
    session.detach()


def _detached_session_vm(tb):
    hv = tb.launch_qemu(disk=tb.nvme_partition())
    tb.vmsh().attach(hv.pid).detach()
    return hv


@pytest.mark.parametrize("launch", [
    lambda tb: tb.launch_firecracker(seccomp=False, nic=True),
    _detached_session_vm,
], ids=["firecracker-nic", "detached-session"])
def test_a_snapshot_does_not_keep_its_vm_alive(launch):
    tb = Testbed(seed=SEED)
    hv = launch(tb)
    snap = tb.snapshot(hv)
    vm = weakref.ref(hv.vm)
    hv.exit()
    del hv
    gc.collect()
    assert vm() is None
    clone = tb.clone(snap)                     # the snapshot lives on
    assert clone.guest.kernel_vfs.read_file("/etc/hostname")
