"""Benchmark harness: the storage environments of §6.3.

Builds each configuration that Figures 5 and 6 compare, hands the
workload a mounted filesystem (or raw block device), and measures in
*virtual* nanoseconds on the testbed clock — deterministic and
hardware-independent, like-for-like across environments:

* ``native``        — host filesystem on the NVMe partition, no VM;
* ``qemu-blk``      — guest fs on QEMU's in-process virtio-blk;
* ``qemu-9p``       — guest fs on QEMU's 9p host share;
* ``vmsh-blk``      — guest fs on VMSH's external device, with either
                      the ``ioregionfd`` or ``wrap_syscall`` dispatch;
* ``qemu-blk + vmsh attached`` — the † rows of Fig. 6: the guest's
  own device measured while VMSH is (idly) attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.guestos.blockcore import BlockDevice, NativeDisk
from repro.guestos.fs import Filesystem
from repro.guestos.pagecache import PageCache
from repro.guestos.vfs import MountNamespace, Vfs
from repro.sim.clock import Stopwatch
from repro.testbed import Testbed
from repro.units import GiB, MiB, SEC


@dataclass
class BenchEnv:
    """A ready-to-run storage environment."""

    name: str
    testbed: Testbed
    vfs: Vfs
    mountpoint: str
    fs: Filesystem
    device: Optional[BlockDevice] = None
    session: Optional[object] = None       # VmshSession when attached
    hypervisor: Optional[object] = None

    def elapsed(self) -> Stopwatch:
        return Stopwatch(self.testbed.clock)

    def drop_caches(self) -> None:
        """echo 3 > /proc/sys/vm/drop_caches, between phases."""
        self.fs.sync_all()
        self.fs.drop_caches()


ENV_NAMES = (
    "native",
    "qemu-blk",
    "qemu-9p",
    "vmsh-blk-ioregionfd",
    "vmsh-blk-wrap_syscall",
    "qemu-blk+vmsh-ioregionfd",
    "qemu-blk+vmsh-wrap_syscall",
)


def make_env(name: str, disk_size: int = 1 * GiB) -> BenchEnv:
    """Build one of the named environments with a fresh testbed."""
    if name == "native":
        return _native_env(disk_size)
    if name == "qemu-blk":
        return _qemu_blk_env(disk_size, attach=None)
    if name == "qemu-blk+vmsh-ioregionfd":
        return _qemu_blk_env(disk_size, attach="ioregionfd")
    if name == "qemu-blk+vmsh-wrap_syscall":
        return _qemu_blk_env(disk_size, attach="wrap_syscall")
    if name == "qemu-9p":
        return _qemu_9p_env()
    if name == "vmsh-blk-ioregionfd":
        return _vmsh_blk_env("ioregionfd", disk_size)
    if name == "vmsh-blk-wrap_syscall":
        return _vmsh_blk_env("wrap_syscall", disk_size)
    raise ValueError(f"unknown environment {name!r}")


def _native_env(disk_size: int) -> BenchEnv:
    tb = Testbed()
    disk = NativeDisk("/dev/nvme0n1p1", disk_size, costs=tb.costs)
    cache = PageCache(tb.costs)
    fs = Filesystem("xfs", device=disk, cache=cache, costs=tb.costs, label="native-xfs")
    ns = MountNamespace()
    vfs = Vfs(ns)
    vfs.mount(fs, "/")
    vfs.makedirs("/bench")
    return BenchEnv("native", tb, vfs, "/bench", fs, device=disk)


def _qemu_blk_env(disk_size: int, attach: Optional[str]) -> BenchEnv:
    tb = Testbed(ioregionfd=(attach != "wrap_syscall"))
    disk_file = tb.nvme_partition(disk_size)
    hv = tb.launch_qemu(disk=disk_file)
    session = None
    if attach is not None:
        session = tb.vmsh().attach(hv.pid, mmio_mode=attach)
    guest = hv.guest
    fs = guest.make_fs_on("vda", "xfs")
    vfs = guest.mount_filesystem(fs, "/mnt/bench")
    name = "qemu-blk" if attach is None else f"qemu-blk+vmsh-{attach}"
    return BenchEnv(name, tb, vfs, "/mnt/bench", fs, device=guest.block_devices["vda"],
                    session=session, hypervisor=hv)


def _qemu_9p_env() -> BenchEnv:
    tb = Testbed()
    hv = tb.launch_qemu()
    share = hv.create_9p_share()
    vfs = hv.guest.mount_filesystem(share, "/mnt/bench")
    return BenchEnv("qemu-9p", tb, vfs, "/mnt/bench", share, hypervisor=hv)


def _vmsh_blk_env(mode: str, disk_size: int) -> BenchEnv:
    from repro.image.builder import build_admin_image

    tb = Testbed(ioregionfd=(mode == "ioregionfd"))
    hv = tb.launch_qemu()
    # Serve a large image so the benchmark has room.
    image = build_admin_image(extra_space=min(disk_size, 96 * MiB))
    session = tb.vmsh().attach(hv.pid, mmio_mode=mode, image=image)
    guest = hv.guest
    overlay = guest.vmsh_overlay  # type: ignore[attr-defined]
    vfs = overlay.overlay.vfs
    vfs.makedirs("/bench")
    root_fs = overlay.overlay.namespace.root_mount().fs
    return BenchEnv(
        f"vmsh-blk-{mode}", tb, vfs, "/bench", root_fs,
        device=guest.vmsh_block, session=session, hypervisor=hv,
    )


@dataclass
class Measurement:
    """One benchmark datapoint in virtual time."""

    env: str
    workload: str
    metric: str                 # "MB/s", "IOPS", "ops/s", "ms", ...
    value: float
    elapsed_ns: int
    detail: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.workload:38s} {self.env:28s} {self.value:12.2f} {self.metric}"


def throughput_mb_s(nbytes: int, elapsed_ns: int) -> float:
    if elapsed_ns <= 0:
        return float("inf")
    return (nbytes / (1024 * 1024)) / (elapsed_ns / SEC)


def ops_per_second(nops: int, elapsed_ns: int) -> float:
    if elapsed_ns <= 0:
        return float("inf")
    return nops / (elapsed_ns / SEC)
