"""Building the side-loadable kernel library for a detected guest.

The real VMSH embeds a prebuilt kernel library and stage-2 binary in
its own data section and patches kernel-function references at load
time (§5).  Our builder assembles the SELF blob for the *detected*
kernel version: the structures passed to registration functions and
the kernel_read/write calling convention are chosen per version
(§6.2) — so a wrong version detection produces a guest panic rather
than silently working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.guestos.kfunctions import (
    DEVICE_KIND_VIRTIO_MMIO,
    DEVICE_KIND_VIRTIO_PCI,
    PlatformDeviceInfo,
    REQUIRED_KERNEL_FUNCTIONS,
    UmhArgs,
)
from repro.arch import Arch
from repro.guestos.version import KernelVersion
from repro.sideload import build_blob
from repro.virtio.pci import SLOT_STRIDE, slot_address

#: guest-physical window where VMSH places its MMIO devices — above
#: the hypervisors' device region, below nothing (unbacked gpa space,
#: so accesses exit).
VMSH_MMIO_BASE = 0xE0000000
VMSH_MMIO_STRIDE = 0x1000

STAGE2_GUEST_PATH = "/dev/.vmsh-stage2"
#: what stage 2 spawns on the VMSH console, passed in its argv
STAGE2_COMMAND = "/bin/sh"
KERNEL_LIB_PROGRAM_ID = "vmsh-kernel-lib"
STAGE2_PROGRAM_ID = "vmsh-stage2"


@dataclass(frozen=True)
class VmshDevice:
    """One side-loadable device: where it lives and how it interrupts.

    On the mmio transport the guest finds the register window at
    ``mmio`` and VMSH signals pin ``gsi``; on pci (the extension, see
    repro.virtio.pci) the device is a function in ECAM ``slot`` whose
    BAR0 is the same window, signalling MSI message ``msi``.
    """

    name: str
    mmio: int
    gsi: int
    slot: int
    msi: int

    @property
    def ecam(self) -> int:
        """Guest-physical address of the function's config page."""
        return slot_address(self.slot)

    @property
    def config_key(self) -> str:
        """The blob config entry holding this device's registration."""
        return f"{self.name}_pdev"

    def pdev(self, transport: str) -> PlatformDeviceInfo:
        """The platform_device_register_full argument for ``transport``."""
        if transport == "pci":
            return PlatformDeviceInfo(
                mmio_base=self.ecam, irq=self.msi, kind=DEVICE_KIND_VIRTIO_PCI
            )
        return PlatformDeviceInfo(
            mmio_base=self.mmio, irq=self.gsi, kind=DEVICE_KIND_VIRTIO_MMIO
        )


#: Every device VMSH can side-load, in registration order; a plan
#: takes a prefix.  VMSH claims the windows and the ECAM pages as one
#: range each, so both run contiguously from the first row.  The last
#: row is the optional vm-exec device (§2.2 vision).
VMSH_DEVICES: Tuple[VmshDevice, ...] = (
    VmshDevice("console", VMSH_MMIO_BASE, gsi=64, slot=0xF0, msi=41),
    VmshDevice("blk", VMSH_MMIO_BASE + VMSH_MMIO_STRIDE, gsi=65, slot=0xF1,
               msi=42),
    VmshDevice("exec", VMSH_MMIO_BASE + 2 * VMSH_MMIO_STRIDE, gsi=66,
               slot=0xF2, msi=43),
)


@dataclass(frozen=True)
class LibraryPlan:
    """What the builder decided to generate."""

    version: KernelVersion
    container_pid: int
    #: the side-loaded devices, a prefix of :data:`VMSH_DEVICES`
    devices: Tuple[VmshDevice, ...]
    #: "mmio" (the paper's implementation) or "pci" (the extension)
    transport: str = "mmio"
    #: guest architecture — sizes the trampoline scratch area to the
    #: arch's register file; ``None`` falls back to max-over-arches.
    arch: Optional[Arch] = None

    def regions(self) -> List[Tuple[int, int]]:
        """The guest-physical ranges VMSH serves, as (start, size): the
        devices' register windows, plus their ECAM pages on pci."""
        first, count = self.devices[0], len(self.devices)
        regions = [(first.mmio, count * VMSH_MMIO_STRIDE)]
        if self.transport == "pci":
            regions.append((first.ecam, count * SLOT_STRIDE))
        return regions


def plan_library(
    version: KernelVersion,
    container_pid: int = 0,
    transport: str = "mmio",
    exec_device: bool = False,
    arch: Optional[Arch] = None,
) -> LibraryPlan:
    if transport not in ("mmio", "pci"):
        raise ValueError(f"unknown virtio transport {transport!r}")
    return LibraryPlan(
        version=version,
        container_pid=container_pid,
        devices=VMSH_DEVICES if exec_device else VMSH_DEVICES[:2],
        transport=transport,
        arch=arch,
    )


def build_library(plan: LibraryPlan) -> bytes:
    """Assemble the SELF blob (relocation slots still zero)."""
    version = plan.version
    stage2_argv = [
        STAGE2_GUEST_PATH,
        "--command",
        STAGE2_COMMAND,
        "--container-pid",
        str(plan.container_pid),
    ]
    config = {
        device.config_key: device.pdev(plan.transport).pack(version)
        for device in plan.devices
    }
    config.update(
        abi=version.kernel_rw_variant.encode("ascii"),
        umh=UmhArgs(STAGE2_GUEST_PATH, tuple(stage2_argv)).pack(version),
        stage2_path=STAGE2_GUEST_PATH.encode(),
    )
    payload = _stage2_binary()
    return build_blob(
        program_id=KERNEL_LIB_PROGRAM_ID,
        reloc_names=list(REQUIRED_KERNEL_FUNCTIONS),
        config=config,
        payload=payload,
        arch=plan.arch,
    )


#: one period of the stage-2 body's filler ``(i * 37 + 11) & 0xFF``,
#: which repeats every 256 bytes
_STAGE2_PERIOD = bytes((i * 37 + 11) & 0xFF for i in range(256))


def _stage2_binary() -> bytes:
    """The statically linked guest userspace program (§5), as bytes.

    A real build embeds a static musl executable; ours is a SIMELF
    personality header plus deterministic filler representing the
    binary body (so the kernel_write copy loop moves real data).
    """
    header = f"#!SIMELF:{STAGE2_PROGRAM_ID}\n".encode()
    return header + _STAGE2_PERIOD * 128     # 32 KiB
