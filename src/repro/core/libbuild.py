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

import struct
from dataclasses import dataclass
from typing import List, Optional

from repro.guestos.kfunctions import (
    PlatformDeviceInfo,
    REQUIRED_KERNEL_FUNCTIONS,
    UmhArgs,
)
from repro.arch import Arch
from repro.guestos.version import KernelVersion
from repro.sideload import build_blob

#: guest-physical window where VMSH places its MMIO devices — above
#: the hypervisors' device region, below nothing (unbacked gpa space,
#: so accesses exit).
VMSH_MMIO_BASE = 0xE0000000
VMSH_MMIO_STRIDE = 0x1000
VMSH_CONSOLE_GSI = 64
VMSH_BLK_GSI = 65

STAGE2_GUEST_PATH = "/dev/.vmsh-stage2"
KERNEL_LIB_PROGRAM_ID = "vmsh-kernel-lib"
STAGE2_PROGRAM_ID = "vmsh-stage2"


#: PCI-transport parameters: VMSH claims high device slots in the
#: ECAM window and MSI messages (see repro.virtio.pci).
VMSH_PCI_CONSOLE_SLOT = 0xF0
VMSH_PCI_BLK_SLOT = 0xF1
VMSH_PCI_EXEC_SLOT = 0xF2
VMSH_MSI_CONSOLE = 41
VMSH_MSI_BLK = 42
VMSH_MSI_EXEC = 43
VMSH_EXEC_GSI = 66


@dataclass(frozen=True)
class LibraryPlan:
    """What the builder decided to generate."""

    version: KernelVersion
    console_mmio: int
    blk_mmio: int
    console_gsi: int
    blk_gsi: int
    command: str
    container_pid: int
    reloc_names: List[str]
    #: "mmio" (the paper's implementation) or "pci" (the extension)
    transport: str = "mmio"
    console_slot: int = VMSH_PCI_CONSOLE_SLOT
    blk_slot: int = VMSH_PCI_BLK_SLOT
    console_msi: int = VMSH_MSI_CONSOLE
    blk_msi: int = VMSH_MSI_BLK
    #: the optional vm-exec device (§2.2 vision)
    exec_device: bool = False
    exec_mmio: int = VMSH_MMIO_BASE + 2 * VMSH_MMIO_STRIDE
    exec_gsi: int = VMSH_EXEC_GSI
    exec_slot: int = VMSH_PCI_EXEC_SLOT
    exec_msi: int = VMSH_MSI_EXEC
    #: guest architecture — sizes the trampoline scratch area to the
    #: arch's register file; ``None`` falls back to max-over-arches.
    arch: Optional[Arch] = None


def plan_library(
    version: KernelVersion,
    command: str = "/bin/sh",
    container_pid: int = 0,
    transport: str = "mmio",
    exec_device: bool = False,
    arch: Optional[Arch] = None,
) -> LibraryPlan:
    if transport not in ("mmio", "pci"):
        raise ValueError(f"unknown virtio transport {transport!r}")
    return LibraryPlan(
        version=version,
        console_mmio=VMSH_MMIO_BASE,
        blk_mmio=VMSH_MMIO_BASE + VMSH_MMIO_STRIDE,
        console_gsi=VMSH_CONSOLE_GSI,
        blk_gsi=VMSH_BLK_GSI,
        command=command,
        container_pid=container_pid,
        reloc_names=list(REQUIRED_KERNEL_FUNCTIONS),
        transport=transport,
        exec_device=exec_device,
        arch=arch,
    )


def build_library(plan: LibraryPlan) -> bytes:
    """Assemble the SELF blob (relocation slots still zero)."""
    from repro.guestos.kfunctions import (
        DEVICE_KIND_VIRTIO_MMIO,
        DEVICE_KIND_VIRTIO_PCI,
    )
    from repro.virtio.pci import slot_address

    version = plan.version
    stage2_argv = [
        STAGE2_GUEST_PATH,
        "--command",
        plan.command,
        "--container-pid",
        str(plan.container_pid),
    ]
    if plan.transport == "pci":
        console_pdev = PlatformDeviceInfo(
            mmio_base=slot_address(plan.console_slot),
            irq=plan.console_msi,
            kind=DEVICE_KIND_VIRTIO_PCI,
        )
        blk_pdev = PlatformDeviceInfo(
            mmio_base=slot_address(plan.blk_slot),
            irq=plan.blk_msi,
            kind=DEVICE_KIND_VIRTIO_PCI,
        )
    else:
        console_pdev = PlatformDeviceInfo(
            mmio_base=plan.console_mmio, irq=plan.console_gsi,
            kind=DEVICE_KIND_VIRTIO_MMIO,
        )
        blk_pdev = PlatformDeviceInfo(
            mmio_base=plan.blk_mmio, irq=plan.blk_gsi,
            kind=DEVICE_KIND_VIRTIO_MMIO,
        )
    config = {
        "console_pdev": console_pdev.pack(version),
        "blk_pdev": blk_pdev.pack(version),
        "abi": version.kernel_rw_variant.encode("ascii"),
        "umh": UmhArgs(STAGE2_GUEST_PATH, tuple(stage2_argv)).pack(version),
        "stage2_path": STAGE2_GUEST_PATH.encode(),
    }
    if plan.exec_device:
        if plan.transport == "pci":
            exec_pdev = PlatformDeviceInfo(
                mmio_base=slot_address(plan.exec_slot),
                irq=plan.exec_msi,
                kind=DEVICE_KIND_VIRTIO_PCI,
            )
        else:
            exec_pdev = PlatformDeviceInfo(
                mmio_base=plan.exec_mmio, irq=plan.exec_gsi,
                kind=DEVICE_KIND_VIRTIO_MMIO,
            )
        config["exec_pdev"] = exec_pdev.pack(version)
    payload = _stage2_binary()
    return build_blob(
        program_id=KERNEL_LIB_PROGRAM_ID,
        reloc_names=plan.reloc_names,
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
