"""VirtIO over PCI with MSI-X — the paper's stated extension.

§6.2: "Cloud Hypervisor is the exception as it uses PCIe's MSI-X
messages for its interrupt handling.  Therefore, it is incompatible
with MMIO as a VirtIO transport channel.  We plan to extend VMSH to
support VirtIO over PCI for Cloud Hypervisor."

This module implements that plan.  The two obstacles to the MMIO
transport were:

1. *Interrupts*: an MSI-X-only irqchip has no GSI pins, so the injected
   ``KVM_IRQFD`` fails.  The PCI transport instead binds its eventfds
   to MSI messages (``KVM_IRQFD_MSI``, i.e. an irqfd plus a
   ``KVM_SET_GSI_ROUTING`` MSI entry), which such irqchips do support.
2. *Discovery*: a PCI function must appear in the configuration space
   the guest scans.  VMSH claims an unused device slot in the ECAM
   window and serves its 4 KiB config page itself (via ioregionfd or
   the wrap_syscall interposer), exactly like it serves its register
   BARs.

Simplifications vs. the VirtIO 1.1 PCI spec (documented): the modern
capability chain (common/notify/isr/device cfg structures) is collapsed
into one BAR0 register window that reuses the virtio-mmio register
block, and MSI-X tables are reduced to one message per function.  The
parts that matter for non-cooperative attach — config-space discovery,
BAR decoding, message-signalled interrupts — are all real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import VirtioError
from repro.virtio.mmio import VirtioMmioDevice

#: base of the PCI ECAM (config space) window in guest-physical space
ECAM_BASE = 0xB0000000
#: one config page per device slot (bus 0, function 0)
SLOT_STRIDE = 0x1000
MAX_SLOTS = 256

VIRTIO_PCI_VENDOR = 0x1AF4
#: modern virtio PCI device ids: 0x1040 + virtio device type
VIRTIO_PCI_DEVICE_BASE = 0x1040

# Config-space register offsets (little-endian).
CFG_VENDOR_ID = 0x00        # u16
CFG_DEVICE_ID = 0x02        # u16
CFG_COMMAND = 0x04          # u16 (bit 1: memory space enable)
CFG_STATUS = 0x06           # u16 (bit 4: capabilities list)
CFG_BAR0 = 0x10             # u32: register window base
CFG_MSIX_MESSAGE = 0x40     # u32: the MSI message this function signals
CFG_MSIX_ENABLE = 0x44      # u32: write 1 to unmask

#: value a config read of an empty slot returns (PCI master abort)
EMPTY_SLOT = 0xFFFFFFFF


def slot_address(slot: int) -> int:
    if not 0 <= slot < MAX_SLOTS:
        raise VirtioError(f"PCI slot {slot} out of range")
    return ECAM_BASE + slot * SLOT_STRIDE


def address_slot(addr: int) -> int:
    if not ECAM_BASE <= addr < ECAM_BASE + MAX_SLOTS * SLOT_STRIDE:
        raise VirtioError(f"address {addr:#x} not in the ECAM window")
    return (addr - ECAM_BASE) // SLOT_STRIDE


@dataclass
class PciVirtioFunction:
    """One virtio-pci function: config page + BAR0 register window."""

    slot: int
    device: VirtioMmioDevice
    bar0: int
    msi_message: int
    msix_enabled: bool = False
    memory_enabled: bool = True

    @property
    def event_idx(self) -> bool:
        """Negotiated EVENT_IDX state of the function.

        BAR0 reuses the virtio-mmio register block, so feature
        negotiation — including ``VIRTIO_RING_F_EVENT_IDX`` — rides the
        same ``read_register``/``write_register`` path as on MMIO
        transports; the only PCI-specific difference is that coalesced
        completion interrupts arrive as MSI-X messages instead of GSI
        pin toggles.
        """
        return self.device.event_idx

    # -- config space -------------------------------------------------------

    def config_read(self, offset: int) -> int:
        if offset == CFG_VENDOR_ID:
            # 32-bit read of offset 0 returns device<<16 | vendor.
            device_id = VIRTIO_PCI_DEVICE_BASE + self.device.device_id
            return (device_id << 16) | VIRTIO_PCI_VENDOR
        if offset == CFG_COMMAND:
            return (1 << 1) if self.memory_enabled else 0
        if offset == CFG_BAR0:
            return self.bar0
        if offset == CFG_MSIX_MESSAGE:
            return self.msi_message
        if offset == CFG_MSIX_ENABLE:
            return 1 if self.msix_enabled else 0
        return 0

    def config_write(self, offset: int, value: int) -> None:
        if offset == CFG_COMMAND:
            self.memory_enabled = bool(value & (1 << 1))
        elif offset == CFG_MSIX_ENABLE:
            self.msix_enabled = bool(value)
        elif offset == CFG_BAR0:
            # BAR sizing probes write all-ones; we keep the BAR fixed
            # (VMSH assigns it), so writes are ignored.
            pass

    # -- BAR0: the device's register block, while memory decoding is on -----

    def read_register(self, offset: int) -> int:
        if not self.memory_enabled:
            raise VirtioError(f"slot {self.slot}: BAR access with memory disabled")
        return self.device.read_register(offset)

    def write_register(self, offset: int, value: int) -> None:
        if not self.memory_enabled:
            raise VirtioError(f"slot {self.slot}: BAR access with memory disabled")
        self.device.write_register(offset, value)


class GuestPciProbe:
    """Guest-side config-space prober (what the pci core does)."""

    def __init__(self, guest_kernel):
        self.kernel = guest_kernel

    def _cfg_read32(self, slot: int, offset: int) -> int:
        vcpu = self.kernel.boot_vcpu
        return self.kernel.vm.mmio_access(
            vcpu, False, slot_address(slot) + offset, 4
        )

    def _cfg_write32(self, slot: int, offset: int, value: int) -> None:
        vcpu = self.kernel.boot_vcpu
        self.kernel.vm.mmio_access(
            vcpu, True, slot_address(slot) + offset, 4, value
        )

    def probe_slot(self, slot: int) -> Optional[Dict[str, int]]:
        """Identify a virtio function at ``slot``, or None."""
        try:
            id_word = self._cfg_read32(slot, CFG_VENDOR_ID)
        except Exception:
            return None
        if id_word == EMPTY_SLOT or (id_word & 0xFFFF) != VIRTIO_PCI_VENDOR:
            return None
        device_id = (id_word >> 16) - VIRTIO_PCI_DEVICE_BASE
        bar0 = self._cfg_read32(slot, CFG_BAR0)
        msi_message = self._cfg_read32(slot, CFG_MSIX_MESSAGE)
        return {"virtio_id": device_id, "bar0": bar0, "msi_message": msi_message}

    def enable(self, slot: int) -> None:
        """Enable memory decoding and MSI-X for the function."""
        self._cfg_write32(slot, CFG_COMMAND, 1 << 1)
        self._cfg_write32(slot, CFG_MSIX_ENABLE, 1)
