"""virtio-mmio transport: device-side register block, guest-side driver.

The MMIO transport is the paper's deliberate choice (§2): it is the
variant microVMs ship, and it lets a non-cooperative device be mapped
at an unused guest-physical window.  Register accesses from the guest
cause VMEXITs that KVM routes to whoever owns the window — the
hypervisor's in-process devices, or VMSH via ptrace/ioregionfd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import VirtioError
from repro.sim.costs import CostModel
from repro.virtio import constants as C
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.vring import DeviceRing


@dataclass
class QueueState:
    """Device-side view of one queue's configuration registers."""

    num: int = 0
    ready: bool = False
    desc_gpa: int = 0
    avail_gpa: int = 0
    used_gpa: int = 0
    ring: Optional[DeviceRing] = None


class VirtioMmioDevice:
    """Base class for device-side virtio-mmio implementations."""

    QUEUE_COUNT = 1

    def __init__(
        self,
        device_id: int,
        accessor: GuestMemoryAccessor,
        irq_signal: Callable[[], None],
        costs: CostModel,
        config_space: bytes = b"",
        name: str = "virtio-dev",
        offer_event_idx: bool = True,
    ):
        self.device_id = device_id
        self.mem = accessor
        self._irq_signal = irq_signal
        self.costs = costs
        self.config_space = config_space
        self.name = name
        self.device_features = C.VIRTIO_F_VERSION_1
        if offer_event_idx:
            self.device_features |= C.VIRTIO_RING_F_EVENT_IDX
        self.queues: List[QueueState] = [QueueState() for _ in range(self.QUEUE_COUNT)]
        self._queue_sel = 0
        self.status = 0
        self.interrupt_status = 0
        self.driver_features = 0
        # When set, QUEUE_NOTIFY kicks are routed here instead of being
        # processed inline (a device-host service task installs itself).
        self._kick_sink: Optional[Callable[[int], None]] = None

    @property
    def event_idx(self) -> bool:
        """True once the driver acked VIRTIO_RING_F_EVENT_IDX."""
        return bool(
            self.driver_features & self.device_features & C.VIRTIO_RING_F_EVENT_IDX
        )

    # -- register interface --------------------------------------------------------

    def read_register(self, offset: int) -> int:
        if offset >= C.REG_CONFIG:
            return self._read_config(offset - C.REG_CONFIG)
        if offset == C.REG_MAGIC:
            return C.MMIO_MAGIC
        if offset == C.REG_VERSION:
            return C.MMIO_VERSION
        if offset == C.REG_DEVICE_ID:
            return self.device_id
        if offset == C.REG_VENDOR_ID:
            return C.VENDOR_ID
        if offset == C.REG_DEVICE_FEATURES:
            return self.device_features
        if offset == C.REG_QUEUE_NUM_MAX:
            return C.DEFAULT_QUEUE_SIZE
        if offset == C.REG_QUEUE_READY:
            return 1 if self._selected().ready else 0
        if offset == C.REG_INTERRUPT_STATUS:
            return self.interrupt_status
        if offset == C.REG_STATUS:
            return self.status
        raise VirtioError(f"{self.name}: read of unknown register {offset:#x}")

    def write_register(self, offset: int, value: int) -> None:
        queue = self._selected()
        if offset == C.REG_DRIVER_FEATURES:
            if value & ~self.device_features:
                raise VirtioError(
                    f"{self.name}: driver acked unoffered features "
                    f"{value & ~self.device_features:#x}"
                )
            self.driver_features = value
        elif offset == C.REG_QUEUE_SEL:
            if not 0 <= value < self.QUEUE_COUNT:
                raise VirtioError(f"{self.name}: bad queue index {value}")
            self._queue_sel = value
        elif offset == C.REG_QUEUE_NUM:
            queue.num = value
        elif offset == C.REG_QUEUE_DESC_LOW:
            queue.desc_gpa = (queue.desc_gpa & ~0xFFFFFFFF) | value
        elif offset == C.REG_QUEUE_DESC_HIGH:
            queue.desc_gpa = (queue.desc_gpa & 0xFFFFFFFF) | (value << 32)
        elif offset == C.REG_QUEUE_AVAIL_LOW:
            queue.avail_gpa = (queue.avail_gpa & ~0xFFFFFFFF) | value
        elif offset == C.REG_QUEUE_AVAIL_HIGH:
            queue.avail_gpa = (queue.avail_gpa & 0xFFFFFFFF) | (value << 32)
        elif offset == C.REG_QUEUE_USED_LOW:
            queue.used_gpa = (queue.used_gpa & ~0xFFFFFFFF) | value
        elif offset == C.REG_QUEUE_USED_HIGH:
            queue.used_gpa = (queue.used_gpa & 0xFFFFFFFF) | (value << 32)
        elif offset == C.REG_QUEUE_READY:
            if value:
                self._activate_queue(self._queue_sel)
            else:
                queue.ready = False
                queue.ring = None
        elif offset == C.REG_QUEUE_NOTIFY:
            if self._kick_sink is not None:
                self._kick_sink(value)
            else:
                self.process_queue(value)
        elif offset == C.REG_INTERRUPT_ACK:
            self.interrupt_status &= ~value
        elif offset == C.REG_STATUS:
            self.status = value
            if value == 0:
                self._reset()
        else:
            raise VirtioError(f"{self.name}: write of unknown register {offset:#x}")

    # -- device behaviour hooks ------------------------------------------------------

    def defer_kicks(self, sink: Optional[Callable[[int], None]]) -> None:
        """Route QUEUE_NOTIFY kicks to ``sink`` (``None`` restores inline).

        The MMIO write (and its VMEXIT cost) still happens on the
        guest's path; only the queue *servicing* moves to whoever owns
        the sink — which is what lets two VMs' devices drain
        interleaved under the event scheduler.
        """
        self._kick_sink = sink

    def process_queue(self, index: int) -> None:
        """Handle a QUEUE_NOTIFY for queue ``index``."""
        raise NotImplementedError

    def _activate_queue(self, index: int) -> None:
        queue = self.queues[index]
        if not queue.num:
            raise VirtioError(f"{self.name}: queue {index} readied with size 0")
        obs = getattr(self.costs, "obs", None)
        metrics = None
        if obs is not None:
            metrics = obs.metrics.scope("vring", device=self.name, queue=index)
        queue.ring = DeviceRing(
            self.mem,
            queue.desc_gpa,
            queue.avail_gpa,
            queue.used_gpa,
            queue.num,
            event_idx=self.event_idx,
            metrics=metrics,
        )
        queue.ready = True

    def bind_metrics(self) -> None:
        """Re-resolve every registry handle the device caches.

        The base device caches only its rings' counters; a snapshot
        clone calls this so its copied counters rejoin the registry.
        """
        for queue in self.queues:
            if queue.ring is not None:
                queue.ring.bind_metrics()

    def _reset(self) -> None:
        for queue in self.queues:
            queue.ready = False
            queue.ring = None
        self.interrupt_status = 0

    # -- completion / interrupts -------------------------------------------------------

    def complete(self, index: int, head: int, written: int) -> None:
        ring = self._ring(index)
        ring.push_used(head, written)

    def raise_interrupt(self) -> None:
        """Signal the used-ring interrupt (Fig. 4/4: irqfd -> KVM)."""
        self.interrupt_status |= C.INT_USED_RING
        self._irq_signal()

    def _ring(self, index: int) -> DeviceRing:
        queue = self.queues[index]
        if not queue.ready or queue.ring is None:
            raise VirtioError(f"{self.name}: queue {index} not ready")
        return queue.ring

    def _selected(self) -> QueueState:
        return self.queues[self._queue_sel]

    def _read_config(self, offset: int) -> int:
        chunk = self.config_space[offset : offset + 4]
        return int.from_bytes(chunk.ljust(4, b"\x00"), "little")


class GuestVirtioTransport:
    """Guest-driver side of virtio-mmio.

    Every register access goes through ``vm.mmio_access`` and therefore
    through the full VMEXIT funnel — including during device probing,
    which is how VMSH's devices get discovered by the guest without any
    hypervisor involvement.
    """

    def __init__(self, guest_kernel, base_gpa: int, irq_gsi: int):
        self.kernel = guest_kernel
        self.base = base_gpa
        self.irq_gsi = irq_gsi
        self.features = 0           # negotiated feature set, after initialize()

    @property
    def event_idx(self) -> bool:
        return bool(self.features & C.VIRTIO_RING_F_EVENT_IDX)

    # -- raw register access -----------------------------------------------------------

    def read32(self, offset: int) -> int:
        vcpu = self.kernel.boot_vcpu
        return self.kernel.vm.mmio_access(vcpu, False, self.base + offset, 4)

    def write32(self, offset: int, value: int) -> None:
        vcpu = self.kernel.boot_vcpu
        self.kernel.vm.mmio_access(vcpu, True, self.base + offset, 4, value)

    def read_config(self, offset: int, length: int) -> bytes:
        out = bytearray()
        pos = 0
        while pos < length:
            word = self.read32(C.REG_CONFIG + offset + pos)
            out += word.to_bytes(4, "little")
            pos += 4
        return bytes(out[:length])

    # -- probing -------------------------------------------------------------------------

    def probe(self) -> Optional[int]:
        """Return the device id behind this window, or None."""
        try:
            magic = self.read32(C.REG_MAGIC)
        except Exception:
            return None
        if magic != C.MMIO_MAGIC:
            return None
        if self.read32(C.REG_VERSION) != C.MMIO_VERSION:
            return None
        device_id = self.read32(C.REG_DEVICE_ID)
        return device_id or None

    def initialize(self, extra_features: int = 0) -> None:
        """Status negotiation up to FEATURES_OK.

        ``extra_features`` adds device-class bits the calling driver
        understands (e.g. virtio-net's MAC/MQ) to the transport-level
        wanted set; as always, only bits the device offered are acked.
        """
        self.write32(C.REG_STATUS, C.STATUS_ACKNOWLEDGE)
        self.write32(
            C.REG_STATUS, C.STATUS_ACKNOWLEDGE | C.STATUS_DRIVER
        )
        features = self.read32(C.REG_DEVICE_FEATURES)
        # Ack what the driver understands; a device that does not offer
        # EVENT_IDX (quirky VMMs, Table 1) falls back to always-notify.
        wanted = C.VIRTIO_F_VERSION_1 | C.VIRTIO_RING_F_EVENT_IDX
        wanted |= extra_features
        self.features = features & wanted
        self.write32(C.REG_DRIVER_FEATURES, self.features)
        self.write32(
            C.REG_STATUS,
            C.STATUS_ACKNOWLEDGE | C.STATUS_DRIVER | C.STATUS_FEATURES_OK,
        )

    def driver_ok(self) -> None:
        self.write32(
            C.REG_STATUS,
            C.STATUS_ACKNOWLEDGE
            | C.STATUS_DRIVER
            | C.STATUS_FEATURES_OK
            | C.STATUS_DRIVER_OK,
        )

    def setup_queue(self, index: int, size: int):
        """Allocate ring memory in guest RAM and ready the queue."""
        from repro.virtio.vring import (
            DriverRing,
            avail_ring_size,
            desc_table_size,
            used_ring_size,
        )

        event_idx = self.event_idx
        avail_bytes = avail_ring_size(size, event_idx)
        # Used ring must be 4-byte aligned; the trailing used_event u16
        # makes the avail block 2 mod 4, so pad when EVENT_IDX is on.
        avail_bytes = (avail_bytes + 3) & ~3
        total = desc_table_size(size) + avail_bytes + used_ring_size(size, event_idx)
        base = self.kernel.alloc_guest_pages((total + 4095) // 4096)
        desc_gpa = base
        avail_gpa = desc_gpa + desc_table_size(size)
        used_gpa = avail_gpa + avail_bytes
        self.write32(C.REG_QUEUE_SEL, index)
        self.write32(C.REG_QUEUE_NUM, size)
        self.write32(C.REG_QUEUE_DESC_LOW, desc_gpa & 0xFFFFFFFF)
        self.write32(C.REG_QUEUE_DESC_HIGH, desc_gpa >> 32)
        self.write32(C.REG_QUEUE_AVAIL_LOW, avail_gpa & 0xFFFFFFFF)
        self.write32(C.REG_QUEUE_AVAIL_HIGH, avail_gpa >> 32)
        self.write32(C.REG_QUEUE_USED_LOW, used_gpa & 0xFFFFFFFF)
        self.write32(C.REG_QUEUE_USED_HIGH, used_gpa >> 32)
        self.write32(C.REG_QUEUE_READY, 1)
        ring = DriverRing(
            self.kernel.memory, desc_gpa, avail_gpa, used_gpa, size,
            event_idx=event_idx,
        )
        return ring

    def notify(self, index: int) -> None:
        """Kick the device (Fig. 4/3): MMIO write causing a VMEXIT."""
        costs = getattr(self.kernel, "costs", None)
        if costs is not None:
            costs.virtio_kick()
        self.write32(C.REG_QUEUE_NOTIFY, index)

    def ack_interrupt(self) -> None:
        status = self.read32(C.REG_INTERRUPT_STATUS)
        if status:
            self.write32(C.REG_INTERRUPT_ACK, status)
