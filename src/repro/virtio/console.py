"""virtio-console: the interactive channel of VMSH (Fig. 2, §6.3-D).

Queue 0 is receiveq (host -> guest), queue 1 is transmitq
(guest -> host).  The host side of the VMSH console is a
pseudo-terminal pair: the user's terminal connects to the master end,
the device pumps bytes between the pts and the virtqueues.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import VirtioError
from repro.sim.costs import CostModel
from repro.virtio import constants as C
from repro.virtio.core import GuestRxPath, GuestTxPath, VirtioDeviceCore
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.mmio import GuestVirtioTransport

RX_QUEUE = 0
TX_QUEUE = 1


class Pts:
    """A host pseudo-terminal pair (the §6.3-D measurement point)."""

    def __init__(self) -> None:
        self._to_device: List[bytes] = []
        self.output: List[bytes] = []
        self._device_input_cb: Optional[Callable[[bytes], None]] = None

    # user/master side -----------------------------------------------------------

    def user_write(self, data: bytes) -> None:
        """User types into the terminal."""
        if self._device_input_cb is not None:
            self._device_input_cb(data)
        else:
            self._to_device.append(data)

    def user_read_all(self) -> bytes:
        out = b"".join(self.output)
        self.output.clear()
        return out

    # device/slave side -------------------------------------------------------------

    def connect_device(self, callback: Callable[[bytes], None]) -> None:
        self._device_input_cb = callback
        for pending in self._to_device:
            callback(pending)
        self._to_device.clear()

    def device_write(self, data: bytes) -> None:
        self.output.append(data)


class VirtioConsoleDevice(VirtioDeviceCore):
    """Device side of the VMSH console."""

    QUEUE_COUNT = 2

    def __init__(
        self,
        accessor: GuestMemoryAccessor,
        irq_signal: Callable[[], None],
        costs: CostModel,
        pts: Pts,
        name: str = "vmsh-console",
        offer_event_idx: bool = True,
    ):
        super().__init__(
            device_id=C.DEVICE_ID_CONSOLE,
            accessor=accessor,
            irq_signal=irq_signal,
            costs=costs,
            config_space=b"\x50\x00\x18\x00",  # cols=80, rows=24
            name=name,
            offer_event_idx=offer_event_idx,
        )
        self.pts = pts
        pts.connect_device(self.host_input)
        self._pending_input: List[bytes] = []

    # -- queue processing ---------------------------------------------------------------

    def process_queue(self, index: int) -> None:
        if index == TX_QUEUE:
            self._drain_tx()
        elif index == RX_QUEUE:
            self.absorb_posted(RX_QUEUE)
            self._flush_pending_input()
        else:
            raise VirtioError(f"{self.name}: notify for unknown queue {index}")

    def _drain_tx(self) -> None:
        ring = self._ring(TX_QUEUE)
        batch = []
        for head in ring.pop_available():
            chain = ring.read_chain(head)
            for desc in chain:
                if desc.device_writable:
                    raise VirtioError("TX buffer must be device-readable")
            # One gathered copy for the whole chain.
            self.pts.device_write(
                self.mem.read_vectored([(d.addr, d.length) for d in chain])
            )
            batch.append((head, 0))
        self.publish_batch(
            TX_QUEUE, batch, before_publish=self.costs.vmsh_console_hop
        )

    # -- host input path ------------------------------------------------------------------

    def host_input(self, data: bytes) -> None:
        """Bytes typed into the pts master, destined for the guest."""
        self._pending_input.append(data)
        self._flush_pending_input()

    def _flush_pending_input(self) -> None:
        if not self.queues[RX_QUEUE].ready:
            return
        posted = self.absorb_posted(RX_QUEUE)
        batch = []
        while self._pending_input and posted:
            batch.append(self.fill_posted(RX_QUEUE, self._pending_input.pop(0)))
        self.publish_batch(
            RX_QUEUE, batch, before_publish=self.costs.vmsh_console_hop
        )


class GuestVirtioConsole:
    """Guest driver for the VMSH console; binds to a guest tty sink."""

    RX_BUFFER_SIZE = 1024
    RX_BUFFER_COUNT = 8

    def __init__(self, guest_kernel, transport: GuestVirtioTransport, name: str = "hvc0"):
        self.kernel = guest_kernel
        self.transport = transport
        self.name = name
        transport.initialize()
        self.rx_ring = transport.setup_queue(RX_QUEUE, 64)
        self.tx_ring = transport.setup_queue(TX_QUEUE, 64)
        transport.driver_ok()
        self._rx = GuestRxPath(guest_kernel, transport, self.rx_ring, RX_QUEUE,
                               self.RX_BUFFER_SIZE, self.RX_BUFFER_COUNT)
        self._tx = GuestTxPath(guest_kernel, transport, self.tx_ring,
                               TX_QUEUE, 1)
        self._input_sink: Optional[Callable[[bytes], None]] = None
        guest_kernel.register_irq(transport.irq_gsi, self._on_irq)
        self._rx.post()

    def on_input(self, sink: Callable[[bytes], None]) -> None:
        """Register the tty-side consumer of host input."""
        self._input_sink = sink

    def send(self, data: bytes) -> None:
        """Guest -> host transmission, at most one page per send."""
        self._tx.send(data)

    def _on_irq(self, gsi: int) -> None:
        self.transport.ack_interrupt()
        for data in self._rx.harvest():
            if self._input_sink is not None:
                self._input_sink(data)
        # TX completions are collected by each send.
