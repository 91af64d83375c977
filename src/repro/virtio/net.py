"""vmsh-net: a virtio-net device/driver pair on the shared device core.

The paper's sidecar devices stop at block and console; the serverless
use case (§6.5) needs the fleet to *serve traffic*, so this module adds
the missing data plane.  It is deliberately built on
:class:`~repro.virtio.core.VirtioDeviceCore` and
:class:`~repro.virtio.core.QueuedWindowDriver` — the same machinery
blk and console run on — as the proof that the core abstraction is
right rather than a fork of it.

Multi-queue layout follows VirtIO 1.1 §5.1.2: queue ``2*i`` is
``receiveq(i)``, queue ``2*i+1`` is ``transmitq(i)``.  Each queue pair
keeps its own EVENT_IDX state, so kick deferral and interrupt
coalescing work per pair exactly as they do for blk's single queue.

Frames are modelled as Ethernet-ish byte strings: 6-byte destination
MAC, 6-byte source MAC, payload.  On the rings every frame carries the
modern 12-byte virtio-net header (all zeroes here: no offloads).
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, List, Optional

from repro.errors import VirtioError
from repro.sim.costs import CostModel
from repro.virtio import constants as C
from repro.virtio.core import QueuedWindowDriver, VirtioDeviceCore
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.mmio import GuestVirtioTransport

#: Ethernet broadcast address.
BROADCAST_MAC = b"\xff" * 6

MIN_FRAME_SIZE = 12             # dst mac + src mac
MAX_FRAME_SIZE = 2048 - C.VIRTIO_NET_HDR_SIZE


def make_frame(dst_mac: bytes, src_mac: bytes, payload: bytes) -> bytes:
    if len(dst_mac) != 6 or len(src_mac) != 6:
        raise VirtioError("MAC addresses must be 6 bytes")
    frame = bytes(dst_mac) + bytes(src_mac) + payload
    if len(frame) > MAX_FRAME_SIZE:
        raise VirtioError(f"{len(frame)}-byte frame exceeds {MAX_FRAME_SIZE}")
    return frame


def frame_dst(frame: bytes) -> bytes:
    return frame[:6]


def frame_src(frame: bytes) -> bytes:
    return frame[6:12]


def frame_payload(frame: bytes) -> bytes:
    return frame[12:]


class VirtioNetDevice(VirtioDeviceCore):
    """Device side of vmsh-net: TX drains into a sink, RX publishes frames.

    The device knows nothing about the fabric: a
    :class:`~repro.sim.netfab.NetFabric` port installs itself as the TX
    sink via :meth:`connect_tx` and pushes inbound frames through
    :meth:`deliver`.
    """

    #: frames queued per pair while the guest has no RX buffers posted
    RX_BACKLOG = 256

    def __init__(
        self,
        accessor: GuestMemoryAccessor,
        irq_signal: Callable[[], None],
        costs: CostModel,
        mac: bytes,
        name: str = "vmsh-net",
        queue_pairs: int = 1,
        offer_event_idx: bool = True,
        offer_mq: bool = True,
    ):
        if len(mac) != 6:
            raise VirtioError(f"{name}: MAC must be 6 bytes")
        if not 1 <= queue_pairs <= 16:
            raise VirtioError(f"{name}: queue_pairs {queue_pairs} out of range 1..16")
        self.queue_pairs = queue_pairs
        # Instance attribute wins over the class default before
        # super().__init__ sizes self.queues.
        self.QUEUE_COUNT = 2 * queue_pairs
        extra = C.VIRTIO_NET_F_MAC | C.VIRTIO_NET_F_STATUS
        if offer_mq and queue_pairs > 1:
            extra |= C.VIRTIO_NET_F_MQ
        config = bytes(mac) + struct.pack(
            "<HH", C.VIRTIO_NET_S_LINK_UP, queue_pairs
        )
        super().__init__(
            device_id=C.DEVICE_ID_NET,
            accessor=accessor,
            irq_signal=irq_signal,
            costs=costs,
            config_space=config,
            name=name,
            offer_event_idx=offer_event_idx,
            extra_features=extra,
        )
        self.mac = bytes(mac)
        #: optional chaos hook (a ``FaultInjector.check`` bound method,
        #: installed by the owning hypervisor): consulted before every
        #: TX drain / RX flush at the ``virtio.net_tx_ring`` /
        #: ``virtio.net_rx_ring`` sites, so fault plans can wedge the
        #: data plane without corrupting the rings.
        self.fault_check: Optional[Callable[..., None]] = None
        self._tx_sink: Optional[Callable[[bytes, int], None]] = None
        self._pending_rx: Dict[int, List[bytes]] = {
            pair: [] for pair in range(queue_pairs)
        }
        self.rx_dropped = 0
        self.frames_tx = 0
        self.frames_rx = 0

    # -- topology -------------------------------------------------------------

    @staticmethod
    def rx_queue(pair: int) -> int:
        return 2 * pair

    @staticmethod
    def tx_queue(pair: int) -> int:
        return 2 * pair + 1

    @property
    def pairs_in_use(self) -> int:
        """Pairs the driver may actually use (1 unless it acked MQ)."""
        if self.driver_features & C.VIRTIO_NET_F_MQ:
            return self.queue_pairs
        return 1

    def connect_tx(self, sink: Optional[Callable[[bytes, int], None]]) -> None:
        """Install the fabric-facing TX sink (``sink(frame, pair)``)."""
        self._tx_sink = sink

    # -- queue processing ------------------------------------------------------

    def process_queue(self, index: int) -> None:
        if not 0 <= index < self.QUEUE_COUNT:
            raise VirtioError(f"{self.name}: notify for unknown queue {index}")
        pair, is_tx = divmod(index, 2)
        if is_tx:
            self._drain_tx(pair)
        else:
            self.absorb_posted(index)
            self._flush_rx(pair)

    def _drain_tx(self, pair: int) -> None:
        if self.fault_check is not None:
            self.fault_check("virtio.net_tx_ring", device=self.name, pair=pair)
        txq = self.tx_queue(pair)
        ring = self._ring(txq)
        batch = []
        table = ring.read_table()
        for head in ring.pop_available():
            chain = ring.read_chain(head, table)
            for desc in chain:
                if desc.device_writable:
                    raise VirtioError(
                        f"{self.name}: TX buffer must be device-readable"
                    )
            # One gathered copy for the whole chain.
            payload = self.mem.read_vectored(
                [(d.addr, d.length) for d in chain]
            )
            if len(payload) < C.VIRTIO_NET_HDR_SIZE + MIN_FRAME_SIZE:
                raise VirtioError(
                    f"{self.name}: runt TX frame ({len(payload)} bytes)"
                )
            frame = payload[C.VIRTIO_NET_HDR_SIZE:]
            self.frames_tx += 1
            if self._tx_sink is not None:
                self._tx_sink(frame, pair)
            batch.append((head, 0))
        self.publish_batch(txq, batch, "net_tx")

    # -- host/fabric -> guest --------------------------------------------------

    def deliver(self, frame: bytes, pair: Optional[int] = None) -> None:
        """Queue an inbound frame for the guest and flush what fits.

        ``pair=None`` steers by flow hash across the pairs the driver
        enabled, like an RSS indirection table.  Frames beyond the
        per-pair backlog are dropped, the way a real NIC drops on ring
        overflow — counted, never raised.
        """
        if len(frame) < MIN_FRAME_SIZE or len(frame) > MAX_FRAME_SIZE:
            raise VirtioError(
                f"{self.name}: bad inbound frame size {len(frame)}"
            )
        if pair is None:
            pair = self._steer(frame)
        if not 0 <= pair < self.queue_pairs:
            raise VirtioError(f"{self.name}: bad queue pair {pair}")
        pending = self._pending_rx[pair]
        if len(pending) >= self.RX_BACKLOG:
            self.rx_dropped += 1
            return
        pending.append(frame)
        self._flush_rx(pair)

    def _steer(self, frame: bytes) -> int:
        pairs = self.pairs_in_use
        if pairs == 1:
            return 0
        # Flow hash over the MAC pair: stable per flow, spread across
        # the enabled pairs.
        return zlib.crc32(frame[:MIN_FRAME_SIZE]) % pairs

    def _flush_rx(self, pair: int) -> None:
        rxq = self.rx_queue(pair)
        if not self.queues[rxq].ready:
            return
        if self.fault_check is not None:
            self.fault_check("virtio.net_rx_ring", device=self.name, pair=pair)
        ring = self._ring(rxq)
        self.absorb_posted(rxq)
        posted = self.posted_heads(rxq)
        pending = self._pending_rx[pair]
        batch = []
        while pending and posted:
            frame = pending.pop(0)
            head = posted.pop(0)
            chain = ring.read_chain(head)
            data = b"\x00" * C.VIRTIO_NET_HDR_SIZE + frame
            written = 0
            remaining = data
            iov = []
            for desc in chain:
                if not desc.device_writable:
                    raise VirtioError(
                        f"{self.name}: RX buffer must be device-writable"
                    )
                chunk = remaining[: desc.length]
                if chunk:
                    iov.append((desc.addr, chunk))
                written += len(chunk)
                remaining = remaining[len(chunk):]
                if not remaining:
                    break
            if remaining:
                raise VirtioError(
                    f"{self.name}: RX buffer too small for "
                    f"{len(frame)}-byte frame"
                )
            # One scattered copy for the whole chain.
            self.mem.write_vectored(iov)
            self.frames_rx += 1
            batch.append((head, written))
        self.publish_batch(rxq, batch, "net_rx")


class GuestVirtioNic:
    """Guest driver for vmsh-net: per-pair rings on the shared engine.

    TX rides :class:`QueuedWindowDriver` — the exact engine behind
    blk's queued API — so a burst of frames costs one doorbell per
    window under EVENT_IDX and the completion interrupt coalesces.
    """

    RX_BUFFER_SIZE = 2048
    RX_BUFFER_COUNT = 32
    QUEUE_SIZE = 64
    MAX_TX_WINDOW = 32

    def __init__(
        self,
        guest_kernel,
        transport: GuestVirtioTransport,
        name: str = "eth0",
        queue_pairs: int = 1,
    ):
        self.kernel = guest_kernel
        self.transport = transport
        self.name = name
        cfg = transport.read_config(0, 10)
        self.mac = cfg[:6]
        status, max_pairs = struct.unpack_from("<HH", cfg, 6)
        self.link_up = bool(status & C.VIRTIO_NET_S_LINK_UP)
        wanted = C.VIRTIO_NET_F_MAC | C.VIRTIO_NET_F_STATUS
        if queue_pairs > 1:
            wanted |= C.VIRTIO_NET_F_MQ
        transport.initialize(extra_features=wanted)
        if not transport.features & C.VIRTIO_NET_F_MQ:
            queue_pairs = 1
        self.queue_pairs = max(1, min(queue_pairs, max_pairs or 1))
        costs = guest_kernel.costs
        self._obs = costs.obs if costs is not None else None
        self.rx_rings = []
        self.tx_rings = []
        self._engines: List[QueuedWindowDriver] = []
        for pair in range(self.queue_pairs):
            rx = transport.setup_queue(2 * pair, self.QUEUE_SIZE)
            tx = transport.setup_queue(2 * pair + 1, self.QUEUE_SIZE)
            self.rx_rings.append(rx)
            self.tx_rings.append(tx)
            self._engines.append(
                QueuedWindowDriver(
                    ring=tx,
                    transport=transport,
                    queue_index=2 * pair + 1,
                    name=f"{name}.tx{pair}",
                    costs=costs,
                    obs=self._obs,
                    span_name="net.window",
                    track=f"net:{name}",
                    per_chain_cost=(
                        costs.guest_net_submit if costs is not None else None
                    ),
                )
            )
        self.bind_metrics()
        transport.driver_ok()
        rx_pages = (self.RX_BUFFER_SIZE * self.RX_BUFFER_COUNT + 4095) // 4096
        tx_pages = (self.RX_BUFFER_SIZE * self.MAX_TX_WINDOW + 4095) // 4096
        self._rx_gpa = [
            guest_kernel.alloc_guest_pages(rx_pages)
            for _ in range(self.queue_pairs)
        ]
        self._tx_gpa = [
            guest_kernel.alloc_guest_pages(tx_pages)
            for _ in range(self.queue_pairs)
        ]
        self._rx_chains: List[Dict[int, int]] = [
            {} for _ in range(self.queue_pairs)
        ]
        self._rx_callback: Optional[Callable[[bytes, int], None]] = None
        guest_kernel.register_irq(transport.irq_gsi, self._on_irq)
        for pair in range(self.queue_pairs):
            self._post_rx_buffers(pair)

    def bind_metrics(self) -> None:
        """Resolve the driver's registry handles (again, on a clone)."""
        if self._obs is not None:
            scope = self._obs.metrics.scope("net", role="driver", device=self.name)
            windows = scope.counter("windows")
            self._m_kicks = scope.counter("kicks")
            self._m_irq_coalesced = scope.counter("irq_coalesced")
            self._m_batch_depth = scope.histogram("batch_depth")
        else:
            windows = None
            self._m_kicks = None
            self._m_irq_coalesced = None
            self._m_batch_depth = None
        for engine in self._engines:
            engine._m_windows = windows

    # -- receive path ----------------------------------------------------------

    def on_receive(self, callback: Callable[[bytes, int], None]) -> None:
        """Register the net-stack consumer (``callback(frame, pair)``)."""
        self._rx_callback = callback

    def _post_rx_buffers(self, pair: int) -> None:
        ring = self.rx_rings[pair]
        chains = self._rx_chains[pair]
        for i in range(self.RX_BUFFER_COUNT):
            gpa = self._rx_gpa[pair] + i * self.RX_BUFFER_SIZE
            head = ring.add_chain([(gpa, self.RX_BUFFER_SIZE, True)])
            chains[head] = gpa
        if self._m_kicks is not None:
            self._m_kicks.inc()
        self.transport.notify(2 * pair)

    def _on_irq(self, gsi: int) -> None:
        self.transport.ack_interrupt()
        for pair in range(self.queue_pairs):
            ring = self.rx_rings[pair]
            chains = self._rx_chains[pair]
            completions = ring.collect_used()
            if completions and self._m_batch_depth is not None:
                self._m_batch_depth.observe(len(completions))
                if len(completions) > 1:
                    self._m_irq_coalesced.inc(len(completions) - 1)
            # Harvest the whole batch before reposting: add_chain may
            # hand back a head that is *later in this same batch*, and
            # reposting it early would clobber its chains[] entry and
            # deliver the wrong buffer's bytes.
            harvested = []
            for head, written in completions:
                gpa = chains.pop(head)
                harvested.append((gpa, self.kernel.memory.read(gpa, written)))
            for gpa, data in harvested:
                new_head = ring.add_chain(
                    [(gpa, self.RX_BUFFER_SIZE, True)]
                )
                chains[new_head] = gpa
                frame = data[C.VIRTIO_NET_HDR_SIZE:]
                if self._rx_callback is not None:
                    self._rx_callback(frame, pair)
        # TX completions are harvested by the window engine.

    # -- transmit path ---------------------------------------------------------

    def _tx_closures(self, pair: int):
        slot = self.RX_BUFFER_SIZE
        base = self._tx_gpa[pair]
        memory = self.kernel.memory

        def prepare(start, at, frame):
            if len(frame) < MIN_FRAME_SIZE or len(frame) > MAX_FRAME_SIZE:
                raise VirtioError(
                    f"{self.name}: bad TX frame size {len(frame)}"
                )
            gpa = base + at * slot
            memory.write(gpa, b"\x00" * C.VIRTIO_NET_HDR_SIZE + frame)
            total = C.VIRTIO_NET_HDR_SIZE + len(frame)
            return [(gpa, total, False)], start + at

        def consume(token, _written):
            pass

        return prepare, consume

    def send(self, frame: bytes, pair: int = 0) -> None:
        """Synchronous single-frame transmit (inline-kick mode only)."""
        self.send_burst([frame], pair=pair)

    def send_burst(self, frames: List[bytes], pair: int = 0) -> None:
        """Windowed transmit: one doorbell per window under EVENT_IDX."""
        prepare, consume = self._tx_closures(pair)
        self._engines[pair].run_queued(
            frames, self.MAX_TX_WINDOW, prepare, consume
        )

    def send_burst_task(self, frames: List[bytes], pair: int = 0):
        """Cooperative :meth:`send_burst` for scheduler tasks."""
        prepare, consume = self._tx_closures(pair)
        yield from self._engines[pair].run_queued_task(
            frames, self.MAX_TX_WINDOW, prepare, consume
        )
