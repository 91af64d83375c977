"""virtio-blk: device backends and the guest block driver.

The same device class serves two masters:

* **qemu-blk** — instantiated inside the hypervisor process with an
  :class:`~repro.virtio.memio.InProcessAccessor` and a raw-disk
  backend whose IO goes through hypervisor syscalls (and therefore
  gets taxed by wrap_syscall tracing, Fig. 6);
* **vmsh-blk** — instantiated inside the VMSH process with a
  :class:`~repro.virtio.memio.RemoteProcessAccessor` and a
  memory-mapped file-system image backend (§5: "we optimise the
  performance by mapping the block device as a file into memory").
  Like a private file mapping, the backend reads every page from the
  one shared image until it writes that page, and then keeps its own
  copy: attaching a session copies nothing.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List

from repro.errors import VirtioError
from repro.guestos.blockcore import BlockDevice
from repro.host.kernel import HostKernel
from repro.host.process import Thread
from repro.sim.costs import CostModel
from repro.sim.sched import run_inline
from repro.units import SECTOR_SIZE
from repro.virtio import constants as C
from repro.virtio.core import QueuedWindowDriver, VirtioDeviceCore
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.mmio import GuestVirtioTransport

BLK_HEADER_SIZE = 16


# ---------------------------------------------------------------------------
# Storage backends (host side)
# ---------------------------------------------------------------------------

class BlockBackend:
    """Host-side storage behind a virtio-blk device."""

    capacity_sectors: int = 0

    def read(self, sector: int, count: int) -> bytes:
        raise NotImplementedError

    def write(self, sector: int, data: bytes) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Durability barrier; default no-op."""


class RawDiskBackend(BlockBackend):
    """Hypervisor backend: pread/pwrite on a raw host disk/file.

    Every IO is a syscall by the hypervisor's iothread, which is the
    reason qemu-blk slows down when VMSH's wrap_syscall tracer is
    attached to the hypervisor: the tracer stops the thread at each
    syscall boundary.
    """

    def __init__(
        self,
        kernel: HostKernel,
        iothread: Thread,
        disk_fd: int,
        capacity_sectors: int,
    ):
        self._kernel = kernel
        self._iothread = iothread
        self._fd = disk_fd
        self.capacity_sectors = capacity_sectors

    def read(self, sector: int, count: int) -> bytes:
        return self._kernel.syscall(
            self._iothread, "pread", self._fd, sector * SECTOR_SIZE, count * SECTOR_SIZE
        )

    def write(self, sector: int, data: bytes) -> None:
        if not data or len(data) % SECTOR_SIZE:
            # A torn sector written here would be replayed faithfully
            # by every snapshot restore — reject it at the device edge,
            # mirroring the _service_request OUT-buffer check.
            raise VirtioError(
                f"disk write of {len(data)} bytes is not a sector multiple"
            )
        self._kernel.syscall(
            self._iothread, "pwrite", self._fd, sector * SECTOR_SIZE, data
        )

    def flush(self) -> None:
        self._kernel.syscall(self._iothread, "fsync", self._fd)


class MappedImageBackend(BlockBackend):
    """VMSH backend: the file-system image mapped privately into the
    VMSH process.

    Like a private file mapping, every range reads from the image until
    it is written: the image stays one shared read-only *base*, and the
    first write to a ``CHUNK``-byte chunk gives this backend its own
    copy of that chunk.  Reads and writes are in-process memcpys (plus
    write-back handled by the host's page cache, which we fold into
    the copy cost).  This is the §5-optimised path; the ablation
    benchmark swaps the accessor, not this backend.
    """

    #: copy-on-write granularity: the backend takes a few Python steps
    #: per chunk, which made 4 KiB pages 4-5x slower than one flat copy
    #: on 256 KiB and 1 MiB requests; a 4 KiB write into a chunk not
    #: yet written copies 64 KiB, once
    CHUNK = 64 * 1024

    def __init__(self, costs: CostModel, image_bytes: bytes, writable: bool = True):
        self._costs = costs
        # A writable buffer is copied once, so its owner's later writes
        # never show through; a read-only one is shared as it is.
        view = memoryview(image_bytes)
        self._base = image_bytes if view.readonly else bytes(view)
        #: chunk index -> this backend's copy of that chunk
        self._chunks: Dict[int, bytearray] = {}
        self.writable = writable
        self.capacity_sectors = view.nbytes // SECTOR_SIZE

    def _span(self, start: int, end: int):
        """``(index, skip, at, stop)`` for each chunk that image bytes
        ``[start, end)`` touch: bytes ``at..stop`` lie in chunk
        ``index``, from ``skip`` bytes into it."""
        size = self.CHUNK
        at = start
        while at < end:
            index, skip = divmod(at, size)
            stop = min(end, at - skip + size)
            yield index, skip, at, stop
            at = stop

    def _contents(self, start: int, end: int) -> bytes:
        """Image bytes ``[start, end)``: the backend's own chunks where
        it wrote, the base everywhere else."""
        base, chunks = memoryview(self._base), self._chunks
        pieces = []
        for index, skip, at, stop in self._span(start, end):
            chunk = chunks.get(index)
            pieces.append(base[at:stop] if chunk is None else
                          memoryview(chunk)[skip : skip + stop - at])
        return b"".join(pieces)

    def read(self, sector: int, count: int) -> bytes:
        if sector < 0 or count < 0:
            raise VirtioError(f"read of {count} sectors at sector {sector}: negative")
        start = sector * SECTOR_SIZE
        end = start + count * SECTOR_SIZE
        if end > len(self._base):
            raise VirtioError("read beyond image end")
        self._costs.memcpy(end - start)
        return self._contents(start, end)

    def write(self, sector: int, data: bytes) -> None:
        if not self.writable:
            raise VirtioError("image is read-only")
        if not data or len(data) % SECTOR_SIZE:
            # Bounds alone let a short write tear a sector in the
            # mapped image; reject non-sector-multiple lengths exactly
            # like the _service_request IOERR path expects.
            raise VirtioError(
                f"image write of {len(data)} bytes is not a sector multiple"
            )
        if sector < 0:
            raise VirtioError(f"write at sector {sector}: negative")
        start = sector * SECTOR_SIZE
        end = start + len(data)
        if end > len(self._base):
            raise VirtioError("write beyond image end")
        self._costs.memcpy(len(data))
        source, base, chunks = memoryview(data), memoryview(self._base), self._chunks
        for index, skip, at, stop in self._span(start, end):
            chunk = chunks.get(index)
            if chunk is None:
                offset = at - skip
                chunk = chunks[index] = bytearray(base[offset : offset + self.CHUNK])
            # through a view: a bytearray slice assignment copies twice
            memoryview(chunk)[skip : skip + stop - at] = source[at - start : stop - start]

    def snapshot(self) -> bytes:
        """Current image contents (for persisting changes)."""
        return self._contents(0, len(self._base))


# ---------------------------------------------------------------------------
# Device (host side)
# ---------------------------------------------------------------------------

def blk_config_space(capacity_sectors: int) -> bytes:
    """virtio-blk config: u64 capacity in 512-byte sectors."""
    return struct.pack("<Q", capacity_sectors)


class VirtioBlkDevice(VirtioDeviceCore):
    """The virtio-blk device-side implementation (request queue 0)."""

    QUEUE_COUNT = 1

    def __init__(
        self,
        accessor: GuestMemoryAccessor,
        irq_signal: Callable[[], None],
        costs: CostModel,
        backend: BlockBackend,
        name: str = "virtio-blk",
        offer_event_idx: bool = True,
    ):
        super().__init__(
            device_id=C.DEVICE_ID_BLOCK,
            accessor=accessor,
            irq_signal=irq_signal,
            costs=costs,
            config_space=blk_config_space(backend.capacity_sectors),
            name=name,
            offer_event_idx=offer_event_idx,
        )
        self.backend = backend

    def process_queue(self, index: int) -> None:
        if index != 0:
            raise VirtioError(f"{self.name}: notify for unknown queue {index}")
        ring = self._ring(0)
        heads = ring.pop_available()
        if not heads:
            return
        batch_span = self.begin_batch_span("blk.batch", index, len(heads))
        table = ring.read_table()
        batch = []
        for head in heads:
            batch.append((head, self._service_request(head, table)))
        # All completions of one notification window are published with
        # a single scattered write; under EVENT_IDX the ring decides
        # whether the driver asked to be interrupted for this batch.
        self.publish_batch(0, batch, span=batch_span)

    def _service_request(self, head: int, table: bytes) -> int:
        ring = self._ring(0)
        chain = ring.read_chain(head, table)
        if len(chain) < 2:
            raise VirtioError(f"{self.name}: short descriptor chain")
        header = self.mem.read(chain[0].addr, BLK_HEADER_SIZE)
        req_type, _reserved, sector = struct.unpack("<IIQ", header)
        data_descs = chain[1:-1]
        status_desc = chain[-1]
        if not status_desc.device_writable or status_desc.length < 1:
            raise VirtioError(f"{self.name}: bad status descriptor")

        written = 0
        try:
            if req_type == C.VIRTIO_BLK_T_IN:
                # One backend read for the whole request, then one
                # scattered copy into the guest's buffers.
                total = sum(d.length for d in data_descs)
                if total % SECTOR_SIZE:
                    raise VirtioError(
                        f"{self.name}: IN data buffers sum to {total} bytes, "
                        "not a sector multiple"
                    )
                payload = self.backend.read(sector, total // SECTOR_SIZE)
                iov = []
                at = 0
                for desc in data_descs:
                    if not desc.device_writable:
                        raise VirtioError("read request with device-read-only buffer")
                    iov.append((desc.addr, payload[at : at + desc.length]))
                    at += desc.length
                    written += desc.length
                self.mem.write_vectored(iov)
            elif req_type == C.VIRTIO_BLK_T_OUT:
                # One gathered copy over the whole chain, one backend write.
                data = self.mem.read_vectored(
                    [(d.addr, d.length) for d in data_descs]
                )
                if len(data) % SECTOR_SIZE:
                    raise VirtioError(
                        f"{self.name}: OUT data buffers sum to {len(data)} bytes, "
                        "not a sector multiple"
                    )
                self.backend.write(sector, data)
            elif req_type == C.VIRTIO_BLK_T_FLUSH:
                self.backend.flush()
            else:
                self.mem.write(status_desc.addr, bytes([C.VIRTIO_BLK_S_UNSUPP]))
                return 1
        except VirtioError:
            # A failed request transferred nothing the driver may rely
            # on: report only the status byte, never the pre-failure
            # accumulator of a chain that errored midway.
            self.mem.write(status_desc.addr, bytes([C.VIRTIO_BLK_S_IOERR]))
            return 1
        self.mem.write(status_desc.addr, bytes([C.VIRTIO_BLK_S_OK]))
        return written + 1


# ---------------------------------------------------------------------------
# Guest driver
# ---------------------------------------------------------------------------

class GuestVirtioBlkDisk(BlockDevice):
    """Guest block device backed by a virtio queue (qemu-blk or vmsh-blk).

    Requests use one descriptor per 4 KiB page of payload, as real
    guests do for non-contiguous pages; the device pays its memory
    accessor's per-descriptor cost, which is what separates qemu-blk
    from vmsh-blk on large requests.
    """

    supports_pquota = False  # virtio transports expose no quota metadata

    def __init__(self, guest_kernel, transport: GuestVirtioTransport, name: str):
        self.kernel = guest_kernel
        self.transport = transport
        self.name = name
        cfg = transport.read_config(0, 8)
        self._capacity_sectors = struct.unpack("<Q", cfg)[0]
        transport.initialize()
        self.ring = transport.setup_queue(0, C.DEFAULT_QUEUE_SIZE)
        transport.driver_ok()
        # DMA bounce buffers: a header+status page and a data pool,
        # both sliced into one slot per chain of a window, so a window's
        # requests are in flight against disjoint buffers (a synchronous
        # request's one-chain window uses the whole pool).
        self._hdr_gpa = guest_kernel.alloc_guest_pages(1)
        self._data_gpa = guest_kernel.alloc_guest_pages(128)   # 512 KiB pool
        self._data_pool_bytes = 128 * 4096
        self.iodepth = 1
        guest_kernel.register_irq(transport.irq_gsi, self._on_irq)
        # The shared driver-side engine owns doorbells, window posting
        # and harvesting; blk contributes the request encoding and the
        # status/data read-back as closures.
        costs = guest_kernel.costs
        self._engine = QueuedWindowDriver(
            ring=self.ring,
            transport=transport,
            queue_index=0,
            name=name,
            costs=costs,
            span_name="blk.window",
            track=f"blk:{name}",
            per_chain_cost=costs.guest_block_submit,
        )

    @property
    def capacity_sectors(self) -> int:
        return self._capacity_sectors

    MAX_IODEPTH = 64    # header page: 64 slots of 32 B (16 B hdr + status)

    def set_iodepth(self, depth: int) -> None:
        """Configure the in-flight window for the queued submission API.

        Depth 1 (the default) submits one-chain windows, as the
        synchronous calls always do; deeper windows submit ``depth``
        chains back to back and — with EVENT_IDX negotiated — ring the
        doorbell once per window.
        """
        if not 1 <= depth <= self.MAX_IODEPTH:
            raise VirtioError(f"iodepth {depth} out of range 1..{self.MAX_IODEPTH}")
        self.iodepth = depth

    # -- BlockDevice interface ---------------------------------------------------------

    def read_sectors(self, sector: int, count: int) -> bytes:
        self._check(sector, count)
        return b"".join(self._run_sync([
            (C.VIRTIO_BLK_T_IN, at, nbytes, None)
            for at, _, nbytes in self._chunks(sector, count)
        ]))

    def write_sectors(self, sector: int, data: bytes) -> None:
        if len(data) % SECTOR_SIZE:
            raise VirtioError("write must be sector aligned")
        count = len(data) // SECTOR_SIZE
        self._check(sector, count)
        self._run_sync([
            (C.VIRTIO_BLK_T_OUT, at, nbytes, data[offset : offset + nbytes])
            for at, offset, nbytes in self._chunks(sector, count)
        ])

    def flush(self) -> None:
        self._run_sync([(C.VIRTIO_BLK_T_FLUSH, 0, 0, None)])

    # -- request machinery ------------------------------------------------------------------

    def _chunks(self, sector: int, count: int):
        """Split a request to fit the DMA pool (512 KiB per op): each
        op's sector, byte offset into the request and byte count."""
        step = self._data_pool_bytes // SECTOR_SIZE
        for at in range(sector, sector + count, step):
            yield (at, (at - sector) * SECTOR_SIZE,
                   min(step, sector + count - at) * SECTOR_SIZE)

    def _run_sync(self, ops) -> List[bytes]:
        """Run a synchronous call's ops inline, each in a one-chain
        window: the queued body at depth 1."""
        return run_inline(self._run_queued_task(ops, 1), self.kernel.costs.clock)

    def _data_segments(self, nbytes: int, base: int):
        """One descriptor per 4 KiB page of payload."""
        return [(base + at, min(4096, nbytes - at)) for at in range(0, nbytes, 4096)]

    # -- queued submission ----------------------------------------------------------

    def read_sectors_queued(self, requests) -> List[bytes]:
        """Read ``[(sector, count), ...]`` with up to ``iodepth`` in flight."""
        return run_inline(
            self.read_sectors_queued_task(requests), self.kernel.costs.clock
        )

    def write_sectors_queued(self, requests) -> None:
        """Write ``[(sector, data), ...]`` with up to ``iodepth`` in flight."""
        run_inline(
            self.write_sectors_queued_task(requests), self.kernel.costs.clock
        )

    def read_sectors_queued_task(self, requests):
        """Cooperative :meth:`read_sectors_queued` for scheduler tasks.

        Completions are harvested by polling the used ring, and between
        polls the task yields — so when the device host is serviced by
        a scheduler task (possibly in another VM's session), submission
        and completion interleave with the rest of the fleet.
        """
        ops = []
        for sector, count in requests:
            self._check(sector, count)
            ops.append((C.VIRTIO_BLK_T_IN, sector, count * SECTOR_SIZE, None))
        return (yield from self._run_queued_task(ops, self.iodepth))

    def write_sectors_queued_task(self, requests):
        """Cooperative :meth:`write_sectors_queued` for scheduler tasks."""
        ops = []
        for sector, data in requests:
            if len(data) % SECTOR_SIZE:
                raise VirtioError("write must be sector aligned")
            self._check(sector, len(data) // SECTOR_SIZE)
            ops.append((C.VIRTIO_BLK_T_OUT, sector, len(data), data))
        yield from self._run_queued_task(ops, self.iodepth)

    def _run_queued_task(self, ops, depth: int):
        """Run ``ops`` in windows of ``depth``; the result lists the data
        each op read.

        The one body behind every request of this driver.  The shared
        :class:`QueuedWindowDriver` drives doorbells and harvesting; the
        closures here contribute the virtio-blk request encoding
        (header + per-page data descriptors + status byte), over one DMA
        slot per in-flight op, and the status/data read-back.
        """
        slot_bytes = (self._data_pool_bytes // depth) & ~4095
        results: List[bytes] = [b""] * len(ops)
        memory = self.kernel.memory

        def prepare(start, at, op):
            req_type, sector, nbytes, payload = op
            if nbytes > slot_bytes:
                raise VirtioError(
                    f"{self.name}: {nbytes}-byte request exceeds the "
                    f"{slot_bytes}-byte slot at iodepth {depth}"
                )
            hdr_gpa = self._hdr_gpa + at * 32
            status_gpa = hdr_gpa + BLK_HEADER_SIZE
            data_gpa = self._data_gpa + at * slot_bytes
            memory.write(hdr_gpa, struct.pack("<IIQ", req_type, 0, sector))
            if payload is not None:
                memory.write(data_gpa, payload)
            writable = req_type == C.VIRTIO_BLK_T_IN
            buffers = [(hdr_gpa, BLK_HEADER_SIZE, False)]
            buffers += [
                (gpa, length, writable)
                for gpa, length in self._data_segments(nbytes, data_gpa)
            ]
            buffers.append((status_gpa, 1, True))
            return buffers, (start + at, status_gpa, data_gpa, nbytes, writable)

        def consume(token, _written):
            index, status_gpa, data_gpa, nbytes, writable = token
            self._check_status(status_gpa)
            if writable:
                results[index] = memory.read(data_gpa, nbytes)

        yield from self._engine.run_queued_task(ops, depth, prepare, consume)
        return results

    def _check_status(self, status_gpa: int) -> None:
        status = self.kernel.memory.read(status_gpa, 1)[0]
        if status == C.VIRTIO_BLK_S_OK:
            return
        if status == C.VIRTIO_BLK_S_UNSUPP:
            raise VirtioError(f"{self.name}: unsupported request")
        raise VirtioError(f"{self.name}: IO error (status {status})")

    def _on_irq(self, gsi: int) -> None:
        self.transport.ack_interrupt()
