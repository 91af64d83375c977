"""The shared virtio device core (DESIGN.md §17).

Before this module existed, ``blk.py``, ``console.py`` and
``vmexec.py`` each hand-rolled the same machinery on top of the raw
MMIO register block: batched used-ring publication with EVENT_IDX
interrupt coalescing on the device side, posted receive-buffer
bookkeeping, windowed multi-request submission with one doorbell per
window on the driver side, and the deferred-kick FIFO that lets a
scheduler task service many devices interleaved.  Three copies of the
same idiom made every new device — virtio-net above all — a
copy-paste liability.

This module is the single home for all of it, and the only code
outside ``vring.py`` that adds chains, collects completions, writes
``used_event``, publishes used elements or raises interrupts:

* :class:`VirtioDeviceCore` — the device-side base.  It owns feature
  negotiation (via :class:`VirtioMmioDevice`, including device-specific
  feature bits passed as ``extra_features``), per-queue EVENT_IDX ring
  state, the per-device batch-depth histogram, posted-buffer lists per
  queue, and :meth:`publish_batch`: one scattered used-ring write per
  notification window, interrupt coalescing under EVENT_IDX, and the
  exact cost/span bookkeeping order the chaos suites pin.  Every
  device (blk, console, vm-exec, net) completes through it.
* :class:`QueuedWindowDriver` — the driver-side engine behind every
  ``GuestVirtioBlkDisk`` request (a synchronous one is a one-chain
  window) and ``GuestVirtioNic``'s TX path: post a window of chains,
  defer per-chain doorbells into one kick when EVENT_IDX is negotiated
  (raising ``used_event`` so the completion interrupt coalesces too),
  then harvest: one generator a scheduler task runs or a synchronous
  call runs inline.
* :class:`GuestRxPath` / :class:`GuestTxPath` — the console, vm-exec
  and net drivers' receive path (posted fixed-size buffers, harvested
  and re-posted) and the console and vm-exec transmit path (sends that
  do not wait for completion).  Each chain's buffer is its
  ``DriverRing`` token, so the ring is the only record of which
  buffer a completion returns.
* :class:`VirtioServiceHost` — the service-task kick FIFO extracted
  from ``VmshDeviceHost``: QUEUE_NOTIFY kicks land in a deduplicated
  FIFO and a scheduler task services one queue per turn, so several
  hosts' devices drain interleaved in seed-determined order.

Byte-identity matters here: the cost charges, span begin/end and
counter bumps happen in exactly the order the pre-refactor devices
made them, so seeded traces are unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import VirtioError, VmshError
from repro.sim.costs import CostModel
from repro.sim.sched import Completion, Poll, Scheduler, Task
from repro.units import PAGE_SIZE
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.mmio import VirtioMmioDevice


class VirtioDeviceCore(VirtioMmioDevice):
    """Device-side base class shared by blk/console/vmexec/net.

    Adds to the raw MMIO register block:

    * ``extra_features`` — device-class feature bits (e.g. virtio-net's
      MAC/MQ) OR-ed into the offer after the transport-level bits;
    * the ``virtio{device=...}.batch_depth`` histogram every device
      reports (its requests are its rings' ``vring.used_entries``);
    * the posted-buffer list of a receive-style queue, kept by its
      :class:`DeviceRing` (:meth:`posted_heads` / :meth:`absorb_posted`),
      and :meth:`fill_posted` to write a payload into the next one;
    * :meth:`publish_batch` — the one true completion-publication path.
    """

    def __init__(
        self,
        device_id: int,
        accessor: GuestMemoryAccessor,
        irq_signal: Callable[[], None],
        costs: CostModel,
        config_space: bytes = b"",
        name: str = "virtio-dev",
        offer_event_idx: bool = True,
        extra_features: int = 0,
    ):
        super().__init__(
            device_id=device_id,
            accessor=accessor,
            irq_signal=irq_signal,
            costs=costs,
            config_space=config_space,
            name=name,
            offer_event_idx=offer_event_idx,
        )
        self.device_features |= extra_features
        self._m_batch_depth = costs.obs.metrics.scope(
            "virtio", device=name
        ).histogram("batch_depth")

    # -- posted receive buffers ----------------------------------------------

    def posted_heads(self, index: int) -> List[int]:
        """The driver-posted (not yet consumed) chain heads of a queue."""
        return self._ring(index).posted

    def absorb_posted(self, index: int) -> List[int]:
        """Pull newly-published chains into the queue's posted list."""
        ring = self._ring(index)
        ring.posted.extend(ring.pop_available())
        return ring.posted

    def fill_posted(self, index: int, payload: bytes) -> Tuple[int, int]:
        """Scatter ``payload`` over the queue's next posted chain.

        One vectored write for the whole chain; returns the used
        element ``(head, written)`` for :meth:`publish_batch`.
        """
        ring = self._ring(index)
        head = ring.posted.pop(0)
        iov = []
        written = 0
        for desc in ring.read_chain(head):
            if not desc.device_writable:
                raise VirtioError(
                    f"{self.name}: RX buffer must be device-writable"
                )
            chunk = payload[written : written + desc.length]
            if chunk:
                iov.append((desc.addr, chunk))
            written += len(chunk)
            if written == len(payload):
                break
        if written < len(payload):
            raise VirtioError(
                f"{self.name}: RX buffer too small for "
                f"{len(payload)}-byte payload"
            )
        self.mem.write_vectored(iov)
        return head, written

    # -- completion publication ----------------------------------------------

    def begin_batch_span(self, span_name: str, index: int, depth: int):
        """Open the per-batch span :meth:`publish_batch` closes."""
        return self.costs.obs.spans.begin(
            span_name, track=f"dev:{self.name}", queue=index, depth=depth,
        )

    def publish_batch(
        self,
        index: int,
        batch,
        before_publish: Optional[Callable[[], None]] = None,
        span=None,
    ) -> bool:
        """Publish one notification window's completions.

        One scattered used-ring write for the whole batch; under
        EVENT_IDX the ring decides whether the driver asked to be
        interrupted, and a multi-completion interrupt counts its
        coalesced peers.  ``before_publish`` is the device's per-batch
        cost hook (e.g. the console's pts hop), charged between the
        batch accounting and the ring write — exactly where the
        pre-core devices charged it.  Returns True when the interrupt
        was delivered.
        """
        if not batch:
            return False
        self._m_batch_depth.observe(len(batch))
        if before_publish is not None:
            before_publish()
        if self._ring(index).push_used_batch(batch):
            if len(batch) > 1:
                self.costs.virtio_irq_coalesced(len(batch) - 1)
            if span is not None:
                self.costs.obs.spans.end(span, interrupt="delivered")
            self.raise_interrupt()
            return True
        if span is not None:
            self.costs.obs.spans.end(span, interrupt="suppressed")
        return False


class QueuedWindowDriver:
    """Driver-side queued submission shared by blk and net.

    Posts windows of descriptor chains with per-chain doorbells in
    always-notify mode, or — with EVENT_IDX negotiated — one doorbell
    per window after raising ``used_event`` to the window's last
    completion (so the device coalesces the completion interrupt too).
    Every blk request runs here; a synchronous one is a one-chain
    window.
    The device-specific parts stay with the caller as two closures:

    * ``prepare(start, at, op) -> (buffers, token)`` — write the op's
      DMA buffers and describe its descriptor chain; ``token`` travels
      to ``consume`` when the chain completes.
    * ``consume(token, written)`` — check status / read back data.
    """

    def __init__(
        self,
        ring,
        transport,
        queue_index: int,
        name: str,
        costs: CostModel,
        span_name: str,
        per_chain_cost: Callable[[], None],
        track: Optional[str] = None,
    ):
        self.ring = ring
        self.transport = transport
        self.queue_index = queue_index
        self.name = name
        self._costs = costs
        self._span_name = span_name
        self._track = track
        self._per_chain_cost = per_chain_cost

    def kick(self) -> None:
        """Ring the doorbell unless the device is known to be looking."""
        if self.ring.kick_prepare():
            self.transport.notify(self.queue_index)
        else:
            self._costs.virtio_kick_suppressed()
        self.ring.note_kick()

    def post_window(self, start: int, window, prepare) -> dict:
        """Submit one in-flight window and kick.

        Without EVENT_IDX the driver must assume the device only looks
        at the queue when kicked, so every chain rings the doorbell
        (the device never publishes ``VRING_USED_F_NO_NOTIFY``).  With
        EVENT_IDX the window's doorbells collapse into one: the driver
        raises ``used_event`` to the window's last completion before
        kicking, so the device also coalesces the completion interrupt.
        A one-chain window leaves ``used_event`` alone: it wants the
        interrupt of the very next completion, which the last
        :meth:`DriverRing.collect_used` already asked for.
        """
        inflight: dict = {}
        for at, op in enumerate(window):
            buffers, token = prepare(start, at, op)
            self._per_chain_cost()
            head = self.ring.add_chain(buffers)
            inflight[head] = token
            if not self.ring.event_idx:
                self.kick()
        if self.ring.event_idx:
            if len(window) > 1:
                self.ring.set_used_event(
                    (self.ring.last_used + len(window) - 1) & 0xFFFF
                )
            self.kick()
            if len(window) > 1:
                # Doorbells the in-flight window deferred into one kick.
                self._costs.virtio_kick_suppressed(len(window) - 1)
        return inflight

    def harvest(self, completions, inflight: dict, consume) -> None:
        for head, written in completions:
            token = inflight.pop(head, None)
            if token is None:
                raise VirtioError(f"{self.name}: spurious completion {head}")
            consume(token, written)

    def run_queued_task(self, ops, depth: int, prepare, consume):
        """Submit windows of ``depth`` ops, kick, harvest each whole.

        Completions are harvested by polling the used ring, and between
        polls the task yields — so when the device is serviced by a
        scheduler task, submission and completion interleave with the
        rest of the fleet.  Run inline, a device that serviced the kick
        at once leaves nothing to poll.
        """
        for start in range(0, len(ops), depth):
            window = ops[start : start + depth]
            # begin/end rather than the context manager: the span must
            # survive the scheduler yields between submit and harvest.
            span = self._costs.obs.spans.begin(
                self._span_name, track=self._track, start=start,
                depth=len(window),
            )
            waits = 0
            try:
                inflight = self.post_window(start, window, prepare)
                while inflight:
                    self.harvest(self.ring.collect_used(), inflight, consume)
                    if inflight:
                        # The device host's service task has not reached
                        # this queue yet; let other events run.
                        waits += 1
                        yield Poll(f"{self.name}:harvest")
            except Exception:
                # A failed window (a request error, or, run inline, the
                # SchedulerError of a poll nothing else can satisfy)
                # closes its span, or later spans on the track would
                # nest under it.
                self._costs.obs.spans.end(span, waits=waits)
                raise
            self._costs.obs.spans.end(span, waits=waits)


class _GuestQueuePath:
    """One queue of a guest driver whose buffers the ring names.

    Each chain carries its buffer's gpa as its :class:`DriverRing`
    token, so the ring alone knows which buffer a completion returns
    (and a snapshot of the ring captures it).
    """

    def __init__(self, kernel, transport, ring, index: int) -> None:
        self._kernel = kernel
        self.transport = transport
        self.ring = ring
        self.index = index


class GuestRxPath(_GuestQueuePath):
    """Guest receive path: ``count`` posted buffers of ``size`` bytes.

    :meth:`harvest` reads every filled buffer before it re-posts any,
    then re-posts each one as it hands that buffer's data out, so a
    consumer that makes the device fill a re-posted buffer again cannot
    overwrite data not yet read.
    """

    def __init__(self, kernel, transport, ring, index: int,
                 size: int, count: int) -> None:
        super().__init__(kernel, transport, ring, index)
        self.size = size
        self.count = count
        self.base = kernel.alloc_guest_pages((size * count + 4095) // 4096)

    def post(self) -> None:
        """Post every buffer and kick once."""
        for at in range(self.count):
            self._post_buffer(self.base + at * self.size)
        self.transport.notify(self.index)

    def _post_buffer(self, gpa: int) -> None:
        self.ring.add_chain([(gpa, self.size, True)], gpa)

    def harvest(self):
        """Yield the data of each completed buffer, in completion order."""
        memory = self._kernel.memory
        filled = [
            (gpa, memory.read(gpa, written))
            for gpa, written in self.ring.collect_used()
        ]
        for gpa, data in filled:
            self._post_buffer(gpa)
            yield data


class GuestTxPath(_GuestQueuePath):
    """Guest transmit path for sends that do not wait for completion.

    A send takes a free slot of ``pages`` guest pages, and a larger send
    raises before anything is written; a slot is free again once its
    completion is collected.  One more slot is allocated only when
    every slot is in flight, up to the ring's size: a device serviced
    inline completes each send before the next, so the first slot is
    the only one.
    """

    def __init__(self, kernel, transport, ring, index: int,
                 pages: int) -> None:
        super().__init__(kernel, transport, ring, index)
        self.pages = pages
        self.slots = [kernel.alloc_guest_pages(pages)]

    def _free_slot(self) -> Optional[int]:
        busy = self.ring.in_flight_tokens()
        return next((gpa for gpa in self.slots if gpa not in busy), None)

    def send(self, data: bytes) -> None:
        if len(data) > self.pages * PAGE_SIZE:
            raise VirtioError(
                f"queue {self.index}: {len(data)}-byte send exceeds its "
                f"{self.pages * PAGE_SIZE}-byte slot"
            )
        slot = self._free_slot()
        if slot is None:
            # Completions the device published since the last send.
            self.ring.collect_used()
            slot = self._free_slot()
        if slot is None:
            if len(self.slots) == self.ring.size:
                raise VirtioError(
                    f"queue {self.index}: all {self.ring.size} "
                    "transmit slots in flight"
                )
            slot = self._kernel.alloc_guest_pages(self.pages)
            self.slots.append(slot)
        self._kernel.memory.write(slot, data)
        self.ring.add_chain([(slot, len(data), False)], slot)
        self.transport.notify(self.index)
        self.ring.collect_used()


class VirtioServiceHost:
    """Deferred-kick servicing shared by device hosts (scheduler mode).

    Subclasses provide :meth:`devices`; while a service task is
    installed, every QUEUE_NOTIFY lands in a deduplicated FIFO and the
    task services one queue per scheduling turn — so two hosts' devices
    drain their virtqueues interleaved, in seed-determined order.
    """

    def _init_service_fifo(self) -> None:
        # Pending (device, queue) kicks in arrival order, drained by
        # the service task.
        self._pending_kicks: list = []
        self._service_task: Optional[Task] = None
        self._service_stop = False
        self._service_wake: Optional[Completion] = None

    def devices(self) -> list:
        raise NotImplementedError

    def start_service_task(self, scheduler: Scheduler,
                           label: str = "vmsh-dev") -> Task:
        """Drain queue kicks from a scheduler task instead of inline."""
        if self._service_task is not None and not self._service_task.done:
            raise VmshError("device host already has a service task")
        self._service_stop = False
        for device in self.devices():
            device.defer_kicks(
                lambda index, device=device: self._sink_kick(device, index)
            )
        self._service_task = scheduler.spawn(self._service_loop(), label=label)
        return self._service_task

    def stop_service_task(self) -> None:
        """Restore inline kicks, drain leftovers, let the task finish."""
        for device in self.devices():
            device.defer_kicks(None)
        self._service_stop = True
        wake = self._service_wake
        if wake is not None and not wake.done:
            wake.set()
        # Nothing may be lost across the mode switch: service whatever
        # the task had not reached yet, inline and in order.
        while self._pending_kicks:
            device, index = self._pending_kicks.pop(0)
            device.process_queue(index)

    def _sink_kick(self, device: VirtioMmioDevice, index: int) -> None:
        entry = (device, index)
        if entry not in self._pending_kicks:  # coalesce repeat doorbells
            self._pending_kicks.append(entry)
        wake = self._service_wake
        if wake is not None and not wake.done:
            wake.set()

    def _service_loop(self):
        while True:
            if self._pending_kicks:
                device, index = self._pending_kicks.pop(0)
                device.process_queue(index)
                yield f"{device.name}:q{index}"
            elif self._service_stop:
                return
            else:
                self._service_wake = Completion()
                yield self._service_wake
                self._service_wake = None
