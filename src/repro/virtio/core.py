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

This module is the single home for all of it:

* :class:`VirtioDeviceCore` — the device-side base.  It owns feature
  negotiation (via :class:`VirtioMmioDevice`, including device-specific
  feature bits passed as ``extra_features``), per-queue EVENT_IDX ring
  state, per-device batch metrics, posted-buffer lists per queue, and
  :meth:`publish_batch`: one scattered used-ring write per
  notification window, interrupt coalescing under EVENT_IDX, and the
  exact cost/span bookkeeping order the chaos suites pin.
* :class:`QueuedWindowDriver` — the driver-side engine behind
  ``GuestVirtioBlkDisk``'s queued API and ``GuestVirtioNic``'s TX
  path: post a window of chains, defer per-chain doorbells into one
  kick when EVENT_IDX is negotiated (raising ``used_event`` so the
  completion interrupt coalesces too), then harvest, cooperatively or
  inline.
* :class:`VirtioServiceHost` — the service-task kick FIFO extracted
  from ``VmshDeviceHost``: QUEUE_NOTIFY kicks land in a deduplicated
  FIFO and a scheduler task services one queue per turn, so several
  hosts' devices drain interleaved in seed-determined order.

Byte-identity matters here: the cost charges, span begin/end and
counter bumps happen in exactly the order the pre-refactor devices
made them, so seeded traces are unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import VirtioError, VmshError
from repro.sim.costs import CostModel
from repro.sim.sched import Completion, Scheduler, Task
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.mmio import VirtioMmioDevice


class VirtioDeviceCore(VirtioMmioDevice):
    """Device-side base class shared by blk/console/vmexec/net.

    Adds to the raw MMIO register block:

    * ``extra_features`` — device-class feature bits (e.g. virtio-net's
      MAC/MQ) OR-ed into the offer after the transport-level bits;
    * a per-device ``virtio{device=...}`` metrics scope with the batch
      depth histogram and request counter every device reports;
    * posted-buffer lists per queue (:meth:`posted_heads` /
      :meth:`absorb_posted`) for receive-style queues;
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
        self._posted: Dict[int, List[int]] = {}
        self._obs = getattr(costs, "obs", None)
        self.bind_metrics()

    def bind_metrics(self) -> None:
        super().bind_metrics()
        if self._obs is not None:
            scope = self._obs.metrics.scope("virtio", device=self.name)
            self._m_batch_depth = scope.histogram("batch_depth")
            self._m_requests = scope.counter("requests")
        else:
            self._m_batch_depth = None
            self._m_requests = None

    # -- posted receive buffers ----------------------------------------------

    def posted_heads(self, index: int) -> List[int]:
        """The driver-posted (not yet consumed) chain heads of a queue."""
        heads = self._posted.get(index)
        if heads is None:
            heads = self._posted[index] = []
        return heads

    def absorb_posted(self, index: int) -> List[int]:
        """Pull newly-published chains into the queue's posted list."""
        heads = self.posted_heads(index)
        heads.extend(self._ring(index).pop_available())
        return heads

    # -- completion publication ----------------------------------------------

    def begin_batch_span(self, span_name: str, index: int, depth: int):
        """Open the per-batch span (``None`` when observability is off)."""
        if self._obs is None:
            return None
        return self._obs.spans.begin(
            span_name, track=f"dev:{self.name}", queue=index, depth=depth,
        )

    def publish_batch(
        self,
        index: int,
        batch,
        kind: str,
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
        self.costs.virtio_batch(kind, len(batch))
        if self._m_batch_depth is not None:
            self._m_batch_depth.observe(len(batch))
            self._m_requests.inc(len(batch))
        if before_publish is not None:
            before_publish()
        if self._ring(index).push_used_batch(batch):
            if len(batch) > 1:
                self.costs.virtio_irq_coalesced(len(batch) - 1)
            if span is not None:
                self._obs.spans.end(span, interrupt="delivered")
            self.raise_interrupt()
            return True
        self.costs.virtio_irq_suppressed()
        if span is not None:
            self._obs.spans.end(span, interrupt="suppressed")
        return False


class QueuedWindowDriver:
    """Driver-side queued submission shared by blk and net.

    Posts windows of descriptor chains with per-chain doorbells in
    always-notify mode, or — with EVENT_IDX negotiated — one doorbell
    per window after raising ``used_event`` to the window's last
    completion (so the device coalesces the completion interrupt too).
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
        costs: Optional[CostModel] = None,
        obs=None,
        span_name: Optional[str] = None,
        track: Optional[str] = None,
        per_chain_cost: Optional[Callable[[], None]] = None,
    ):
        self.ring = ring
        self.transport = transport
        self.queue_index = queue_index
        self.name = name
        self._costs = costs
        self._obs = obs
        self._span_name = span_name
        self._track = track
        # The owning driver's ``windows`` counter, set by its
        # ``bind_metrics`` (None while observability is off).
        self._m_windows = None
        self._per_chain_cost = per_chain_cost

    def kick(self) -> None:
        """Ring the doorbell unless the device is known to be looking."""
        if self.ring.kick_prepare():
            self.transport.notify(self.queue_index)
        elif self._costs is not None:
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
        """
        inflight: dict = {}
        for at, op in enumerate(window):
            buffers, token = prepare(start, at, op)
            if self._per_chain_cost is not None:
                self._per_chain_cost()
            head = self.ring.add_chain(buffers)
            inflight[head] = token
            if not self.ring.event_idx:
                self.kick()
        if self.ring.event_idx:
            self.ring.set_used_event(
                (self.ring.last_used + len(window) - 1) & 0xFFFF
            )
            self.kick()
            if self._costs is not None and len(window) > 1:
                # Doorbells the in-flight window deferred into one kick.
                self._costs.virtio_kick_suppressed(len(window) - 1)
        return inflight

    def harvest(self, completions, inflight: dict, consume) -> None:
        for head, written in completions:
            token = inflight.pop(head, None)
            if token is None:
                raise VirtioError(f"{self.name}: spurious completion {head}")
            consume(token, written)

    def _begin_window_span(self, start: int, depth: int):
        if self._obs is None or self._span_name is None:
            return None
        span = self._obs.spans.begin(
            self._span_name, track=self._track, start=start, depth=depth,
        )
        if self._m_windows is not None:
            self._m_windows.inc()
        return span

    def run_queued(self, ops, depth: int, prepare, consume) -> None:
        """Submit windows of ``depth`` ops, kick, harvest each whole."""
        for start in range(0, len(ops), depth):
            window = ops[start : start + depth]
            span = self._begin_window_span(start, len(window))
            inflight = self.post_window(start, window, prepare)
            self.harvest(self.ring.collect_used(), inflight, consume)
            if span is not None:
                self._obs.spans.end(span, waits=0)
            if inflight:
                raise VirtioError(
                    f"{self.name}: {len(inflight)} queued request(s) "
                    "did not complete"
                )

    def run_queued_task(self, ops, depth: int, prepare, consume):
        """Cooperative :meth:`run_queued` for scheduler tasks.

        Completions are still harvested by polling the used ring, but
        between polls the task yields — so when the device is serviced
        by a scheduler task, submission and completion interleave with
        the rest of the fleet instead of spinning the harvest inline.
        """
        for start in range(0, len(ops), depth):
            window = ops[start : start + depth]
            # begin/end rather than the context manager: the span must
            # survive the scheduler yields between submit and harvest.
            span = self._begin_window_span(start, len(window))
            inflight = self.post_window(start, window, prepare)
            waits = 0
            while inflight:
                self.harvest(self.ring.collect_used(), inflight, consume)
                if inflight:
                    # The device host's service task has not reached
                    # this queue yet; let other events run.
                    waits += 1
                    yield f"{self.name}:harvest"
            if span is not None:
                self._obs.spans.end(span, waits=waits)


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
