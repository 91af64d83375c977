"""The vm-exec device — the abstraction the paper envisions (§2.2).

"We envision a vm-exec device that allows one to start binaries, while
not depending on vendor-specific guest agents.  In this way, VMSH
provides out-of-band management similar to IPMI/Redfish on physical
hardware."

Unlike the console (a byte stream a human types into), vm-exec is a
structured request/response channel: the host submits an argv, the
guest runs it in the overlay and returns exit code plus captured
output.  Queue 0 carries requests (guest-posted receive buffers the
device fills with ``fill_posted``), queue 1 carries responses.  Both
queues complete through ``publish_batch`` (kinds ``exec_req`` and
``exec_rsp``), so the device's ``virtio`` series count every request
and response like any other device's.

Wire format (little-endian)::

    request:   u16 argc, then argc x { u16 len, bytes }
    response:  i32 exit_code, u32 output_len, output bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import VirtioError
from repro.sim.costs import CostModel
from repro.sim.sched import Poll
from repro.units import PAGE_SIZE
from repro.virtio.core import GuestRxPath, GuestTxPath, VirtioDeviceCore
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.mmio import GuestVirtioTransport

#: device id in the experimental range (not a standardised VirtIO id)
DEVICE_ID_VMEXEC = 42

REQUEST_QUEUE = 0
RESPONSE_QUEUE = 1

REQUEST_BUFFER_SIZE = 4096
#: guest pages of one response slot: a response is its header plus as
#: much output as fits
RESPONSE_SLOT_PAGES = 16
RESPONSE_HEADER = struct.Struct("<iI")


def pack_request(argv: List[str]) -> bytes:
    out = bytearray(struct.pack("<H", len(argv)))
    for arg in argv:
        encoded = arg.encode()
        out += struct.pack("<H", len(encoded)) + encoded
    if len(out) > REQUEST_BUFFER_SIZE:
        raise VirtioError("vm-exec request too large")
    return bytes(out)


def unpack_request(data: bytes) -> List[str]:
    try:
        (argc,) = struct.unpack_from("<H", data, 0)
        pos = 2
        argv = []
        for _ in range(argc):
            (length,) = struct.unpack_from("<H", data, pos)
            pos += 2
            argv.append(data[pos : pos + length].decode())
            pos += length
    except (struct.error, UnicodeDecodeError) as exc:
        raise VirtioError(f"malformed vm-exec request: {exc}") from exc
    return argv


def pack_response(exit_code: int, output: bytes) -> bytes:
    output = output[: RESPONSE_SLOT_PAGES * PAGE_SIZE - RESPONSE_HEADER.size]
    return RESPONSE_HEADER.pack(exit_code, len(output)) + output


def unpack_response(data: bytes) -> "ExecResult":
    exit_code, length = RESPONSE_HEADER.unpack_from(data, 0)
    output = data[RESPONSE_HEADER.size : RESPONSE_HEADER.size + length]
    return ExecResult(exit_code=exit_code, output=output.decode(errors="replace"))


@dataclass
class ExecResult:
    """Outcome of one vm-exec invocation."""

    exit_code: int
    output: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


class VmExecDevice(VirtioDeviceCore):
    """Host side: submit argv, collect the response."""

    QUEUE_COUNT = 2

    def __init__(
        self,
        accessor: GuestMemoryAccessor,
        irq_signal: Callable[[], None],
        costs: CostModel,
        name: str = "vmsh-exec",
    ):
        super().__init__(
            device_id=DEVICE_ID_VMEXEC,
            accessor=accessor,
            irq_signal=irq_signal,
            costs=costs,
            name=name,
            # EVENT_IDX buys nothing on a request/response channel:
            # every host-side submit must interrupt the guest agent, so
            # the device does not offer the feature and both rings run
            # in plain always-notify mode.
            offer_event_idx=False,
        )
        # Requests are numbered as they are posted.  The guest answers
        # them in posting order, so the n-th response to arrive belongs
        # to request n.
        self._requests_posted = 0
        self._responses_seen = 0
        self._responses: Dict[int, ExecResult] = {}

    # -- queue handling --------------------------------------------------------

    def process_queue(self, index: int) -> None:
        if index == REQUEST_QUEUE:
            self.absorb_posted(REQUEST_QUEUE)
        elif index == RESPONSE_QUEUE:
            ring = self._ring(RESPONSE_QUEUE)
            table = ring.read_table()
            batch = []
            for head in ring.pop_available():
                chain = ring.read_chain(head, table)
                payload = self.mem.read_vectored(
                    [(d.addr, d.length) for d in chain]
                )
                self._responses[self._responses_seen] = unpack_response(payload)
                self._responses_seen += 1
                batch.append((head, 0))
            self.publish_batch(RESPONSE_QUEUE, batch)
        else:
            raise VirtioError(f"{self.name}: notify for unknown queue {index}")

    # -- host API ------------------------------------------------------------------

    def _post_request(self, argv: List[str]) -> int:
        """Write ``argv`` into a posted buffer and interrupt the guest.

        Returns the request's number.
        """
        request = pack_request(argv)
        # The driver re-posts buffers without a doorbell (it knows the
        # device polls the avail ring on demand).
        if not self.absorb_posted(REQUEST_QUEUE):
            raise VirtioError(
                f"{self.name}: guest has no posted request buffers"
            )
        filled = self.fill_posted(REQUEST_QUEUE, request)
        number = self._requests_posted
        self._requests_posted += 1
        # Numbered before the interrupt: taken inline, it runs the guest
        # agent, whose response lands before publish_batch returns.
        self.publish_batch(REQUEST_QUEUE, [filled])
        return number

    def submit_task(self, argv: List[str]):
        """Run ``argv`` in the guest overlay (a generator; its result is
        the :class:`ExecResult`).

        Outside a running scheduler loop the guest's interrupt is taken,
        and the response produced, inline.  Under a running scheduler
        the interrupt is a deferred wakeup, so the response only exists
        after the loop dispatches it; polling hands the loop exactly
        that chance.  ``VmshSession.exec`` runs this inline.
        """
        number = self._post_request(argv)
        while number not in self._responses:
            yield Poll(f"{self.name}:response")
        return self._responses.pop(number)


class GuestVmExecDriver:
    """Guest side: receive argv, execute in the overlay, respond."""

    def __init__(self, guest_kernel, transport: GuestVirtioTransport,
                 name: str = "vmexec0"):
        self.kernel = guest_kernel
        self.transport = transport
        self.name = name
        transport.initialize()
        request_ring = transport.setup_queue(REQUEST_QUEUE, 16)
        response_ring = transport.setup_queue(RESPONSE_QUEUE, 16)
        transport.driver_ok()
        self._rx = GuestRxPath(guest_kernel, transport, request_ring,
                               REQUEST_QUEUE, REQUEST_BUFFER_SIZE, 4)
        self._tx = GuestTxPath(guest_kernel, transport, response_ring,
                               RESPONSE_QUEUE, RESPONSE_SLOT_PAGES)
        self._executor: Optional[Callable[[List[str]], ExecResult]] = None
        guest_kernel.register_irq(transport.irq_gsi, self._on_irq)
        self._rx.post()

    def set_executor(self, executor: Callable[[List[str]], ExecResult]) -> None:
        """Install the userspace side that actually runs commands."""
        self._executor = executor

    def _on_irq(self, gsi: int) -> None:
        self.transport.ack_interrupt()
        for request in self._rx.harvest():
            result = self._execute(unpack_request(request))
            self._tx.send(
                pack_response(result.exit_code, result.output.encode())
            )

    def _execute(self, argv: List[str]) -> ExecResult:
        if self._executor is None:
            return ExecResult(exit_code=127, output="vm-exec: no executor attached\n")
        try:
            return self._executor(argv)
        except Exception as exc:  # noqa: BLE001 - guest-side failure -> error result
            return ExecResult(exit_code=126, output=f"vm-exec: {exc}\n")
