"""Split virtqueues, serialised into guest physical memory.

Ring layout follows VirtIO 1.1 §2.6 (16-byte descriptors, avail and
used rings with running indices).  The guest driver writes the rings
through its own RAM; the device — wherever it runs — reads the very
same bytes through its :class:`~repro.virtio.memio.GuestMemoryAccessor`.
Nothing is exchanged except through guest memory and notifications,
exactly as in Fig. 4 of the paper.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import VirtioError
from repro.virtio.constants import (
    VRING_DESC_F_NEXT,
    VRING_DESC_F_WRITE,
    VRING_USED_F_NO_NOTIFY,
)

DESC_SIZE = 16
_DESC = struct.Struct("<QIHH")  # addr, len, flags, next
AVAIL_HEADER = 4            # u16 flags + u16 idx
USED_HEADER = 4
USED_ELEM_SIZE = 8          # u32 id + u32 len
EVENT_FIELD_SIZE = 2        # trailing used_event / avail_event u16


def desc_table_size(queue_size: int) -> int:
    return queue_size * DESC_SIZE


def avail_ring_size(queue_size: int, event_idx: bool = False) -> int:
    size = AVAIL_HEADER + 2 * queue_size
    if event_idx:
        size += EVENT_FIELD_SIZE     # used_event trails the avail ring
    return size


def used_ring_size(queue_size: int, event_idx: bool = False) -> int:
    size = USED_HEADER + USED_ELEM_SIZE * queue_size
    if event_idx:
        size += EVENT_FIELD_SIZE     # avail_event trails the used ring
    return size


def vring_need_event(event_idx: int, new_idx: int, old_idx: int) -> bool:
    """VirtIO 1.1 §2.6.7.2: does crossing ``event_idx`` require a signal?

    True iff the other side's event index lies in the half-open window
    ``(old_idx, new_idx]`` of ring entries published since the last
    signal, evaluated in 16-bit modular arithmetic.
    """
    return ((new_idx - event_idx - 1) & 0xFFFF) < ((new_idx - old_idx) & 0xFFFF)


@dataclass(frozen=True)
class Descriptor:
    """One descriptor as read back from guest memory."""

    index: int
    addr: int
    length: int
    device_writable: bool
    next_index: Optional[int]


class DriverRing:
    """Guest-driver side of one virtqueue."""

    def __init__(
        self,
        memory,
        desc_gpa: int,
        avail_gpa: int,
        used_gpa: int,
        size: int,
        event_idx: bool = False,
    ):
        if size <= 0 or size & (size - 1):
            raise VirtioError(f"queue size {size} is not a power of two")
        self._mem = memory
        self.desc_gpa = desc_gpa
        self.avail_gpa = avail_gpa
        self.used_gpa = used_gpa
        self.size = size
        self.event_idx = event_idx
        self._free: List[int] = list(range(size))
        self._avail_idx = 0
        self._last_used = 0
        self._kicked_avail = 0
        self._chain_heads: dict = {}
        self._mem.write_u16(avail_gpa, 0)           # flags
        self._mem.write_u16(avail_gpa + 2, 0)       # idx
        self._mem.write_u16(used_gpa, 0)
        self._mem.write_u16(used_gpa + 2, 0)
        if event_idx:
            self._mem.write_u16(self.used_event_gpa, 0)
            self._mem.write_u16(self.avail_event_gpa, 0)

    @property
    def used_event_gpa(self) -> int:
        """Driver-written: used index after which it wants an interrupt."""
        return self.avail_gpa + AVAIL_HEADER + 2 * self.size

    @property
    def avail_event_gpa(self) -> int:
        """Device-written: avail index up to which it has already looked."""
        return self.used_gpa + USED_HEADER + USED_ELEM_SIZE * self.size

    @property
    def free_descriptors(self) -> int:
        return len(self._free)

    @property
    def last_used(self) -> int:
        return self._last_used

    def set_used_event(self, value: int) -> None:
        """Ask the device to interrupt only once ``value`` is consumed."""
        if not self.event_idx:
            return
        self._mem.write_u16(self.used_event_gpa, value & 0xFFFF)

    def kick_prepare(self) -> bool:
        """Must the driver ring the doorbell for what it just published?

        With EVENT_IDX, compares the device's ``avail_event`` hint
        against the window of chains added since the last kick; without
        it, honours the legacy ``VRING_USED_F_NO_NOTIFY`` flag.  Reads
        go through guest RAM directly — suppression costs nothing.
        """
        if self.event_idx:
            avail_event = self._mem.read_u16(self.avail_event_gpa)
            return vring_need_event(avail_event, self._avail_idx, self._kicked_avail)
        flags = self._mem.read_u16(self.used_gpa)
        return not flags & VRING_USED_F_NO_NOTIFY

    def note_kick(self) -> None:
        """Record that a doorbell was rung for everything published so far."""
        self._kicked_avail = self._avail_idx

    def add_chain(self, buffers: Sequence[Tuple[int, int, bool]],
                  token: Any = None) -> int:
        """Publish a descriptor chain; returns the head descriptor id.

        ``buffers`` is a sequence of (gpa, length, device_writable).
        ``token`` stays with the chain until it completes and names it
        in :meth:`collect_used` (the head does when it is ``None``).
        """
        if not buffers:
            raise VirtioError("empty descriptor chain")
        if len(buffers) > len(self._free):
            raise VirtioError(
                f"queue full: need {len(buffers)} descriptors, "
                f"have {len(self._free)}"
            )
        indices = [self._free.pop() for _ in buffers]
        for pos, (gpa, length, writable) in enumerate(buffers):
            index = indices[pos]
            flags = 0
            next_index = 0
            if pos + 1 < len(buffers):
                flags |= VRING_DESC_F_NEXT
                next_index = indices[pos + 1]
            if writable:
                flags |= VRING_DESC_F_WRITE
            base = self.desc_gpa + index * DESC_SIZE
            self._mem.write_u64(base, gpa)
            self._mem.write_u32(base + 8, length)
            self._mem.write_u16(base + 12, flags)
            self._mem.write_u16(base + 14, next_index)
        head = indices[0]
        self._chain_heads[head] = (indices, token)
        slot = self._avail_idx % self.size
        self._mem.write_u16(self.avail_gpa + AVAIL_HEADER + slot * 2, head)
        self._avail_idx = (self._avail_idx + 1) & 0xFFFF
        self._mem.write_u16(self.avail_gpa + 2, self._avail_idx)
        return head

    def in_flight_tokens(self) -> List[Any]:
        """The tokens of the chains the device has not completed yet."""
        return [token for _, token in self._chain_heads.values()]

    def collect_used(self) -> List[Tuple[Any, int]]:
        """Harvest completions: (token or head id, bytes written by device)."""
        used_idx = self._mem.read_u16(self.used_gpa + 2)
        completed: List[Tuple[Any, int]] = []
        while self._last_used != used_idx:
            slot = self._last_used % self.size
            base = self.used_gpa + USED_HEADER + slot * USED_ELEM_SIZE
            head = self._mem.read_u32(base)
            written = self._mem.read_u32(base + 4)
            entry = self._chain_heads.pop(head, None)
            if entry is None:
                raise VirtioError(f"device completed unknown chain head {head}")
            chain, token = entry
            self._free.extend(chain)
            completed.append((head if token is None else token, written))
            self._last_used = (self._last_used + 1) & 0xFFFF
        if completed and self.event_idx:
            # Re-arm: interrupt on the very next completion unless a
            # queued submission raises the threshold before kicking.
            self.set_used_event(self._last_used)
        return completed


class DeviceRing:
    """Device side of one virtqueue, accessed through an accessor."""

    def __init__(
        self,
        accessor,
        desc_gpa: int,
        avail_gpa: int,
        used_gpa: int,
        size: int,
        event_idx: bool = False,
        *,
        metrics,
    ):
        self._mem = accessor
        self.desc_gpa = desc_gpa
        self.avail_gpa = avail_gpa
        self.used_gpa = used_gpa
        self.size = size
        self.event_idx = event_idx
        self._last_avail = 0
        self._used_idx = 0
        #: heads popped for a receive-style queue and not yet used:
        #: buffers the driver posted for the device to fill
        self.posted: List[int] = []
        # used_event snapshot piggybacked on the last pop_available();
        # None until the driver's hint has been observed at least once.
        self._used_event: Optional[int] = None
        # The ring's registry scope (the transport passes one per
        # queue); the counters are cached off the per-batch path.
        self._metrics = metrics
        self._m_publishes = metrics.counter("used_publishes")
        self._m_entries = metrics.counter("used_entries")
        self._m_irq_delivered = metrics.counter("interrupts_delivered")
        self._m_irq_suppressed = metrics.counter("interrupts_suppressed")

    def _parse_error(self, reason: str, message: str) -> None:
        """Reject guest-controlled garbage: count it, then raise.

        The ring's memory is written by the guest, so nothing read from
        it can be trusted (VirtIO 1.1 §2.6.5's device requirements).
        Every rejection lands in the registry as
        ``vring.parse_errors{reason=...}`` — the fuzzer's coverage
        signal for the descriptor-validation paths.
        """
        self._metrics.counter("parse_errors", reason=reason).inc()
        raise VirtioError(message)

    @property
    def used_event_gpa(self) -> int:
        return self.avail_gpa + AVAIL_HEADER + 2 * self.size

    @property
    def avail_event_gpa(self) -> int:
        return self.used_gpa + USED_HEADER + USED_ELEM_SIZE * self.size

    def pop_available(self) -> List[int]:
        """New chain heads published by the driver since the last poll.

        One access for the index, one gathered access for exactly the
        pending ring slots (two iovec segments when the window wraps) —
        devices read rings in bulk, they do not chase one u16 at a time
        across the process boundary.  With EVENT_IDX negotiated the
        driver's ``used_event`` hint rides along as one extra iovec
        segment of the same gather, so suppression never adds a
        cross-process round trip.
        """
        avail_idx = self._mem.read_u16(self.avail_gpa + 2)
        pending = (avail_idx - self._last_avail) & 0xFFFF
        if pending == 0:
            return []
        if pending > self.size:
            self._parse_error(
                "avail_overflow",
                "avail ring advanced past queue size (corrupt idx?)",
            )
        ring_base = self.avail_gpa + AVAIL_HEADER
        start = self._last_avail % self.size
        if start + pending <= self.size:
            iov = [(ring_base + start * 2, pending * 2)]
        else:
            tail = self.size - start
            iov = [
                (ring_base + start * 2, tail * 2),
                (ring_base, (pending - tail) * 2),
            ]
        if self.event_idx:
            iov.append((self.used_event_gpa, 2))
        slot_bytes = self._mem.read_vectored(iov)
        if self.event_idx:
            self._used_event = int.from_bytes(slot_bytes[-2:], "little")
            slot_bytes = slot_bytes[:-2]
        heads = [
            int.from_bytes(slot_bytes[at * 2 : at * 2 + 2], "little")
            for at in range(pending)
        ]
        self._last_avail = (self._last_avail + pending) & 0xFFFF
        return heads

    def read_table(self) -> bytes:
        """Snapshot the whole descriptor table in one access."""
        return self._mem.read(self.desc_gpa, self.size * DESC_SIZE)

    def read_chain(self, head: int, table: Optional[bytes] = None) -> List[Descriptor]:
        """Walk one descriptor chain out of guest memory.

        Pass a ``read_table()`` snapshot to amortise the table fetch
        across the chains of one notification batch.
        """
        if table is None:
            table = self.read_table()
        chain: List[Descriptor] = []
        index = head
        seen = set()
        covers = self._mem.covers
        while True:
            if index in seen:
                self._parse_error("desc_loop", f"descriptor loop at index {index}")
            if not 0 <= index < self.size:
                self._parse_error(
                    "desc_index", f"descriptor index {index} out of range"
                )
            seen.add(index)
            addr, length, flags, next_index = _DESC.unpack_from(
                table, index * DESC_SIZE
            )
            has_next = bool(flags & VRING_DESC_F_NEXT)
            if length == 0:
                self._parse_error(
                    "zero_len", f"zero-length descriptor at index {index}"
                )
            # Accessors that can answer cheaply veto unmapped buffers
            # here, before any payload copy dereferences them.
            if covers(addr, length) is False:
                self._parse_error(
                    "bad_gpa",
                    f"descriptor {index} points at unmapped guest memory "
                    f"{addr:#x} (+{length})",
                )
            chain.append(
                Descriptor(
                    index=index,
                    addr=addr,
                    length=length,
                    device_writable=bool(flags & VRING_DESC_F_WRITE),
                    next_index=next_index if has_next else None,
                )
            )
            if not has_next:
                return chain
            index = next_index

    def push_used_batch(self, elems: Sequence[Tuple[int, int]]) -> bool:
        """Publish a batch of completions with one scattered write.

        Consecutive used slots are contiguous bytes, so a batch costs
        at most two element segments (one extra when the ring wraps)
        plus the index word — and, under EVENT_IDX, the ``avail_event``
        hint telling the driver which avail entries the device has
        already seen, folded into the same write.

        Returns True when the driver must be interrupted for this
        batch: always, without EVENT_IDX; otherwise only when the new
        used index crosses the driver's ``used_event`` threshold
        (VirtIO 1.1 §2.6.7.2).
        """
        if not elems:
            return False
        old_used = self._used_idx
        ring_base = self.used_gpa + USED_HEADER
        iov: List[Tuple[int, bytes]] = []
        # Serialize the whole batch with one struct.pack per ring
        # segment instead of four per-element int.to_bytes calls — a
        # valid batch never exceeds the ring, so the run splits at
        # most once (byte-identical to the per-element rendering).
        first_slot = old_used % self.size
        words: List[int] = []
        for head, written in elems:
            words.append(head & 0xFFFFFFFF)
            words.append(written & 0xFFFFFFFF)
        until_wrap = 2 * (self.size - first_slot)
        if len(words) <= until_wrap:
            iov.append((ring_base + first_slot * USED_ELEM_SIZE,
                        struct.pack(f"<{len(words)}I", *words)))
        else:
            iov.append((ring_base + first_slot * USED_ELEM_SIZE,
                        struct.pack(f"<{until_wrap}I", *words[:until_wrap])))
            tail = words[until_wrap:]
            iov.append((ring_base, struct.pack(f"<{len(tail)}I", *tail)))
        self._used_idx = (old_used + len(elems)) & 0xFFFF
        iov.append((self.used_gpa + 2, self._used_idx.to_bytes(2, "little")))
        if self.event_idx:
            iov.append((self.avail_event_gpa, self._last_avail.to_bytes(2, "little")))
        self._mem.write_vectored(iov)
        self._m_publishes.inc()
        self._m_entries.inc(len(elems))
        if not self.event_idx:
            notify = True
        else:
            used_event = self._used_event
            if used_event is None:
                used_event = self._mem.read_u16(self.used_event_gpa)
            notify = vring_need_event(used_event, self._used_idx, old_used)
        if notify:
            self._m_irq_delivered.inc()
        else:
            self._m_irq_suppressed.inc()
        return notify
