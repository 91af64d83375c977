"""Guest-memory accessors for device backends.

A VirtIO device reads descriptor chains and copies payload out of
*guest* memory.  Where the device runs determines how it reaches that
memory, and that difference is the core of the paper's performance
story (§5, §6.3):

* :class:`InProcessAccessor` — the device lives inside the hypervisor
  (qemu-blk): guest RAM is plain mapped memory, each access is a cheap
  in-process ``memcpy``.
* :class:`RemoteProcessAccessor` — the device lives in the VMSH
  process (vmsh-blk): every access crosses a process boundary through
  ``process_vm_readv``/``process_vm_writev``, paying a fixed syscall
  cost per call.  A 2 MB request spans 512 descriptor pages, so this
  per-call cost is what makes large direct IO up to ~3.7x slower on
  vmsh-blk (Fig. 5) while the *bandwidth* term stays comparable.

The fast path exploits what the real syscalls already offer: one
``process_vm_readv`` call carries up to :data:`IOV_MAX` iovec segments,
so a scattered payload costs one syscall entry plus a small per-segment
pinning charge instead of one full syscall per page.  Devices hand the
accessor a whole gather/scatter list via :meth:`GuestMemoryAccessor.
read_vectored`/:meth:`~GuestMemoryAccessor.write_vectored` and
:class:`RemoteProcessAccessor` coalesces it — merging hva-contiguous
runs — into as few charged calls as possible.

One slower path is kept for an ablation: :class:`BytewiseRemoteAccessor`
preserves the ablation of §5 ("this doubles the performance in Phoronix
benchmarks"): it models the pre-optimisation copy path that staged data
through an intermediate buffer instead of copying kernel-side.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import VmshError
from repro.host.kernel import HostKernel
from repro.host.process import Thread
from repro.kvm.api import GuestPhysMemory
from repro.mem.physmem import LittleEndianWords
from repro.sim.costs import CostModel

# Linux caps one process_vm_readv/writev call at UIO_MAXIOV segments.
IOV_MAX = 1024


class AccessorStats:
    """Per-accessor copy-path counters, on the registry scope they are
    built on.

    ``reads``/``writes`` count API-level operations (one vectored call
    counts once); ``calls`` counts the underlying charged copies
    (syscalls or memcpys) they turned into; ``segments`` counts the
    iovec segments those copies carried.  ``segments - calls`` is then
    the number of syscalls the scatter-gather batching saved.

    Accessors update them through :meth:`read_op`/:meth:`write_op`/
    :meth:`copies`, one call per copy; readers take :meth:`as_dict`.
    """

    FIELDS = ("reads", "writes", "bytes_read", "bytes_written", "calls", "segments")
    __slots__ = tuple("_" + name for name in FIELDS)

    def __init__(self, metrics) -> None:
        for name in self.FIELDS:
            setattr(self, "_" + name, metrics.counter(name))

    def read_op(self, nbytes: int, calls: int, segments: int) -> None:
        """One API-level read of ``nbytes`` that took ``calls`` charged
        copies carrying ``segments`` segments.  A read whose copies are
        counted one by one with :meth:`copies` passes 0 and 0."""
        self._reads.value += 1
        self._bytes_read.value += nbytes
        self._calls.value += calls
        self._segments.value += segments

    def write_op(self, nbytes: int, calls: int, segments: int) -> None:
        """The write-side twin of :meth:`read_op`."""
        self._writes.value += 1
        self._bytes_written.value += nbytes
        self._calls.value += calls
        self._segments.value += segments

    def copies(self, calls: int, segments: int) -> None:
        """``calls`` more charged copies carrying ``segments`` segments."""
        self._calls.value += calls
        self._segments.value += segments

    def as_dict(self) -> Dict[str, int]:
        """Every field, plus ``segments_coalesced`` (``segments - calls``)."""
        out = {name: getattr(self, "_" + name).value for name in self.FIELDS}
        out["segments_coalesced"] = out["segments"] - out["calls"]
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"AccessorStats({inner})"


class GuestMemoryAccessor(LittleEndianWords):
    """Abstract gpa-addressed accessor used by device backends; its
    :class:`AccessorStats` count on the registry scope ``metrics``."""

    def __init__(self, metrics) -> None:
        self.stats = AccessorStats(metrics)

    def read(self, gpa: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, gpa: int, data: bytes) -> None:
        raise NotImplementedError

    def covers(self, gpa: int, length: int) -> Optional[bool]:
        """Is ``[gpa, gpa+length)`` backed by guest memory?

        Device rings use this to reject guest-planted descriptors that
        point into unmapped space *before* a payload copy dereferences
        them.  This base answers ``None``: it cannot tell without
        performing the access, so the ring skips the pre-check and
        relies on the access itself to fail.  Accessors that can answer
        cheaply override it.
        """
        return None

    # Scatter-gather ----------------------------------------------------------

    def read_vectored(self, iov: Sequence[Tuple[int, int]]) -> bytes:
        """Read every ``(gpa, length)`` segment, concatenated.

        The base implementation falls back to one access per segment;
        accessors that can batch (one syscall per IOV_MAX segments)
        override this.
        """
        return b"".join(self.read(gpa, length) for gpa, length in iov)

    def write_vectored(self, iov: Sequence[Tuple[int, bytes]]) -> None:
        """Write every ``(gpa, data)`` segment."""
        for gpa, data in iov:
            self.write(gpa, data)


class InProcessAccessor(GuestMemoryAccessor):
    """Device-in-hypervisor access: direct mapped memory.

    ``label`` names the device in the VMM's ``memio`` metric series.
    """

    def __init__(self, guest_memory: GuestPhysMemory, costs: CostModel,
                 metrics, label: Optional[str] = None):
        super().__init__(metrics)
        self._mem = guest_memory
        self._costs = costs
        self.label = label

    def covers(self, gpa: int, length: int) -> Optional[bool]:
        backing = getattr(self._mem, "covers", None)
        return backing(gpa, length) if backing is not None else None

    def read(self, gpa: int, length: int) -> bytes:
        self._costs.memcpy(length)
        self.stats.read_op(length, 1, 1)
        return self._mem.read(gpa, length)

    def write(self, gpa: int, data: bytes) -> None:
        self._costs.memcpy(len(data))
        self.stats.write_op(len(data), 1, 1)
        self._mem.write(gpa, data)

    def read_vectored(self, iov: Sequence[Tuple[int, int]]) -> bytes:
        # In-process the gather is one streamed copy over mapped RAM.
        iov = [(gpa, length) for gpa, length in iov if length > 0]
        if not iov:
            return b""
        total = sum(length for _, length in iov)
        self._costs.memcpy(total)
        self.stats.read_op(total, 1, len(iov))
        return b"".join(self._mem.read(gpa, length) for gpa, length in iov)

    def write_vectored(self, iov: Sequence[Tuple[int, bytes]]) -> None:
        iov = [(gpa, data) for gpa, data in iov if data]
        if not iov:
            return
        total = sum(len(data) for _, data in iov)
        self._costs.memcpy(total)
        self.stats.write_op(total, 1, len(iov))
        for gpa, data in iov:
            self._mem.write(gpa, data)


class GpaTranslator:
    """Translates gpa to hypervisor hva using eBPF-snooped memslots.

    Slots are kept sorted by gpa and looked up with ``bisect`` so a
    translation is O(log n) even when the hypervisor registers many
    memslots.  Accesses that span several gpa-contiguous memslots are
    split into per-slot hva runs by :meth:`to_hva_iov`; only a genuine
    gpa hole raises :class:`VmshError`.
    """

    def __init__(self, memslot_records: List):
        self._slots = sorted(memslot_records, key=lambda r: r.gpa)
        self._starts = [record.gpa for record in self._slots]

    def _slot_index(self, gpa: int) -> Optional[int]:
        index = bisect_right(self._starts, gpa) - 1
        if index >= 0:
            record = self._slots[index]
            if gpa < record.gpa + record.size:
                return index
        return None

    def single_slot_hva(self, gpa: int, length: int) -> Optional[int]:
        """The hva of ``[gpa, gpa+length)`` if one memslot holds all of
        it (``length > 0``), else ``None``: the caller then splits the
        range with :meth:`to_hva_iov`."""
        index = bisect_right(self._starts, gpa) - 1
        if index >= 0 and length > 0:
            record = self._slots[index]
            if gpa + length <= record.gpa + record.size:
                return record.hva + (gpa - record.gpa)
        return None

    def to_hva_iov(self, gpa: int, length: int) -> List[Tuple[int, int]]:
        """Split ``[gpa, gpa+length)`` into per-memslot ``(hva, length)`` runs.

        Raises :class:`VmshError` if any byte of the range falls into a
        gpa hole no memslot covers.
        """
        runs: List[Tuple[int, int]] = []
        pos = gpa
        end = gpa + length
        while pos < end:
            index = self._slot_index(pos)
            if index is None:
                raise VmshError(
                    f"gpa {pos:#x} (+{end - pos}) not covered by any snooped memslot"
                )
            record = self._slots[index]
            take = min(end, record.gpa + record.size) - pos
            runs.append((record.hva + (pos - record.gpa), take))
            pos += take
        return runs

    def to_hva(self, gpa: int, length: int) -> int:
        """Translate a range that must lie within a single memslot.

        Callers that can handle an access spanning gpa-contiguous
        memslots should use :meth:`to_hva_iov` instead.
        """
        hva = self.single_slot_hva(gpa, max(1, length))
        if hva is None:
            raise VmshError(
                f"gpa {gpa:#x} (+{length}) not covered by a single snooped memslot"
            )
        return hva

    def slots(self) -> List:
        return list(self._slots)


def _merge_hva_run(runs: List[Tuple[int, int]], hva: int, length: int) -> None:
    if runs and runs[-1][0] + runs[-1][1] == hva:
        runs[-1] = (runs[-1][0], runs[-1][1] + length)
    else:
        runs.append((hva, length))


class RemoteProcessAccessor(GuestMemoryAccessor):
    """VMSH's access path: process_vm_readv/writev into the hypervisor.

    Vectored operations coalesce the whole iovec into as few syscalls
    as possible (chunked at :data:`IOV_MAX`, as the kernel enforces).
    Each caller-supplied segment stays its own iovec entry — the kernel
    pins and copies per segment, so batching amortises only the syscall
    entry, exactly as with the real vectored calls.  Only the slot
    splits of one contiguous access may collapse back when two memslots
    happen to be hva-adjacent.
    """

    def __init__(
        self,
        kernel: HostKernel,
        caller_thread: Thread,
        hypervisor_pid: int,
        translator: GpaTranslator,
        metrics,
    ):
        super().__init__(metrics)
        self._kernel = kernel
        self._thread = caller_thread
        self._pid = hypervisor_pid
        #: the gpa -> hva map; the gateway swaps in a new one when
        #: VMSH adds its own memslot
        self.translator = translator

    def covers(self, gpa: int, length: int) -> Optional[bool]:
        if self.translator.single_slot_hva(gpa, length) is not None:
            return True
        try:
            self.translator.to_hva_iov(gpa, length)
        except VmshError:
            return False
        return True

    # -- hva run assembly -----------------------------------------------------

    def _read_runs(self, iov: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        runs: List[Tuple[int, int]] = []
        for gpa, length in iov:
            if length <= 0:
                continue
            segment: List[Tuple[int, int]] = []
            for hva, run_len in self.translator.to_hva_iov(gpa, length):
                _merge_hva_run(segment, hva, run_len)
            runs.extend(segment)
        return runs

    def _write_runs(self, iov: Iterable[Tuple[int, bytes]]) -> List[Tuple[int, bytes]]:
        runs: List[Tuple[int, bytes]] = []
        for gpa, data in iov:
            if not data:
                continue
            segment: List[Tuple[int, bytes]] = []
            pos = 0
            for hva, run_len in self.translator.to_hva_iov(gpa, len(data)):
                part = data[pos : pos + run_len]
                pos += run_len
                if segment and segment[-1][0] + len(segment[-1][1]) == hva:
                    segment[-1] = (segment[-1][0], segment[-1][1] + part)
                else:
                    segment.append((hva, part))
            runs.extend(segment)
        return runs

    def _readv(self, runs: List[Tuple[int, int]]) -> bytes:
        out = []
        for start in range(0, len(runs), IOV_MAX):
            chunk = runs[start : start + IOV_MAX]
            self.stats.copies(1, len(chunk))
            if len(chunk) == 1:
                hva, length = chunk[0]
                out.append(
                    self._kernel.syscall(
                        self._thread, "process_vm_readv", self._pid, hva, length
                    )
                )
            else:
                out.append(
                    self._kernel.syscall(
                        self._thread, "process_vm_readv", self._pid, chunk
                    )
                )
        return b"".join(out)

    def _writev(self, runs: List[Tuple[int, bytes]]) -> None:
        for start in range(0, len(runs), IOV_MAX):
            chunk = runs[start : start + IOV_MAX]
            self.stats.copies(1, len(chunk))
            if len(chunk) == 1:
                hva, data = chunk[0]
                self._kernel.syscall(
                    self._thread, "process_vm_writev", self._pid, hva, data
                )
            else:
                self._kernel.syscall(
                    self._thread, "process_vm_writev", self._pid, chunk
                )

    # -- accessor API ---------------------------------------------------------

    # A range inside one memslot is one single-segment syscall; only a
    # slot-spanning range builds hva runs.

    def read(self, gpa: int, length: int) -> bytes:
        hva = self.translator.single_slot_hva(gpa, length)
        if hva is None:
            self.stats.read_op(length, 0, 0)
            return self._readv(self._read_runs([(gpa, length)]))
        self.stats.read_op(length, 1, 1)
        return self._kernel.syscall(
            self._thread, "process_vm_readv", self._pid, hva, length
        )

    def write(self, gpa: int, data: bytes) -> None:
        hva = self.translator.single_slot_hva(gpa, len(data))
        if hva is None:
            self.stats.write_op(len(data), 0, 0)
            self._writev(self._write_runs([(gpa, data)]))
            return
        self.stats.write_op(len(data), 1, 1)
        self._kernel.syscall(self._thread, "process_vm_writev", self._pid, hva, data)

    def read_vectored(self, iov: Sequence[Tuple[int, int]]) -> bytes:
        self.stats.read_op(sum(length for _, length in iov), 0, 0)
        return self._readv(self._read_runs(iov))

    def write_vectored(self, iov: Sequence[Tuple[int, bytes]]) -> None:
        self.stats.write_op(sum(len(data) for _, data in iov), 0, 0)
        self._writev(self._write_runs(iov))


class BytewiseRemoteAccessor(RemoteProcessAccessor):
    """The unoptimised copy path (ablation for §5's 2x claim).

    Predates both the kernel-side copy and sg-batching, so vectored
    operations keep the base-class per-segment fallback.
    """

    def read(self, gpa: int, length: int) -> bytes:
        self.stats.read_op(length, 0, 0)
        out = []
        for hva, run_len in self.translator.to_hva_iov(gpa, length):
            # Staged copy: the data crosses an intermediate userspace
            # buffer at a much lower effective bandwidth.
            self.stats.copies(1, 1)
            self._kernel.costs.bytewise_copy(run_len)
            out.append(
                self._kernel.processes[self._pid].address_space.read(hva, run_len)
            )
        return b"".join(out)

    def write(self, gpa: int, data: bytes) -> None:
        self.stats.write_op(len(data), 0, 0)
        pos = 0
        for hva, run_len in self.translator.to_hva_iov(gpa, len(data)):
            self.stats.copies(1, 1)
            self._kernel.costs.bytewise_copy(run_len)
            self._kernel.processes[self._pid].address_space.write(
                hva, data[pos : pos + run_len]
            )
            pos += run_len

    def read_vectored(self, iov: Sequence[Tuple[int, int]]) -> bytes:
        return b"".join(self.read(gpa, length) for gpa, length in iov)

    def write_vectored(self, iov: Sequence[Tuple[int, bytes]]) -> None:
        for gpa, data in iov:
            self.write(gpa, data)
