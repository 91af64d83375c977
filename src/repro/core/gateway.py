"""VMSH's view of guest memory, from outside the hypervisor.

Composes the eBPF-snooped memslot map (gpa -> hva) with
``process_vm_readv``/``writev`` into a guest-*physical* accessor, and a
page-table walker on top of that into a guest-*virtual* accessor.  All
of VMSH's binary analysis (KASLR scan, ksymtab parsing, banner read)
and its library loader run through this gateway — paying the same
cross-process costs the real system pays.

Three optimisations keep the attach cheap without changing what is
paid *per mechanism*:

* page-table walks read through a
  :class:`~repro.mem.pagetable.PageTableView` that lives for one
  attach step (or one gateway call outside a step).  The view
  copies each table page it touches with one 4 KiB remote read and
  decodes entries from that copy, so the KASLR scan of an x86-64
  guest reads four table pages, whichever slot the kernel sits in.
  The scan's range walks (:meth:`GuestMemoryGateway.walk`) descend
  once per table, decide a whole unmapped region at once, and decode
  a table whose entries each span one step with one struct call.
  Page-table writes are buffered and flushed in one vectored
  ``process_vm_writev``.  No view outlives its step, so nothing it
  holds ever needs invalidating.
* a small software TLB caches translations per 4K virtual page, keyed
  implicitly by the current CR3 (it is flushed on
  :meth:`GuestMemoryGateway.set_cr3` and
  :meth:`~GuestMemoryGateway.refresh_memslots`, like a real TLB on a
  CR3 write).  The KASLR scan's walk of the image fills it, a run of
  pages with one update, so the ksymtab read of the image translates
  without walking again.  A walked address counts one ``tlb_misses``,
  mapped or not, and a lookup that finds its page one ``tlb_hits``;
  a range walk and a range translation each count with one call per
  run or per range.
* ``read_virt``/``write_virt`` translate the whole range first, in one
  loop over its pages that walks only on a TLB miss, merge
  physically-contiguous page runs, and push the result through the
  accessor's scatter-gather API — one charged ``process_vm_*`` call
  instead of one per page.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.arch import Arch, X86_64
from repro.errors import SideloadError
from repro.host.kernel import HostKernel
from repro.host.process import Thread
from repro.mem.pagetable import PageTableView
from repro.units import PAGE_SIZE
from repro.virtio.memio import GpaTranslator, RemoteProcessAccessor


class GuestMemoryGateway:
    """Physical + virtual guest memory access from the VMSH process."""

    def __init__(
        self,
        kernel: HostKernel,
        vmsh_thread: Thread,
        hypervisor_pid: int,
        memslot_records: List,
        arch: Arch = X86_64,
        metrics=None,
    ):
        self.arch = arch
        # Registry scope for this gateway's counters.  The session id
        # comes from the per-hub id stream so a re-attach to the same
        # VM gets a fresh subtree (fresh = zeroed AttachReport stats)
        # while staying byte-identical across same-seed runs.
        if metrics is None:
            metrics = kernel.obs.metrics.scope(
                "gateway",
                vm=hypervisor_pid,
                session=kernel.obs.next_id("gateway"),
            )
        self.metrics = metrics
        self._m_tlb_hits = metrics.counter("tlb_hits")
        self._m_tlb_misses = metrics.counter("tlb_misses")
        self.translator = GpaTranslator(memslot_records)
        self.phys = RemoteProcessAccessor(
            kernel, vmsh_thread, hypervisor_pid, self.translator,
            metrics.scope("phys"),
        )
        self.cr3 = 0
        self._tlb: Dict[int, int] = {}      # vpage base -> page-frame paddr
        self._view = None                   # the open PageTableView, if any

    def refresh_memslots(self, memslot_records: List) -> None:
        """Re-snapshot after VMSH adds its own memslot."""
        self.translator = self.phys.translator = GpaTranslator(memslot_records)
        # The gpa -> hva map changed under the cached walks; drop them.
        self._tlb.clear()

    def set_cr3(self, cr3: int) -> None:
        if cr3 != self.cr3:
            self._tlb.clear()
        self.cr3 = cr3

    @contextmanager
    def page_tables(self, fresh: range = range(0)) -> Iterator[PageTableView]:
        """Open a :class:`PageTableView` for one attach step.

        Every walk inside the block reads through it, and its buffered
        writes flush when the block ends without an error.  Nested
        blocks share the outer view.
        """
        if self._view is not None:
            yield self._view
            return
        view = self._view = PageTableView(self.phys, self.arch.walker, fresh)
        try:
            yield view
            view.flush()
        finally:
            self._view = None

    # -- virtual access ------------------------------------------------------------

    def translate(self, vaddr: int) -> int:
        if not self.cr3:
            raise SideloadError("gateway has no CR3 yet")
        vpage = vaddr & ~(PAGE_SIZE - 1)
        base = self._tlb.get(vpage)
        if base is None:
            self._m_tlb_misses.inc()
            with self.page_tables() as view:
                base = view.walker.translate(self.cr3, vpage).paddr
            self._tlb[vpage] = base         # faults propagate, never cached
        else:
            self._m_tlb_hits.inc()
        return base + (vaddr - vpage)

    def walk(self, start: int, end: int, step: int = PAGE_SIZE) -> Iterator[Tuple[int, bool]]:
        """Decide, in order, which of ``start``, ``start + step``, ...
        below ``end`` translate under the current CR3.

        Yields ``(vaddr, mapped)`` where the answer changes: ``vaddr``
        and every address after it, up to the next pair's, have that
        answer.  So the first mapped address, or the first unmapped
        one, is the first pair that says so.  The decisions come in runs
        from one range walk of the open page-table view
        (:meth:`~repro.mem.pagetable.PageTableWalker.walk_range`): run
        it inside :meth:`page_tables`.  Each address decided counts one
        TLB miss, as its walk through :meth:`translate` would, and so
        does each one a skip passes over: ``step`` is a power of two of
        at least a page and ``start`` a multiple of it, as for KASLR
        slots, so every skip lands on one of these addresses.  Each
        mapped address is cached.  A pair is counted and cached before
        it is handed over, and the rest of its run after, each run with
        one count and one TLB update: a caller that stops at a pair has
        counted and cached nothing past it, as if it had been handed
        every address.
        """
        if not self.cr3:
            raise SideloadError("gateway has no CR3 yet")
        tlb, misses, answer = self._tlb, self._m_tlb_misses, None
        for vaddr, paddrs in self._view.walker.walk_range(self.cr3, start, end, step):
            mapped = paddrs[0] is not None
            if mapped is not answer:
                misses.inc((vaddr - start) // step + 1)
                if mapped:
                    tlb[vaddr] = paddrs[0]
                start, answer = vaddr + step, mapped
                yield vaddr, mapped
                vaddr, paddrs = start, paddrs[1:]
            if paddrs:
                stop = vaddr + len(paddrs) * step
                misses.inc((stop - start) // step)
                if mapped:
                    tlb.update(zip(range(vaddr, stop, step), paddrs))
                start = stop
        misses.inc(len(range(start, end, step)))

    @property
    def tlb_hit_rate(self) -> float:
        hits = self._m_tlb_hits.value
        total = hits + self._m_tlb_misses.value
        return hits / total if total else 0.0

    def _phys_runs(self, vaddr: int, length: int) -> List[Tuple[int, int]]:
        """Translate ``[vaddr, vaddr+length)`` into merged paddr runs.

        One loop looks every page up in the TLB and calls
        :meth:`translate` only on a miss; the hits count once, when the
        loop ends.
        """
        if length <= 0:
            return []
        tlb, hits = self._tlb, 0
        first, end = vaddr & ~(PAGE_SIZE - 1), vaddr + length
        runs: List[List[int]] = []          # [paddr start, paddr end)
        try:
            for vpage in range(first, end, PAGE_SIZE):
                base = tlb.get(vpage)
                if base is None:
                    base = self.translate(vpage)
                else:
                    hits += 1
                if runs and runs[-1][1] == base:    # physically contiguous
                    runs[-1][1] += PAGE_SIZE
                else:
                    runs.append([base, base + PAGE_SIZE])
        finally:
            self._m_tlb_hits.inc(hits)
        # The first and last pages may be partly outside the range.
        runs[0][0] += vaddr - first
        runs[-1][1] -= -end % PAGE_SIZE
        return [(start, stop - start) for start, stop in runs]

    def read_virt(self, vaddr: int, length: int) -> bytes:
        with self.page_tables():
            runs = self._phys_runs(vaddr, length)
        return self.phys.read_vectored(runs)

    def write_virt(self, vaddr: int, data: bytes) -> None:
        with self.page_tables():
            runs = self._phys_runs(vaddr, len(data))
        iov: List[Tuple[int, bytes]] = []
        pos = 0
        for paddr, chunk in runs:
            iov.append((paddr, data[pos : pos + chunk]))
            pos += chunk
        self.phys.write_vectored(iov)

    def read_cstring(self, vaddr: int) -> str:
        """Read a NUL-terminated ASCII string of under 256 bytes from
        guest virtual memory."""
        raw = self.read_virt(vaddr, 256)
        nul = raw.find(b"\x00")
        if nul < 0:
            raise SideloadError(f"unterminated string at {vaddr:#x}")
        try:
            return raw[:nul].decode("ascii")
        except UnicodeDecodeError as exc:
            raise SideloadError(f"non-ASCII string at {vaddr:#x}") from exc
