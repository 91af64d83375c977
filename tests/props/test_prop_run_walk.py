"""The range walk that decides a table's run at once, against the per-address one.

``PageTableWalker.walk_range`` decodes the rest of a table with one
``read_run`` call where the walk's step is the span of one of its
entries, and ``GuestMemoryGateway.walk`` counts and caches each run
with one call.  The reference below is the walk as it was before: one
entry read per decided address, each decision yielded, counted and
cached on its own.  Every decision it makes is also checked against
``translate`` of that address.

Tables are built as a booted guest builds them, with a kernel image in
a KASLR slot, and then made hostile: entries on the window's walks are
overwritten with absent words, superpages, table pointers (to any
table page, the root included), invalid arm64 descriptors, reserved
and misaligned RISC-V encodings, pointer entries at the leaf level and
raw bits.  On x86-64, arm64, Sv39 and Sv48, ``find_kernel`` and
``GuestMemoryGateway.walk`` (read to the end, to the first mapped
address or to the first unmapped one) must reach the same answer as
the reference with the same TLB contents, the same ``tlb_misses`` and
the same table pages read, in the same order.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ARM64, RISCV64, RISCV64_SV48, X86_64
from repro.core.gateway import GuestMemoryGateway
from repro.core.kaslr import KernelLocation, find_kernel
from repro.errors import KernelNotFoundError, PageFaultError, ReproError
from repro.host.ebpf import MemslotRecord
from repro.host.kernel import HostKernel
from repro.mem.pagetable import PTE_ACCESSED, PTE_PRESENT, PTE_PSE, PTE_WRITABLE
from repro.mem.pagetable_arm64 import ATTR_AF, DESC_BLOCK, DESC_TABLE_OR_PAGE
from repro.mem.pagetable_riscv import PTE_A, PTE_R, PTE_V, PTE_W, PTE_X
from repro.mem.physmem import PhysicalMemory
from repro.units import GiB, MiB, PAGE_SIZE

ALL_ARCHES = (X86_64, ARM64, RISCV64, RISCV64_SV48)
RAM = 1 * MiB               # table pages only: leaves point at any frame
MAX_IMAGE_SIZE = 64 * MiB   # find_kernel's default end-scan bound


# -- the reference: the per-address walk as it was ----------------------------------

def canonical(raw, bits=48):
    """Sign-extend a ``bits``-wide virtual address to 64 bits."""
    raw &= (1 << bits) - 1
    if raw >> (bits - 1):
        raw |= (1 << 64) - (1 << bits)
    return raw


def uncanonical(vaddr, bits=48):
    """Strip the sign extension, returning the raw ``bits``-wide address."""
    return vaddr & ((1 << bits) - 1)


def _reference_skip(fmt, read, levels, entry, raw, step):
    for depth, (level, shift) in enumerate(levels):
        if depth:
            entry = read(table + ((raw >> shift) & 511) * 8)
        if not entry & fmt.valid:
            return ((raw >> shift) + 1) << shift if 1 << shift >= step else raw + step
        if fmt.superpage(entry, level):
            return raw + step
        table = fmt.address(entry)
    return raw + step


def _reference_walk_range(fmt, read, root, start, end, step):
    """Yields ``(vaddr, paddr or None)`` for each address it decides,
    counting in raw addresses of the walk's width, 12 + 9 bits per
    level."""
    levels = fmt.walk_levels(root, start)
    bits = 12 + 9 * len(levels)
    raw = uncanonical(start, bits)
    if canonical(raw, bits) >= end:
        return
    path = [(fmt.root_table(root), 0)]
    while raw < 1 << bits:
        vaddr = canonical(raw, bits)
        if vaddr >= end:
            return
        depth = len(path) - 1
        while depth and raw >> levels[depth - 1][1] != path[depth][1]:
            path.pop()
            depth -= 1
        level, shift = levels[depth]
        entry = read(path[depth][0] + ((raw >> shift) & 511) * 8)
        try:
            maps = fmt.classify(entry, level, vaddr) if entry & fmt.valid else None
        except PageFaultError:
            maps = None
        if maps is None:
            yield vaddr, None
            raw = _reference_skip(fmt, read, levels[depth:], entry, raw, step)
        elif maps:
            page_mask = (1 << shift) - 1
            yield vaddr, (fmt.address(entry) & ~page_mask) | (raw & page_mask)
            raw += step
        else:
            path.append((fmt.address(entry), raw >> shift))


def _reference_walk(gateway, start, end, step=PAGE_SIZE):
    """``GuestMemoryGateway.walk`` as it was: one count and one cache
    entry per decided address, each address handed over."""
    walk = _reference_walk_range(
        gateway.arch.pt_format, gateway._view.read_u64, gateway.cr3, start, end, step
    )
    for vaddr, paddr in walk:
        gateway._m_tlb_misses.inc((vaddr - start) // step + 1)
        start = vaddr + step
        if paddr is not None:
            gateway._tlb[vaddr] = paddr
        yield vaddr, paddr is not None
    gateway._m_tlb_misses.inc(len(range(start, end, step)))


def _reference_find_kernel(gateway):
    """``find_kernel`` over the reference walk."""
    arch = gateway.arch
    start = arch.kernel_text_base
    with gateway.page_tables():
        slots = _reference_walk(gateway, start, start + arch.kernel_text_range, arch.kaslr_align)
        vbase = next((vaddr for vaddr, mapped in slots if mapped), None)
        if vbase is None:
            raise KernelNotFoundError(
                "no mapped pages in the KASLR range — is CR3 from a booted vCPU?"
            )
        image = _reference_walk(gateway, vbase + PAGE_SIZE, vbase + MAX_IMAGE_SIZE)
        vend = next((vaddr for vaddr, mapped in image if not mapped), vbase + MAX_IMAGE_SIZE)
    return KernelLocation(vbase=vbase, vend=vend)


# -- hostile tables ---------------------------------------------------------------------

KINDS = ("absent", "leaf", "table", "bad", "bad", "raw")


def _word(arch, level, kind, rng, tables):
    """An entry of ``kind`` for a table at ``level`` of ``arch``."""
    fmt = arch.pt_format
    span = 1 << (12 + 9 * (level - 1))
    aligned = rng.randrange(64) * max(span, 2 * MiB)
    low = rng.getrandbits(12)
    if kind == "absent":
        return rng.getrandbits(64) & ~fmt.valid
    if kind == "raw":
        return rng.getrandbits(64)
    if kind == "table":
        return fmt.encode(rng.choice(tables)) | fmt.table_bits
    if arch is X86_64:
        if kind == "leaf":
            return fmt.encode(aligned) | PTE_PRESENT | PTE_ACCESSED | PTE_WRITABLE | (PTE_PSE if level > 1 else 0)
        # x86 rejects only an absent entry: a present one with odd bits
        return fmt.encode(rng.randrange(1 << 20) * PAGE_SIZE) | low | PTE_PRESENT
    # A rejected entry that is no superpage sends the walk's skip into
    # the table it names: often a table page, so that read shows.
    named = rng.choice(tables) if rng.getrandbits(1) else aligned
    if arch is ARM64:
        if kind == "leaf":
            return fmt.encode(aligned) | ATTR_AF | (DESC_BLOCK if level > 1 else DESC_TABLE_OR_PAGE)
        return rng.choice((
            fmt.encode(named) | ATTR_AF | DESC_BLOCK,                   # a block at L3 or L0
            fmt.encode(aligned) | (low & ~ATTR_AF) | DESC_TABLE_OR_PAGE,  # no access flag
            fmt.encode(aligned) | (low & ~ATTR_AF & ~0b10) | DESC_BLOCK,
        ))
    if kind == "leaf":
        return fmt.encode(aligned) | PTE_V | PTE_R | PTE_A
    return rng.choice((
        fmt.encode(named) | PTE_V | PTE_W | PTE_A,                      # W without R
        fmt.encode(aligned) | PTE_V | PTE_W | PTE_X | PTE_A,            # W without R, X
        fmt.encode(aligned + PAGE_SIZE) | PTE_V | PTE_R | PTE_A,        # misaligned
        fmt.encode(named) | PTE_V | PTE_A,                              # a pointer
        fmt.encode(aligned) | PTE_V | PTE_R,                            # no A bit
    ))


@st.composite
def hostile_guests(draw):
    arch = draw(st.sampled_from(ALL_ARCHES))
    slot = draw(st.integers(min_value=0, max_value=arch.kaslr_slots - 2))
    image = draw(st.integers(min_value=1, max_value=1100))
    decoy = draw(st.none() | st.integers(min_value=1, max_value=511))
    rng = draw(st.randoms(use_true_random=False))
    # (offset from the image base in pages, level, kind) of each
    # overwritten entry: near the image, its end, a slot before it, or
    # anywhere in the window
    spots = draw(st.lists(
        st.tuples(
            st.one_of(
                st.integers(-3, 3),
                st.integers(image - 3, image + 3),
                st.integers(-slot * 512, 0),
                st.integers(-slot * 512, (arch.kaslr_slots - slot) * 512),
            ),
            st.integers(1, 4),
            st.sampled_from(KINDS),
        ),
        max_size=8,
    ))
    return arch, slot, image, decoy, rng, spots


class _Guest:
    """A hypervisor's guest RAM holding page tables, and two VMSH
    gateways over it: one for the walk under test, one for the
    reference."""

    def __init__(self, arch, slot, image, decoy, rng, spots):
        host = HostKernel()
        vmsh = host.spawn_process("vmsh")
        hv = host.spawn_process("hypervisor")
        hva = host.syscall(hv.main_thread, "mmap", RAM, "guest-ram")
        self.space, self.hva = hv.address_space, hva
        tables = itertools.count(PAGE_SIZE, PAGE_SIZE)
        builder = arch.builder(self.read_u64, self.write_u64, lambda: next(tables))
        self.root = root = arch.encode_pt_root(builder.new_root())
        self.vbase = vbase = arch.kaslr_slot_to_vaddr(slot)
        builder.map_range(root, vbase, 64 * MiB, image * PAGE_SIZE)
        if decoy is not None and slot > 0:
            builder.map_page(root, vbase - decoy * PAGE_SIZE, 0)
        for page, level, kind in spots:
            entry_paddr = self._entry_paddr(arch, vbase + page * PAGE_SIZE, level)
            if entry_paddr is not None:
                self.write_u64(entry_paddr, _word(arch, level, kind, rng, builder.tables_allocated))
        self.walker = arch.walker(self.read_u64)
        records = [MemslotRecord(slot=0, gpa=0, size=RAM, hva=hva)]
        self.gateways = []
        for _ in range(2):
            gateway = GuestMemoryGateway(host, vmsh.main_thread, hv.pid, records, arch=arch)
            gateway.set_cr3(root)
            self.gateways.append(gateway)

    def read_u64(self, paddr):
        return self.space.read_u64(self.hva + paddr)

    def write_u64(self, paddr, value):
        self.space.write_u64(self.hva + paddr, value)

    def _entry_paddr(self, arch, vaddr, level):
        """Where the entry at ``level`` on ``vaddr``'s walk lives, if
        the walk gets there through table pointers inside RAM."""
        fmt = arch.pt_format
        raw = uncanonical(vaddr)
        table = fmt.root_table(self.root)
        for at, shift in fmt.walk_levels(self.root, vaddr):
            entry_paddr = table + ((raw >> shift) & 511) * 8
            if at == level:
                return entry_paddr
            entry = self.read_u64(entry_paddr)
            table = fmt.address(entry)
            if not entry & fmt.valid or fmt.superpage(entry, at) or table >= RAM:
                return None
        return None

    def decisions(self, start, end, step):
        """Each address's answer, by ``translate``."""
        out = []
        for vaddr in range(start, end, step):
            try:
                out.append(self.walker.translate(self.root, vaddr).paddr)
            except PageFaultError:
                out.append(None)
        return out


def _outcome(fn):
    # A hostile pointer may name a table outside guest RAM: the remote
    # read of that page fails, and must fail at the same point.
    try:
        return "ok", fn()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _state(gateway, view):
    """What a walk leaves behind: TLB, miss count, table pages read."""
    return dict(gateway._tlb), gateway._m_tlb_misses.value, list(view._pages)


def _run(gateway, fn):
    with gateway.page_tables() as view:
        outcome = _outcome(fn)
    return outcome, _state(gateway, view)


@given(case=hostile_guests())
@settings(max_examples=150, deadline=None)
def test_find_kernel_matches_the_per_address_walk(case):
    guest = _Guest(*case)
    new, ref = guest.gateways
    got = _run(new, lambda: find_kernel(new))
    want = _run(ref, lambda: _reference_find_kernel(ref))
    assert got == want
    (status, location), (tlb, _, _) = got
    if status == "ok":
        # The answer is translate's: the first mapped slot base, then
        # the first unmapped page after it.
        arch = case[0]
        slots = guest.decisions(arch.kernel_text_base, location.vbase + 1, arch.kaslr_align)
        assert slots[-1] is not None and not any(slots[:-1])
        pages = guest.decisions(location.vbase, location.vend, PAGE_SIZE)
        assert None not in pages
        assert tlb == dict(zip(range(location.vbase, location.vend, PAGE_SIZE), pages))
        if location.size < MAX_IMAGE_SIZE:
            assert guest.decisions(location.vend, location.vend + 1, PAGE_SIZE) == [None]


@given(
    case=hostile_guests(),
    window=st.tuples(
        st.integers(-600, 600),                 # first address, in steps from the image
        st.integers(1, 1200),                   # addresses
        st.sampled_from([PAGE_SIZE, 2 * MiB]),
    ),
    reader=st.sampled_from(["all", "mapped", "unmapped"]),
)
@settings(max_examples=150, deadline=None)
def test_gateway_walk_matches_the_per_address_walk(case, window, reader):
    guest = _Guest(*case)
    offset, count, step = window
    start = guest.vbase - guest.vbase % step + offset * step
    end = start + count * step
    if step == 2 * MiB:
        start, end = max(start, case[0].kernel_text_base), min(end, case[0].kernel_text_base + GiB)

    def read(walk):
        if reader == "all":
            return list(walk)
        return next((vaddr for vaddr, mapped in walk if mapped is (reader == "mapped")), None)

    new, ref = guest.gateways
    got = _run(new, lambda: read(new.walk(start, end, step)))
    want_outcome, want_state = _run(ref, lambda: read(_reference_walk(ref, start, end, step)))
    assert got[1] == want_state
    if reader != "all":
        assert got[0] == want_outcome
        return
    # The new walk hands over each change of answer from ``start`` on;
    # spread over the window, its answers are translate's, and each
    # change is an address the reference decided.
    status, changes = got[0]
    assert status == want_outcome[0]
    if status == "ok":
        answers = []
        bounds = [vaddr for vaddr, _ in changes[1:]] + [end]
        for (vaddr, mapped), stop in zip(changes, bounds):
            answers += [mapped] * len(range(vaddr, stop, step))
        assert not changes or changes[0][0] == start
        assert answers == [paddr is not None for paddr in guest.decisions(start, end, step)]
        assert {vaddr for vaddr, _ in changes} <= {vaddr for vaddr, _ in want_outcome[1]}


@given(
    arch=st.sampled_from([RISCV64, RISCV64_SV48]),
    slot=st.integers(min_value=1, max_value=RISCV64.kaslr_slots - 2),
    before=st.integers(min_value=1, max_value=RISCV64.kaslr_slots - 2),
)
@settings(max_examples=30, deadline=None)
def test_a_rejected_entry_in_a_run_is_skipped_as_before(arch, slot, before):
    """A level-2 entry with W but neither R nor X is rejected and is no
    superpage, so the skip past it reads the table it names.  In the
    slot pass's run that read comes where the per-address walk made it,
    before the kernel's slot is reached, although the page it names is
    no table of the guest's."""
    guest = _Guest(arch, slot, 4, None, None, [])
    vaddr = guest.vbase - min(before, slot) * 2 * MiB
    named = RAM - PAGE_SIZE
    guest.write_u64(guest._entry_paddr(arch, vaddr, 2),
                    arch.pt_format.encode(named) | PTE_V | PTE_W | PTE_A)
    new, ref = guest.gateways
    got = _run(new, lambda: find_kernel(new))
    assert got == _run(ref, lambda: _reference_find_kernel(ref))
    assert got[0] == ("ok", KernelLocation(guest.vbase, guest.vbase + 4 * PAGE_SIZE))
    # read right after the tables above the level-2 one, and that one
    assert got[1][2].index(named) == len(arch.pt_format.walk_levels(guest.root, vaddr)) - 1


@pytest.mark.parametrize("arch", ALL_ARCHES, ids=lambda a: a.name)
def test_runs_stop_at_the_canonical_hole(arch):
    """Root entries 255 and 256 sit either side of the canonical hole
    (an entry of a four-level root spans 512 GiB, of Sv39's 1 GiB), so
    a step of one root entry walks the root a word at a time: the walk
    ends at ``end`` as the per-address one does."""
    mem = PhysicalMemory(RAM)
    tables = itertools.count(PAGE_SIZE, PAGE_SIZE)
    builder = arch.builder(mem.read_u64, mem.write_u64, lambda: next(tables))
    root = arch.encode_pt_root(builder.new_root())
    builder.map_page(root, 0x1000, 0x200000)
    bits = 12 + 9 * len(arch.pt_format.walk_levels(root, 0))
    step = 1 << (bits - 9)
    start, end = canonical(254 * step, bits), canonical(257 * step, bits)
    got = [
        (vaddr + offset * step, paddr)
        for vaddr, paddrs in arch.walker(mem.read_u64).walk_range(root, start, end, step)
        for offset, paddr in enumerate(paddrs)
    ]
    want = list(_reference_walk_range(arch.pt_format, mem.read_u64, root, start, end, step))
    assert got == want == [(canonical(index * step, bits), None) for index in (254, 255, 256)]
