"""Mapping a range leaf table by leaf table does what mapping it page by page did.

``PageTableBuilder.map_range`` descends once per leaf table and hands
that table's run of entries to the :class:`PageTableView` in one call.
The reference below is the builder as it was before: a loop of
``map_page`` calls, each descending from the root and writing one word.
On every arch configuration, for ranges of 1–1,500 pages that cross
leaf- and upper-table boundaries (arm64's KASLR window starts 256 MiB
into a 1 GiB entry) or run into Sv39's non-canonical hole, both must
leave guest memory byte-identical, allocate the same table pages in the
same order, flush the same runs, and raise the same error on misaligned
input, a superpage in the way or a non-canonical address.  The
reference keeps the 48-bit sign-extension helpers the builder read, and
checks the address width of the walk (12 + 9 bits per level) first.

Two structural checks pin what the change is for: mapping one aligned
leaf table's 512 pages reads at most one entry per upper level, and the
KASLR scan raises no :class:`PageFaultError` and reads each entry that
decides a slot, and each entry of an image page, once, whether it reads
the entry alone or as one word of a per-table run.
"""

import collections
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ARM64, RISCV64, RISCV64_SV48, X86_64
from repro.core.gateway import GuestMemoryGateway
from repro.core.kaslr import KernelLocation, find_kernel
from repro.errors import PageFaultError
from repro.host.ebpf import MemslotRecord
from repro.host.kernel import HostKernel
from repro.mem.pagetable import PTE_PRESENT, PTE_PSE, PageTableView
from repro.mem.pagetable_arm64 import ATTR_AF, DESC_BLOCK
from repro.mem.pagetable_riscv import PTE_A, PTE_R, PTE_V
from repro.mem.physmem import PhysicalMemory
from repro.units import GiB, MiB, PAGE_SHIFT, PAGE_SIZE

ALL_ARCHES = (X86_64, ARM64, RISCV64, RISCV64_SV48)
RAM = 1 * MiB               # table pages only: leaves point at any frame
FRAME_BASE = 64 * MiB


# -- the reference: the per-page builder as it was ----------------------------------

CANONICAL_MASK = (1 << 48) - 1


def canonical(vaddr):
    """Sign-extend a 48-bit virtual address to 64 bits."""
    vaddr &= CANONICAL_MASK
    if vaddr & (1 << 47):
        vaddr |= ~CANONICAL_MASK & 0xFFFFFFFFFFFFFFFF
    return vaddr


def uncanonical(vaddr):
    """Strip the sign extension, returning the raw 48-bit address."""
    return vaddr & CANONICAL_MASK


def _reference_map_page(fmt, read_u64, write_u64, alloc, root, vaddr, paddr,
                        writable=True, nx=False):
    if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
        raise ValueError("mappings must be page aligned")
    levels = fmt.walk_levels(root, vaddr)
    bits = 12 + 9 * len(levels)
    if vaddr >> (bits - 1) not in (0, (1 << (65 - bits)) - 1):
        raise PageFaultError(vaddr, "non-canonical address")
    raw = uncanonical(canonical(vaddr))
    table = fmt.root_table(root)
    for level, shift in levels[:-1]:
        entry_addr = table + ((raw >> shift) & 511) * 8
        entry = read_u64(entry_addr)
        if not entry & fmt.valid:
            entry = fmt.encode(alloc()) | fmt.table_bits
            write_u64(entry_addr, entry)
        elif fmt.superpage(entry, level):
            raise ValueError(f"cannot split superpage mapping at {canonical(vaddr):#x}")
        table = fmt.address(entry)
    index = (raw >> PAGE_SHIFT) & 511
    write_u64(table + index * 8, fmt.encode(paddr) | fmt.leaf_flags(writable, nx))


def _reference_map_range(fmt, read_u64, write_u64, alloc, root, vaddr, paddr,
                         length, writable=True, nx=False):
    if length <= 0:
        raise ValueError("length must be positive")
    npages = (length + PAGE_SIZE - 1) // PAGE_SIZE
    for i in range(npages):
        _reference_map_page(
            fmt, read_u64, write_u64, alloc, root, vaddr + i * PAGE_SIZE,
            paddr + i * PAGE_SIZE, writable=writable, nx=nx,
        )


# -- one guest memory per builder --------------------------------------------------

class _Phys:
    """Guest memory that records every vectored write a flush makes."""

    def __init__(self):
        self.mem = PhysicalMemory(RAM)
        self.flushes = []

    def read(self, paddr, length):
        return self.mem.read(paddr, length)

    def write_vectored(self, iov):
        self.flushes.append([(paddr, bytes(data)) for paddr, data in iov])
        for paddr, data in iov:
            self.mem.write(paddr, data)


class _Guest:
    """A root table in fresh memory, built through a page-table view as
    the boot builds it."""

    def __init__(self, arch):
        self.arch = arch
        self.phys = _Phys()
        self.view = PageTableView(self.phys, arch.walker, range(0, RAM))
        self.tables = itertools.count(PAGE_SIZE, PAGE_SIZE)
        self.allocated = []
        self.builder = arch.builder(
            self.view.read_u64, self.view.write_u64, self.alloc,
            self.view.write_run,
        )
        self.root = arch.encode_pt_root(self.builder.new_root())

    def alloc(self):
        paddr = next(self.tables)
        self.allocated.append(paddr)
        return paddr

    def map_range(self, vaddr, paddr, length, writable, nx):
        self.builder.map_range(self.root, vaddr, paddr, length, writable, nx)

    def reference_map_range(self, vaddr, paddr, length, writable, nx):
        _reference_map_range(
            self.arch.pt_format, self.view.read_u64, self.view.write_u64,
            self.alloc, self.root, vaddr, paddr, length, writable, nx,
        )

    def state(self):
        self.view.flush()
        return self.phys.mem.read(0, RAM), self.allocated, self.phys.flushes


def _outcome(fn):
    try:
        fn()
        return "ok"
    except (ValueError, PageFaultError) as exc:
        return str(exc)


def _superpage(arch, frame):
    """A level-2 entry mapping the 2 MiB frame at ``frame``."""
    fmt = arch.pt_format
    if arch is X86_64:
        entry = fmt.encode(frame) | PTE_PRESENT | PTE_PSE
    elif arch is ARM64:
        entry = fmt.encode(frame) | DESC_BLOCK | ATTR_AF
    else:
        entry = fmt.encode(frame) | PTE_V | PTE_R | PTE_A
    assert fmt.superpage(entry, 2)
    return entry


def _pde_paddr(guest, vaddr):
    """Where the level-2 entry on ``vaddr``'s walk lives."""
    fmt, view = guest.arch.pt_format, guest.view
    raw = uncanonical(canonical(vaddr))
    table = fmt.root_table(guest.root)
    for level, shift in fmt.walk_levels(guest.root, vaddr):
        entry_addr = table + ((raw >> shift) & 511) * 8
        if level == 2:
            return entry_addr
        table = fmt.address(view.read_u64(entry_addr))
    raise AssertionError("no level 2")


#: where ranges start, give or take 1,500 pages: the KASLR window's
#: base (arm64's sits 256 MiB into a 1 GiB entry), a 1 GiB boundary,
#: 256 GiB, the top of Sv39's lower half, and 512 GiB, a top-level
#: boundary of a four-level table and inside Sv39's hole
ANCHORS = st.sampled_from(["window", "1g", "256g", "512g"])


@st.composite
def ranges(draw):
    arch = draw(st.sampled_from(ALL_ARCHES))
    anchor = draw(ANCHORS)
    base = {
        "window": arch.kernel_text_base,
        "1g": arch.kernel_text_base - arch.kernel_text_base % GiB + GiB,
        "256g": 256 * GiB,
        "512g": 512 * GiB,
    }[anchor]
    calls = draw(st.lists(
        st.tuples(
            st.integers(-1500, 1500),           # first page, around the anchor
            st.integers(1, 1500),               # pages
            st.booleans(), st.booleans(),       # writable, nx
            st.integers(0, 4096),               # frame
        ),
        min_size=1, max_size=3,
    ))
    return arch, base, calls


@given(case=ranges())
@settings(max_examples=120, deadline=None)
def test_map_range_matches_the_per_page_builder(case):
    arch, base, calls = case
    new, ref = _Guest(arch), _Guest(arch)
    for first, pages, writable, nx, frame in calls:
        args = (base + first * PAGE_SIZE, FRAME_BASE + frame * PAGE_SIZE,
                pages * PAGE_SIZE - PAGE_SIZE // 2, writable, nx)
        assert _outcome(lambda: new.map_range(*args)) == _outcome(
            lambda: ref.reference_map_range(*args)
        )
    assert new.state() == ref.state()


@given(
    arch=st.sampled_from(ALL_ARCHES),
    first=st.integers(0, 1500),
    pages=st.integers(1, 1500),
    blocked=st.integers(0, 3),
    bad=st.sampled_from(["vaddr", "paddr", "length", "superpage"]),
)
@settings(max_examples=80, deadline=None)
def test_map_range_fails_as_the_per_page_builder(arch, first, pages, blocked, bad):
    base = arch.kernel_text_base + first * PAGE_SIZE
    vaddr, paddr, length = base, FRAME_BASE, pages * PAGE_SIZE
    guests = _Guest(arch), _Guest(arch)
    for guest in guests:
        if bad == "superpage":
            # Map a page so the tables exist, then make the level-2
            # entry ``blocked`` 2 MiB steps in a superpage.
            guest.map_range(base, FRAME_BASE, PAGE_SIZE, True, False)
            target = base - base % (2 * MiB) + blocked * 2 * MiB
            guest.map_range(target, FRAME_BASE, PAGE_SIZE, True, False)
            guest.view.write_u64(_pde_paddr(guest, target), _superpage(arch, 0x800000))
    if bad == "vaddr":
        vaddr += 8
    elif bad == "paddr":
        paddr += 8
    elif bad == "length":
        length = -length
    new, ref = guests
    got = _outcome(lambda: new.map_range(vaddr, paddr, length, True, False))
    want = _outcome(lambda: ref.reference_map_range(vaddr, paddr, length, True, False))
    assert got == want
    assert got != "ok" or (bad == "superpage" and pages + first % 512 <= blocked * 512)
    assert new.state() == ref.state()


# -- structural guards ----------------------------------------------------------------

@pytest.mark.parametrize("arch", ALL_ARCHES, ids=lambda a: a.name)
def test_mapping_a_leaf_table_reads_one_entry_per_upper_level(arch):
    guest = _Guest(arch)
    reads = collections.Counter()
    read = guest.view.read_u64

    def counting_read(paddr):
        reads[paddr] += 1
        return read(paddr)

    builder = arch.builder(counting_read, guest.view.write_u64, guest.alloc,
                           guest.view.write_run)
    builder.map_range(guest.root, arch.kernel_text_base, FRAME_BASE, 2 * MiB)
    upper_levels = len(arch.pt_format.walk_levels(guest.root, arch.kernel_text_base)) - 1
    assert sum(reads.values()) <= upper_levels


@st.composite
def kernels(draw):
    arch = draw(st.sampled_from(ALL_ARCHES))
    slot = draw(st.integers(min_value=0, max_value=arch.kaslr_slots - 2))
    image = draw(st.integers(min_value=1, max_value=1100))
    decoy = draw(st.none() | st.integers(min_value=1, max_value=511))
    return arch, slot, image, decoy


@given(layout=kernels())
@settings(max_examples=40, deadline=None)
def test_kaslr_scan_reads_each_deciding_entry_once(layout):
    arch, slot, image, decoy = layout
    host = HostKernel()
    vmsh = host.spawn_process("vmsh")
    hv = host.spawn_process("hypervisor")
    hva = host.syscall(hv.main_thread, "mmap", RAM, "guest-ram")
    space = hv.address_space
    tables = itertools.count(PAGE_SIZE, PAGE_SIZE)
    builder = arch.builder(
        lambda paddr: space.read_u64(hva + paddr),
        lambda paddr, value: space.write_u64(hva + paddr, value),
        lambda: next(tables),
    )
    root = arch.encode_pt_root(builder.new_root())
    vbase = arch.kaslr_slot_to_vaddr(slot)
    builder.map_range(root, vbase, FRAME_BASE, image * PAGE_SIZE)
    if decoy is not None and slot > 0:
        builder.map_page(root, vbase - decoy * PAGE_SIZE, 0)
    records = [MemslotRecord(slot=0, gpa=0, size=RAM, hva=hva)]
    gateway = GuestMemoryGateway(host, vmsh.main_thread, hv.pid, records, arch=arch)
    gateway.set_cr3(root)

    reads, faults = collections.Counter(), []
    read, read_run, init = PageTableView.read_u64, PageTableView.read_run, PageFaultError.__init__

    def counting_read(view, paddr):
        reads[paddr] += 1
        return read(view, paddr)

    def counting_run(view, paddr, count):
        # A per-table decode reads a word when its loop takes it: the
        # words past the entry a run stops at are decoded, not read.
        for offset, word in enumerate(read_run(view, paddr, count)):
            reads[paddr + offset * 8] += 1
            yield word

    def counting_init(error, *args):
        faults.append(args)
        init(error, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PageTableView, "read_u64", counting_read)
        patch.setattr(PageTableView, "read_run", counting_run)
        patch.setattr(PageFaultError, "__init__", counting_init)
        location = find_kernel(gateway)
    assert location == KernelLocation(vbase, vbase + image * PAGE_SIZE)
    assert faults == []

    walker = arch.walker(gateway.phys.read_u64)
    for page in range(image):
        assert reads[walker.translate(root, vbase + page * PAGE_SIZE).pte_paddr] == 1
    # Apart from the image walk's one descent to its first leaf table,
    # through upper entries the slot walk read, no entry is read twice.
    upper_levels = len(arch.pt_format.walk_levels(root, vbase)) - 1
    twice = [paddr for paddr, count in reads.items() if count > 1]
    assert all(reads[paddr] == 2 for paddr in twice)
    assert len(twice) <= upper_levels
