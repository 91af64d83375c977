"""Property tests: physical memory and page tables."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import X86_64
from repro.errors import PageFaultError
from repro.mem.physmem import PhysicalMemory
from repro.units import MiB, PAGE_SIZE

KERNEL_TEXT_BASE = X86_64.kernel_text_base

MEM_SIZE = 4 * MiB


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MEM_SIZE - 64),
            st.binary(min_size=1, max_size=64),
        ),
        max_size=24,
    )
)
def test_physmem_matches_reference_bytearray(writes):
    """Sparse memory must behave exactly like a dense bytearray."""
    mem = PhysicalMemory(MEM_SIZE)
    reference = bytearray(MEM_SIZE)
    for addr, data in writes:
        mem.write(addr, data)
        reference[addr : addr + len(data)] = data
    for addr, data in writes:
        start = max(0, addr - 8)
        length = min(len(data) + 16, MEM_SIZE - start)
        assert mem.read(start, length) == bytes(reference[start : start + length])


@st.composite
def sparse_reads(draw):
    """Writes scattered over memory, and reads of 2-600 pages, of all
    memory, or starting and ending mid-page."""
    pages = MEM_SIZE // PAGE_SIZE
    writes = draw(st.lists(
        st.tuples(st.integers(0, MEM_SIZE - 1), st.binary(min_size=1, max_size=3 * PAGE_SIZE)),
        max_size=12,
    ))
    reads = draw(st.lists(
        st.one_of(
            st.tuples(st.integers(0, pages - 2), st.integers(2, 600)).map(
                lambda r: (r[0] * PAGE_SIZE, min(r[1], pages - r[0]) * PAGE_SIZE)
            ),
            st.just((0, MEM_SIZE)),
            st.tuples(st.integers(0, MEM_SIZE - 2), st.integers(2, 600 * PAGE_SIZE)).map(
                lambda r: (r[0], min(r[1], MEM_SIZE - r[0]))
            ),
        ),
        min_size=1, max_size=6,
    ))
    return writes, reads


@given(case=sparse_reads())
@settings(max_examples=60, deadline=None)
def test_page_crossing_reads_match_the_dense_reference(case):
    """A read across pages copies the materialized ones and zeros for
    the rest: the bytes are the dense reference's, and the fault hook
    sees the read once, as it is."""
    writes, reads = case
    mem = PhysicalMemory(MEM_SIZE)
    reference = bytearray(MEM_SIZE)
    for addr, data in writes:
        data = data[: MEM_SIZE - addr]
        mem.write(addr, data)
        reference[addr : addr + len(data)] = data
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PhysicalMemory, "fault_check",
                      lambda site, addr, length: seen.append((site, addr, length)))
        for addr, length in reads:
            assert mem.read(addr, length) == bytes(reference[addr : addr + length])
    assert seen == [("physmem.read", addr, length) for addr, length in reads]


@given(
    addr=st.integers(min_value=0, max_value=MEM_SIZE - 8),
    value=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_physmem_u64_roundtrip(addr, value):
    mem = PhysicalMemory(MEM_SIZE)
    mem.write_u64(addr, value)
    assert mem.read_u64(addr) == value


@st.composite
def page_mappings(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    vpages = draw(
        st.lists(
            st.integers(min_value=0, max_value=4096),
            min_size=count, max_size=count, unique=True,
        )
    )
    ppages = draw(
        st.lists(
            st.integers(min_value=512, max_value=1023),
            min_size=count, max_size=count, unique=True,
        )
    )
    return list(zip(vpages, ppages))


@given(mappings=page_mappings())
@settings(max_examples=40)
def test_pagetable_translations_match_mappings(mappings):
    """Every mapped page translates exactly; everything else faults."""
    mem = PhysicalMemory(64 * MiB)
    alloc = itertools.count(16 * MiB, PAGE_SIZE)
    builder = X86_64.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    walker = X86_64.walker(mem.read_u64)
    cr3 = builder.new_root()
    for vpage, ppage in mappings:
        builder.map_page(cr3, KERNEL_TEXT_BASE + vpage * PAGE_SIZE, ppage * PAGE_SIZE)
    mapped = {v for v, _ in mappings}
    for vpage, ppage in mappings:
        vaddr = KERNEL_TEXT_BASE + vpage * PAGE_SIZE
        tr = walker.translate(cr3, vaddr + 7)
        assert tr.paddr == ppage * PAGE_SIZE + 7
    for probe in range(0, 4097, 97):
        vaddr = KERNEL_TEXT_BASE + probe * PAGE_SIZE
        assert walker.is_mapped(cr3, vaddr) == (probe in mapped)


@given(vaddr=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_canonicalisation_idempotent(vaddr):
    """A walk canonicalises by the identity, which is idempotent: it
    takes the address it is given as it is.  A canonical one (bits
    63-47 all equal) faults as unmapped on an empty table, any other as
    non-canonical, and either fault names that address."""
    mem = PhysicalMemory(1 * MiB)
    walker = X86_64.walker(mem.read_u64)
    with pytest.raises(PageFaultError) as fault:
        walker.translate(0, vaddr)
    assert fault.value.vaddr == vaddr
    assert (fault.value.reason == "non-canonical address") is (
        vaddr >> 47 not in (0, (1 << 17) - 1)
    )


# -- gateway: virtual round-trips across page & memslot boundaries -------------

from repro.core.gateway import GuestMemoryGateway      # noqa: E402
from repro.host.ebpf import MemslotRecord              # noqa: E402
from repro.host.kernel import HostKernel               # noqa: E402

SLOT_PAGES = 64
DATA_PAGES = SLOT_PAGES + SLOT_PAGES // 2       # the window spans both slots
DATA_BYTES = DATA_PAGES * PAGE_SIZE


def _gateway_env():
    """Two gpa-contiguous (hva-disjoint) memslots behind a gateway, with
    an identity-mapped kernel-space window covering both."""
    host = HostKernel()
    vmsh = host.spawn_process("vmsh")
    hv = host.spawn_process("hypervisor")
    size = SLOT_PAGES * PAGE_SIZE
    records = []
    for i in range(2):
        hva = host.syscall(hv.main_thread, "mmap", size, f"guest-ram-{i}")
        records.append(MemslotRecord(slot=i, gpa=i * size, size=size, hva=hva))
    gateway = GuestMemoryGateway(host, vmsh.main_thread, hv.pid, records)
    # Page tables live in the top pages of slot 1, clear of the data window.
    alloc = itertools.count((2 * SLOT_PAGES - 24) * PAGE_SIZE, PAGE_SIZE)
    builder = gateway.arch.builder(
        gateway.phys.read_u64, gateway.phys.write_u64, lambda: next(alloc)
    )
    roots = []
    for _ in range(2):      # second identical root models a CR3 reload
        cr3 = builder.new_root()
        for page in range(DATA_PAGES):
            builder.map_page(
                cr3, KERNEL_TEXT_BASE + page * PAGE_SIZE, page * PAGE_SIZE
            )
        roots.append(cr3)
    gateway.set_cr3(roots[0])
    return gateway, records, roots


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=DATA_BYTES - 256),
            st.binary(min_size=1, max_size=256),
        ),
        min_size=1,
        max_size=6,
    ),
    reload_mode=st.sampled_from(["none", "cr3", "memslots"]),
)
@settings(max_examples=20, deadline=None)
def test_gateway_virt_roundtrip_survives_tlb_invalidation(ops, reload_mode):
    """write_virt/read_virt round-trip through the software TLB and the
    vectored copy path, across page and memslot boundaries, before and
    after the TLB is flushed by a CR3 reload or a memslot refresh."""
    gateway, records, roots = _gateway_env()
    reference = bytearray(DATA_BYTES)
    for offset, data in ops:
        gateway.write_virt(KERNEL_TEXT_BASE + offset, data)
        reference[offset : offset + len(data)] = data
    if reload_mode == "cr3":
        gateway.set_cr3(roots[1])
    elif reload_mode == "memslots":
        stats_before = gateway.phys.stats
        gateway.refresh_memslots(records)
        assert gateway.phys.stats is stats_before       # counters cumulative
    if reload_mode != "none":
        assert gateway._tlb == {}                       # flushed like real TLBs
    for offset, data in ops:
        start = max(0, offset - 8)
        length = min(len(data) + 16, DATA_BYTES - start)
        got = gateway.read_virt(KERNEL_TEXT_BASE + start, length)
        assert got == bytes(reference[start : start + length])
