"""Page tables: mapping, translation, permissions, scanning (x86-64
unless a test names its ISAs)."""

import itertools

import pytest

from repro.arch import ARM64, RISCV64, RISCV64_SV48, X86_64
from repro.errors import PageFaultError
from repro.mem.pagetable import (
    PTE_ADDR_MASK,
    PTE_NX,
    PTE_PRESENT,
    PTE_PSE,
    PTE_WRITABLE,
)
from repro.mem.pagetable_arm64 import ATTR_AF, DESC_BLOCK
from repro.mem.pagetable_riscv import PTE_A, PTE_R, PTE_V
from repro.mem.physmem import PhysicalMemory
from repro.units import GiB, MiB, PAGE_SIZE

#: (writable, nx) -> leaf word mapping frame 0x300000: P|A|G, plus R/W
#: when writable, plus NX.
LEAF_WORDS = {
    (True, False): 0x0000000000300123,
    (True, True): 0x8000000000300123,
    (False, False): 0x0000000000300121,
    (False, True): 0x8000000000300121,
}
#: the PML4 entry pointing to the first table allocated after the root
#: (0x101000): P|R/W|U/S
TABLE_WORD = 0x101007


@pytest.fixture()
def env():
    mem = PhysicalMemory(16 * MiB)
    alloc = itertools.count(1 * MiB, PAGE_SIZE)
    builder = X86_64.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    walker = X86_64.walker(mem.read_u64)
    cr3 = builder.new_root()
    return mem, builder, walker, cr3


def test_map_and_translate(env):
    mem, builder, walker, cr3 = env
    builder.map_page(cr3, 0xFFFFFFFF80000000, 0x200000)
    tr = walker.translate(cr3, 0xFFFFFFFF80000123)
    assert tr.paddr == 0x200123
    assert tr.level == 1
    assert tr.flags & PTE_PRESENT


def test_unmapped_address_faults(env):
    _, _, walker, cr3 = env
    with pytest.raises(PageFaultError):
        walker.translate(cr3, 0xFFFFFFFF80000000)


def test_map_range_contiguous(env):
    _, builder, walker, cr3 = env
    base = X86_64.kaslr_slot_to_vaddr(3)
    builder.map_range(cr3, base, 0x400000, 10 * PAGE_SIZE)
    for i in range(10):
        assert walker.translate(cr3, base + i * PAGE_SIZE).paddr == 0x400000 + i * PAGE_SIZE
    assert not walker.is_mapped(cr3, base + 10 * PAGE_SIZE)


def test_nx_and_readonly_flags(env):
    mem, builder, walker, cr3 = env
    builder.map_page(cr3, 0xFFFFFFFF80000000, 0x200000, writable=False, nx=True)
    tr = walker.translate(cr3, 0xFFFFFFFF80000000)
    assert not tr.flags & PTE_WRITABLE
    assert tr.flags & PTE_NX
    # The words themselves, for every (writable, nx) pair.
    for i, ((writable, nx), word) in enumerate(LEAF_WORDS.items(), start=1):
        vaddr = 0xFFFFFFFF80000000 + i * PAGE_SIZE
        builder.map_page(cr3, vaddr, 0x300000, writable=writable, nx=nx)
        assert mem.read_u64(walker.translate(cr3, vaddr).pte_paddr) == word
    assert mem.read_u64(cr3 + 511 * 8) == TABLE_WORD


def test_unmap_page(env):
    _, builder, walker, cr3 = env
    vaddr = X86_64.kaslr_slot_to_vaddr(1)
    builder.map_page(cr3, vaddr, 0x300000)
    assert walker.is_mapped(cr3, vaddr)
    builder.unmap_page(cr3, vaddr)
    assert not walker.is_mapped(cr3, vaddr)


def test_unmap_absent_raises(env):
    _, builder, _, cr3 = env
    with pytest.raises(PageFaultError):
        builder.unmap_page(cr3, X86_64.kaslr_slot_to_vaddr(2))


#: a level-2 entry's flags that make it map a 2 MiB superpage
SUPERPAGE_BITS = {
    "x86_64": PTE_PRESENT | PTE_PSE,
    "arm64": DESC_BLOCK | ATTR_AF,
    "riscv64": PTE_V | PTE_R | PTE_A,
    "riscv64_sv48": PTE_V | PTE_R | PTE_A,
}


@pytest.mark.parametrize(
    "arch", [X86_64, ARM64, RISCV64, RISCV64_SV48], ids=lambda a: a.name
)
def test_unmap_refuses_a_superpage(arch):
    """Unmapping a page inside a superpage raises before it writes
    anything: the way down must not take the superpage's data frame
    for a page table and clear a word of guest data in it."""
    mem = PhysicalMemory(16 * MiB)
    alloc = itertools.count(1 * MiB, PAGE_SIZE)
    builder = arch.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    walker = arch.walker(mem.read_u64)
    fmt = arch.pt_format
    root = arch.encode_pt_root(builder.new_root())
    base = arch.kernel_text_base
    builder.map_page(root, base, 0x200000)
    table = fmt.root_table(root)
    for level, shift in fmt.walk_levels(root, base):
        entry_addr = table + ((base & ((1 << 48) - 1)) >> shift & 511) * 8
        if level == 2:
            break
        table = fmt.address(mem.read_u64(entry_addr))
    mem.write_u64(entry_addr, fmt.encode(0x800000) | SUPERPAGE_BITS[arch.name])
    data = bytes(range(256)) * 16
    mem.write(0x800000, data)
    with pytest.raises(ValueError, match="cannot split superpage mapping at"):
        builder.unmap_page(root, base + 5 * PAGE_SIZE)
    assert mem.read(0x800000, PAGE_SIZE) == data
    assert walker.translate(root, base + 5 * PAGE_SIZE).paddr == 0x805000


def test_misaligned_mapping_rejected(env):
    _, builder, _, cr3 = env
    with pytest.raises(ValueError):
        builder.map_page(cr3, 0xFFFFFFFF80000001, 0x200000)
    with pytest.raises(ValueError):
        builder.map_page(cr3, 0xFFFFFFFF80000000, 0x200001)


def test_iter_present_range_finds_islands(env):
    _, builder, walker, cr3 = env
    base_a = X86_64.kaslr_slot_to_vaddr(5)
    base_b = X86_64.kaslr_slot_to_vaddr(200)
    builder.map_range(cr3, base_a, 0x500000, 2 * PAGE_SIZE)
    builder.map_range(cr3, base_b, 0x600000, PAGE_SIZE)
    found = [
        vaddr
        for vaddr, _ in walker.iter_present_range(
            cr3, 0xFFFFFFFF80000000, 0xFFFFFFFF80000000 + (1 << 30)
        )
    ]
    assert found == [base_a, base_a + PAGE_SIZE, base_b]


@pytest.mark.parametrize(
    "arch", [X86_64, ARM64, RISCV64, RISCV64_SV48], ids=lambda a: a.name
)
def test_scan_to_the_top_of_the_space_ends(arch):
    """A skip past the last top-level entry ends the scan at the top of
    the address space; folding 2**48 back to address 0 would rescan
    from the bottom (forever on a 4-level walk) and yield 0x1000."""
    mem = PhysicalMemory(16 * MiB)
    alloc = itertools.count(1 * MiB, PAGE_SIZE)
    builder = arch.builder(mem.read_u64, mem.write_u64, lambda: next(alloc))
    root = arch.encode_pt_root(builder.new_root())
    builder.map_page(root, 0x1000, 0x200000)
    scan = arch.walker(mem.read_u64).iter_present_range(
        root, 2**64 - GiB, 2**64 - PAGE_SIZE
    )
    assert list(itertools.islice(scan, 3)) == []


def _pde_addr(mem, cr3: int, vaddr: int) -> int:
    """Physical address of the page-directory entry on ``vaddr``'s walk."""
    raw = vaddr & ((1 << 48) - 1)
    table = cr3
    for shift in (39, 30):
        table = mem.read_u64(table + ((raw >> shift) & 511) * 8) & PTE_ADDR_MASK
    return table + ((raw >> 21) & 511) * 8


@pytest.mark.parametrize("pde_change, perms", [
    (lambda pde: pde & ~PTE_WRITABLE, {"r", "x"}),   # read-only PDE
    (lambda pde: pde | PTE_NX, {"r", "w"}),          # NX PDE
], ids=["read-only-pde", "nx-pde"])
def test_perms_combine_every_level(env, pde_change, perms):
    """W is the AND over all levels and NX the OR, as the MMU applies
    them: a writable, executable leaf under a read-only or an NX page
    directory entry is not writable or not executable."""
    mem, builder, walker, cr3 = env
    vaddr = 0xFFFFFFFF80000000
    builder.map_page(cr3, vaddr, 0x200000)
    assert X86_64.translation_perms(walker.translate(cr3, vaddr)) == {"r", "w", "x"}
    pde = _pde_addr(mem, cr3, vaddr)
    mem.write_u64(pde, pde_change(mem.read_u64(pde)))
    tr = walker.translate(cr3, vaddr)
    assert tr.flags & PTE_WRITABLE and not tr.flags & PTE_NX  # the leaf's own
    assert X86_64.translation_perms(tr) == perms


def test_translation_shares_intermediate_tables(env):
    """Two pages in the same 2M region must share a PT page."""
    _, builder, _, cr3 = env
    before = len(builder.tables_allocated)
    builder.map_page(cr3, 0xFFFFFFFF80000000, 0x200000)
    mid = len(builder.tables_allocated)
    builder.map_page(cr3, 0xFFFFFFFF80001000, 0x201000)
    assert len(builder.tables_allocated) == mid  # no new tables
    assert mid - before == 3  # PDPT + PD + PT


def test_canonical_roundtrip(env):
    """The last page below the hole and the first above it translate.
    The upper one's raw 48-bit form, the lower one with bit 48 set and
    an address with only bits 63-48 set fault as non-canonical, naming
    the address given, instead of folding onto a canonical page."""
    _, builder, walker, cr3 = env
    edges = (0x0000_7FFF_FFFF_F000, 0xFFFF_8000_0000_0000)
    for frame, vaddr in enumerate(edges, start=2):
        builder.map_page(cr3, vaddr, frame * MiB)
        assert walker.translate(cr3, vaddr + 5).paddr == frame * MiB + 5
    for vaddr in (0x0000_8000_0000_0000, 0x0001_7FFF_FFFF_F000, 0xFFFF_0000_0000_0000):
        with pytest.raises(PageFaultError, match="non-canonical") as fault:
            walker.translate(cr3, vaddr)
        assert fault.value.vaddr == vaddr
