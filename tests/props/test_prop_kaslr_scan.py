"""The KASLR scan over a page-table view finds what a per-address probe finds.

``find_kernel`` runs inside the analyse step's
:class:`~repro.core.gateway.PageTableView`, which reads each table page
once and decodes entries from that copy.  The reference below is the
scan as it was before the view: one remote walk, one 8-byte
``process_vm_readv`` per level, for every probed address.  For any
KASLR slot, image length, adjacent tail (a previous session's library),
island past a gap and decoy page off the slot grid, on every arch
configuration, both must return the same :class:`KernelLocation`, and
the view must issue at most one remote call per table page.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.arch import ARM64, RISCV64, RISCV64_SV48, X86_64
from repro.core.gateway import GuestMemoryGateway
from repro.core.kaslr import KernelLocation, find_kernel
from repro.host.ebpf import MemslotRecord
from repro.host.kernel import HostKernel
from repro.units import MiB, PAGE_SIZE

ALL_ARCHES = (X86_64, ARM64, RISCV64, RISCV64_SV48)
RAM = 1 * MiB               # table pages only: leaves point at any frame
MAX_IMAGE_SIZE = 64 * MiB   # find_kernel's default end-scan bound


def _reference_scan(walker, root, arch) -> KernelLocation:
    """The per-address probe: every slot base, then every page."""
    vbase = next(
        base
        for base in range(
            arch.kernel_text_base,
            arch.kernel_text_base + arch.kernel_text_range,
            arch.kaslr_align,
        )
        if walker.is_mapped(root, base)
    )
    vend = vbase
    while vend < vbase + MAX_IMAGE_SIZE and walker.is_mapped(root, vend):
        vend += PAGE_SIZE
    return KernelLocation(vbase=vbase, vend=vend)


@st.composite
def layouts(draw):
    arch = draw(st.sampled_from(ALL_ARCHES))
    slot = draw(st.integers(min_value=0, max_value=arch.kaslr_slots - 2))
    image = draw(st.integers(min_value=1, max_value=700))
    tail = draw(st.integers(min_value=0, max_value=40))
    gap = draw(st.integers(min_value=1, max_value=600))
    island = draw(st.integers(min_value=0, max_value=8))
    decoy = draw(st.none() | st.integers(min_value=1, max_value=511))
    return arch, slot, image + tail, gap, island, decoy


@given(layout=layouts())
@settings(max_examples=60, deadline=None)
def test_view_scan_matches_per_address_probe(layout):
    arch, slot, mapped, gap, island, decoy = layout
    host = HostKernel()
    vmsh = host.spawn_process("vmsh")
    hv = host.spawn_process("hypervisor")
    hva = host.syscall(hv.main_thread, "mmap", RAM, "guest-ram")
    records = [MemslotRecord(slot=0, gpa=0, size=RAM, hva=hva)]
    space = hv.address_space
    tables = itertools.count(PAGE_SIZE, PAGE_SIZE)   # CR3 0 means "none"
    builder = arch.builder(
        lambda paddr: space.read_u64(hva + paddr),
        lambda paddr, value: space.write_u64(hva + paddr, value),
        lambda: next(tables),
    )
    root = arch.encode_pt_root(builder.new_root())
    vbase = arch.kaslr_slot_to_vaddr(slot)
    pages = list(range(mapped)) + [
        mapped + gap + i for i in range(island)
    ]
    for page in pages:
        builder.map_page(root, vbase + page * PAGE_SIZE, page * PAGE_SIZE)
    if decoy is not None and slot > 0:
        # Mapped, but off the slot grid and below the image: no scan
        # may take it for the kernel.
        builder.map_page(root, vbase - decoy * PAGE_SIZE, 0)

    gateway = GuestMemoryGateway(host, vmsh.main_thread, hv.pid, records, arch=arch)
    gateway.set_cr3(root)
    before = host.costs.count("procvm_copy")
    with gateway.page_tables():
        got = find_kernel(gateway)
    calls = host.costs.count("procvm_copy") - before

    want = _reference_scan(arch.walker(gateway.phys.read_u64), root, arch)
    assert got == want
    assert got == KernelLocation(vbase, vbase + mapped * PAGE_SIZE)
    assert calls <= len(builder.tables_allocated)
