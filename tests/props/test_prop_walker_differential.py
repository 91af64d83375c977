"""The page-table engine against the three walkers it replaced, on hostile tables.

VMSH walks bytes the guest controls, so a merged walker has to be
compared with the per-ISA walkers it replaced, not assumed equal to
them ("On the Impossibility of a Perfect Hypervisor").  The reference
below is those three walkers, verbatim: x86-64 (``PageTableWalker``),
AArch64 (``Arm64PageTableWalker``) and RISC-V Sv39/Sv48
(``RiscvPageTableWalker``), with the constants and the 48-bit
sign-extension helpers they read.  Those helpers fold an address that
is not canonical for its walk onto a canonical one, where the engine
faults (``test_prop_address_width.py`` checks that against the specs),
so every probe here is canonical: Sv39's sit below 2**38.

Table pages are filled with random words.  Along the probes' index
path each level's word is biased toward a table pointer, a leaf, or an
encoding the ISA reserves (x86 PS, an arm64 block, riscv W without R);
elsewhere stray words fall near the path or anywhere.  Address fields
name other table pages or aligned and misaligned superpage frames, and
the other low bits (valid, PSE, AF, A, R/W/X, ...) are uniformly
random.  On x86-64, arm64, Sv39 and Sv48, and under a Bare or unknown
``satp`` MODE, the engine must give the same :class:`Translation` or
the same ``PageFaultError`` message for every probed address, and the
same list from ``iter_present_range``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

from hypothesis import given, settings, strategies as st

from repro.arch import ARM64, RISCV64, RISCV64_SV48, X86_64
from repro.errors import PageFaultError
from repro.mem.pagetable import Translation
from repro.units import GiB, MiB, PAGE_SHIFT, PAGE_SIZE

# -- the reference: the per-ISA walkers as they were ------------------------------

CANONICAL_MASK = (1 << 48) - 1


def canonical(vaddr: int) -> int:
    """Sign-extend a 48-bit virtual address to 64 bits."""
    vaddr &= CANONICAL_MASK
    if vaddr & (1 << 47):
        vaddr |= ~CANONICAL_MASK & 0xFFFFFFFFFFFFFFFF
    return vaddr


def uncanonical(vaddr: int) -> int:
    """Strip the sign extension, returning the raw 48-bit address."""
    return vaddr & CANONICAL_MASK


# x86-64 (Intel SDM Vol. 3, Table 4-19)
PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_USER = 1 << 2
PTE_PSE = 1 << 7
PTE_ADDR_MASK = 0x000FFFFFFFFFF000

ENTRIES_PER_TABLE = 512
LEVEL_SHIFTS = (39, 30, 21, 12)

# AArch64
DESC_VALID = 0b1
DESC_TABLE_OR_PAGE = 0b11
DESC_BLOCK = 0b01
ATTR_AF = 1 << 10
ADDR_MASK = 0x0000FFFFFFFFF000

# RISC-V
PTE_V = 1 << 0
PTE_R = 1 << 1
PTE_W = 1 << 2
PTE_X = 1 << 3
PTE_A = 1 << 6
PTE_PPN_SHIFT = 10
PTE_PPN_MASK = 0x003FFFFFFFFFFC00
SATP_MODE_SHIFT = 60
SATP_MODE_SV39 = 8
SATP_MODE_SV48 = 9
SATP_PPN_MASK = (1 << 44) - 1
SV39_LEVEL_SHIFTS = (30, 21, 12)
SV48_LEVEL_SHIFTS = (39, 30, 21, 12)


class PageTableWalker:
    """Walks page tables through an arbitrary physical-read callback.

    The callback indirection matters: the guest kernel walks via direct
    physical memory access, while VMSH walks via
    ``process_vm_readv`` on the *hypervisor's* address space, paying
    the corresponding costs.  Both use this same class.
    """

    def __init__(self, read_u64: Callable[[int], int]):
        self._read_u64 = read_u64

    def translate(self, cr3: int, vaddr: int) -> Translation:
        """Translate ``vaddr`` using the tables rooted at ``cr3``."""
        vaddr = uncanonical(canonical(vaddr))
        table = cr3 & PTE_ADDR_MASK
        flags_accumulated = PTE_WRITABLE | PTE_USER
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (vaddr >> shift) & (ENTRIES_PER_TABLE - 1)
            pte_paddr = table + index * 8
            entry = self._read_u64(pte_paddr)
            if not entry & PTE_PRESENT:
                raise PageFaultError(canonical(vaddr), f"not present at level {4 - depth}")
            flags_accumulated &= entry | ~(PTE_WRITABLE | PTE_USER)
            level = 4 - depth
            is_leaf = level == 1 or (entry & PTE_PSE and level in (2, 3))
            if is_leaf:
                page_shift = LEVEL_SHIFTS[depth]
                page_mask = (1 << page_shift) - 1
                base = entry & PTE_ADDR_MASK & ~page_mask
                return Translation(
                    paddr=base | (vaddr & page_mask),
                    flags=(entry & ~PTE_ADDR_MASK) | (flags_accumulated & (PTE_WRITABLE | PTE_USER)),
                    level=level,
                    pte_paddr=pte_paddr,
                )
            table = entry & PTE_ADDR_MASK
        raise AssertionError("unreachable: level-1 entries are always leaves")

    def is_mapped(self, cr3: int, vaddr: int) -> bool:
        try:
            self.translate(cr3, vaddr)
            return True
        except PageFaultError:
            return False

    def iter_present_range(
        self, cr3: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, Translation]]:
        """Yield (vaddr, translation) for each mapped page in [start, end).

        It walks top-down and skips absent higher-level entries
        wholesale, so listing a 1 GiB range is cheap even when only a
        few MiB are mapped.  VMSH's KASLR scan does not use it: it
        probes slot bases through the gateway, whose TLB then already
        holds the image's translations for the ksymtab read, and its
        page-table view makes every probe's walk a local decode.
        """
        vaddr = start
        while vaddr < end:
            try:
                tr = self.translate(cr3, vaddr)
            except PageFaultError:
                vaddr = canonical(self._next_candidate(cr3, vaddr, step))
                continue
            yield canonical(vaddr), tr
            vaddr += step
        return

    def _next_candidate(self, cr3: int, vaddr: int, step: int) -> int:
        """Skip past the largest provably-unmapped region after a fault."""
        raw = uncanonical(canonical(vaddr))
        table = cr3 & PTE_ADDR_MASK
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry = self._read_u64(table + index * 8)
            if not entry & PTE_PRESENT:
                # Entire subtree absent: jump to the next entry at this level.
                span = 1 << shift
                return ((raw >> shift) + 1) << shift if span >= step else raw + step
            if entry & PTE_PSE and (4 - depth) in (2, 3):
                return raw + step
            table = entry & PTE_ADDR_MASK
        return raw + step


class Arm64PageTableWalker:
    """Walks AArch64 tables through a physical-read callback."""

    def __init__(self, read_u64: Callable[[int], int]):
        self._read_u64 = read_u64

    def translate(self, ttbr: int, vaddr: int) -> Translation:
        raw = uncanonical(canonical(vaddr))
        table = ttbr & ADDR_MASK
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            desc_paddr = table + index * 8
            descriptor = self._read_u64(desc_paddr)
            if not descriptor & DESC_VALID:
                raise PageFaultError(
                    canonical(vaddr), f"translation fault level {depth}"
                )
            level = depth
            dtype = descriptor & 0b11
            if level == 3:
                if dtype != DESC_TABLE_OR_PAGE:
                    raise PageFaultError(canonical(vaddr), "invalid L3 descriptor")
                if not descriptor & ATTR_AF:
                    raise PageFaultError(canonical(vaddr), "access flag fault")
                base = descriptor & ADDR_MASK
                return Translation(
                    paddr=base | (raw & (PAGE_SIZE - 1)),
                    flags=descriptor & ~ADDR_MASK,
                    level=1,
                    pte_paddr=desc_paddr,
                )
            if dtype == DESC_BLOCK and level in (1, 2):
                if not descriptor & ATTR_AF:
                    raise PageFaultError(canonical(vaddr), "access flag fault")
                block_shift = LEVEL_SHIFTS[depth]
                mask = (1 << block_shift) - 1
                base = descriptor & ADDR_MASK & ~mask
                return Translation(
                    paddr=base | (raw & mask),
                    flags=descriptor & ~ADDR_MASK,
                    level=3 - level + 1,
                    pte_paddr=desc_paddr,
                )
            if dtype != DESC_TABLE_OR_PAGE:
                raise PageFaultError(canonical(vaddr), f"invalid L{level} descriptor")
            table = descriptor & ADDR_MASK
        raise AssertionError("unreachable")

    def is_mapped(self, ttbr: int, vaddr: int) -> bool:
        try:
            self.translate(ttbr, vaddr)
            return True
        except PageFaultError:
            return False

    def iter_present_range(
        self, ttbr: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, Translation]]:
        """Yield (vaddr, translation) for each mapped page in [start, end).

        Skips invalid subtrees wholesale, like the x86-64 walker.  As
        there, the KASLR scan probes slot bases through the gateway
        instead.
        """
        vaddr = start
        while vaddr < end:
            try:
                tr = self.translate(ttbr, vaddr)
            except PageFaultError:
                vaddr = canonical(self._next_candidate(ttbr, vaddr, step))
                continue
            yield canonical(vaddr), tr
            vaddr += step

    def _next_candidate(self, ttbr: int, vaddr: int, step: int) -> int:
        raw = uncanonical(canonical(vaddr))
        table = ttbr & ADDR_MASK
        for depth, shift in enumerate(LEVEL_SHIFTS):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            descriptor = self._read_u64(table + index * 8)
            if not descriptor & DESC_VALID:
                span = 1 << shift
                return ((raw >> shift) + 1) << shift if span >= step else raw + step
            if (descriptor & 0b11) == DESC_BLOCK and depth in (1, 2):
                return raw + step
            if depth == 3:
                return raw + step
            table = descriptor & ADDR_MASK
        return raw + step


def _pte_paddr(entry: int) -> int:
    """Physical address encoded in a PTE's PPN field."""
    return ((entry & PTE_PPN_MASK) >> PTE_PPN_SHIFT) << PAGE_SHIFT


def _shifts_for(satp: int, vaddr: int) -> Tuple[int, ...]:
    """Level shifts for the paging mode in ``satp`` (faults on Bare)."""
    mode = satp >> SATP_MODE_SHIFT
    if mode == SATP_MODE_SV39:
        return SV39_LEVEL_SHIFTS
    if mode == SATP_MODE_SV48:
        return SV48_LEVEL_SHIFTS
    raise PageFaultError(
        canonical(vaddr), f"satp MODE {mode} is not Sv39/Sv48"
    )


def _root_table(satp: int) -> int:
    return (satp & SATP_PPN_MASK) << PAGE_SHIFT


class RiscvPageTableWalker:
    """Walks Sv39/Sv48 tables through a physical-read callback.

    Mode-agnostic: every :meth:`translate` decodes MODE out of the
    ``satp`` value it is handed, so the same walker serves Sv39 and
    Sv48 guests (and host-side walks never need to know which the
    guest kernel booted with).
    """

    def __init__(self, read_u64: Callable[[int], int]):
        self._read_u64 = read_u64

    def translate(self, satp: int, vaddr: int) -> Translation:
        shifts = _shifts_for(satp, vaddr)
        raw = uncanonical(canonical(vaddr))
        table = _root_table(satp)
        nlevels = len(shifts)
        for depth, shift in enumerate(shifts):
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            pte_addr = table + index * 8
            entry = self._read_u64(pte_addr)
            if not entry & PTE_V:
                raise PageFaultError(
                    canonical(vaddr), f"not valid at level {nlevels - depth}"
                )
            if entry & PTE_W and not entry & PTE_R:
                raise PageFaultError(
                    canonical(vaddr), "reserved W-without-R encoding"
                )
            if entry & (PTE_R | PTE_X):
                # Leaf at this level: a megapage/gigapage above the
                # last level, a 4 KiB page at the last.
                if not entry & PTE_A:
                    raise PageFaultError(canonical(vaddr), "accessed-bit fault")
                page_mask = (1 << shift) - 1
                base = _pte_paddr(entry)
                if base & page_mask:
                    raise PageFaultError(
                        canonical(vaddr), f"misaligned superpage at level {nlevels - depth}"
                    )
                return Translation(
                    paddr=base | (raw & page_mask),
                    flags=entry & ~PTE_PPN_MASK,
                    level=nlevels - depth,
                    pte_paddr=pte_addr,
                )
            # Pointer PTE (R=W=X=0): descend.
            table = _pte_paddr(entry)
        raise PageFaultError(
            canonical(vaddr), "pointer PTE at the last level"
        )

    def is_mapped(self, satp: int, vaddr: int) -> bool:
        try:
            self.translate(satp, vaddr)
            return True
        except PageFaultError:
            return False

    def iter_present_range(
        self, satp: int, start: int, end: int, step: int = PAGE_SIZE
    ) -> Iterator[Tuple[int, Translation]]:
        """Yield (vaddr, translation) for each mapped page in [start, end).

        Skips absent subtrees wholesale, like the x86-64 walker, so
        listing a 1 GiB window stays cheap when only a few MiB are
        mapped.  As on x86-64, the KASLR scan probes slot bases through
        the gateway instead.
        """
        vaddr = start
        while vaddr < end:
            try:
                tr = self.translate(satp, vaddr)
            except PageFaultError:
                vaddr = canonical(self._next_candidate(satp, vaddr, step))
                continue
            yield canonical(vaddr), tr
            vaddr += step

    def _next_candidate(self, satp: int, vaddr: int, step: int) -> int:
        """Skip past the largest provably-unmapped region after a fault."""
        shifts = _shifts_for(satp, vaddr)
        raw = uncanonical(canonical(vaddr))
        table = _root_table(satp)
        for shift in shifts:
            index = (raw >> shift) & (ENTRIES_PER_TABLE - 1)
            entry = self._read_u64(table + index * 8)
            if not entry & PTE_V:
                # Entire subtree absent: jump to the next entry at this level.
                span = 1 << shift
                return ((raw >> shift) + 1) << shift if span >= step else raw + step
            if entry & (PTE_R | PTE_X):
                return raw + step
            table = _pte_paddr(entry)
        return raw + step


# -- hostile tables ----------------------------------------------------------------

#: config -> (arch whose engine walks, reference walker, satp MODE or None)
CONFIGS = {
    "x86_64": (X86_64, PageTableWalker, None),
    "arm64": (ARM64, Arm64PageTableWalker, None),
    "riscv64": (RISCV64, RiscvPageTableWalker, SATP_MODE_SV39),
    "riscv64_sv48": (RISCV64_SV48, RiscvPageTableWalker, SATP_MODE_SV48),
    "riscv_bare": (RISCV64, RiscvPageTableWalker, 0),
    "riscv_unknown_mode": (RISCV64, RiscvPageTableWalker, None),
}

TABLE_PAGES = 6
TABLE_BASE = 16 * PAGE_SIZE       # table page k sits at TABLE_BASE + k * 4K
#: probes sit near this address.  Its index is below 511 at every level,
#: so a skip past an absent entry never runs off the top of the address
#: space (where the walkers above fold 2**48 back to address 0).
VBASE = canonical((300 << 39) | (200 << 30) | (100 << 21) | (50 << 12))
#: Sv39's probes sit near VBASE without its bits 38 and up: bit 38 is 0,
#: so that address is Sv39-canonical and has the same indices (200/100/50)
SV39_VBASE = VBASE & ((1 << 38) - 1)

HIGH_BITS = (0, 1 << 63, 3 << 53, (1 << 63) | (3 << 53))


def _target(rng) -> int:
    """An address an entry can name: a table page (4 KiB aligned, so
    also a misaligned superpage), a 2 MiB or 1 GiB aligned frame, or
    any page."""
    kind = rng.randrange(4)
    if kind == 0:
        return TABLE_BASE + rng.randrange(TABLE_PAGES) * PAGE_SIZE
    if kind == 1:
        return rng.randrange(64) * 2 * MiB
    if kind == 2:
        return rng.randrange(8) * GiB
    return rng.randrange(1 << 20) * PAGE_SIZE


#: indices next to the path's, where stray entries cluster
NEAR = sorted(
    {((uncanonical(VBASE) >> s) & 511) + d for s in LEVEL_SHIFTS for d in (-1, 1)}
)
PATH_SHAPES = st.sampled_from(["table", "table", "leaf", "reserved", "raw"])
PATH_WORD = st.tuples(
    st.booleans(),                          # a table pointer to the next page
    st.integers(0, 0xFFF),                  # uniform low 12 bits
    st.sampled_from(HIGH_BITS),             # x86 NX, arm64 UXN/PXN
    st.randoms(use_true_random=False),      # any other target
)
CHAIN = st.lists(st.integers(0, TABLE_PAGES - 1), min_size=4, max_size=4)
PROBES = st.lists(
    st.tuples(st.one_of(st.integers(-2, 2), st.integers(-1024, 1024)), st.integers(0, 7)),
    min_size=1, max_size=6,
)
RANGES = st.tuples(
    st.integers(-2 * MiB, 2 * MiB),
    st.sampled_from([0, 4 * PAGE_SIZE, 3 * MiB]),
    st.sampled_from([PAGE_SIZE, 2 * PAGE_SIZE, 2 * MiB]),
)


def _shape(config: str, low: int, shape: str) -> int:
    """Bias random low bits toward a table pointer, a leaf, or an
    encoding the ISA reserves (x86 PS, an arm64 block, riscv W
    without R)."""
    x86, arm64 = config == "x86_64", config == "arm64"
    if shape == "reserved":
        if x86:
            return low | PTE_PRESENT | PTE_PSE
        if arm64:
            return (low & ~DESC_TABLE_OR_PAGE) | DESC_BLOCK
        return (low & ~PTE_R) | PTE_V | PTE_W
    if shape == "table":
        if x86:
            return (low & ~PTE_PSE) | PTE_PRESENT
        if arm64:
            return low | DESC_TABLE_OR_PAGE
        return (low & ~(PTE_R | PTE_W | PTE_X)) | PTE_V
    if shape == "leaf":
        if x86:
            return low | PTE_PRESENT | PTE_PSE
        if arm64:
            return low | DESC_VALID | ATTR_AF
        return low | PTE_V | PTE_R | PTE_A
    return low


@st.composite
def hostile(draw):
    config = draw(st.sampled_from(sorted(CONFIGS)))
    _, _, mode = CONFIGS[config]
    if config == "riscv_unknown_mode":
        mode = draw(st.sampled_from([1, 7, 10, 11, 15]))
    riscv = config.startswith("riscv")

    def word(target, low, high, shape):
        field = (target >> PAGE_SHIFT) << PTE_PPN_SHIFT if riscv else target
        return field | _shape(config, low, shape) | high

    # A chain of table pages from the root (page 0) down the index path
    # of VBASE.  Each level's entry is a table pointer to the next page
    # in the chain, a leaf, a reserved encoding or raw bits; pages may
    # repeat, so walks can loop.
    pages = [{} for _ in range(TABLE_PAGES)]
    shifts = (30, 21, 12) if mode == SATP_MODE_SV39 else LEVEL_SHIFTS
    chain = [0] + draw(CHAIN)
    for depth, shift in enumerate(shifts):
        shape = draw(PATH_SHAPES)
        to_next, low, high, rng = draw(PATH_WORD)
        target = TABLE_BASE + chain[depth + 1] * PAGE_SIZE
        if shape != "table" and not to_next:
            target = _target(rng)
        pages[chain[depth]][(uncanonical(VBASE) >> shift) & 511] = word(
            target, low, high, shape
        )
    # Stray entries, next to the path's indices or anywhere.
    rng = draw(st.randoms(use_true_random=False))
    for entries in pages:
        for _ in range(rng.randrange(9)):
            index = rng.choice(NEAR) if rng.randrange(2) else rng.randrange(512)
            entries[index] = word(
                _target(rng), rng.getrandbits(12), rng.choice(HIGH_BITS),
                rng.choice(("raw", "table", "leaf", "reserved")),
            )

    noise = draw(st.integers(0, 0xFFF))
    if mode is None:
        root = TABLE_BASE | noise | draw(st.sampled_from([0, 0xABC << 52]))
    else:
        root = (mode << 60) | (noise << 44) | (TABLE_BASE >> PAGE_SHIFT)
    base = SV39_VBASE if mode == SATP_MODE_SV39 else VBASE
    probes = [base + page * PAGE_SIZE + byte for page, byte in draw(PROBES)]
    offset, span, step = draw(RANGES)
    return config, pages, root, probes, (base + offset, base + offset + span, step)


def _memory(pages):
    words = {
        TABLE_BASE + k * PAGE_SIZE + i * 8: value
        for k, entries in enumerate(pages)
        for i, value in entries.items()
    }
    return lambda paddr: words.get(paddr, 0)


def _outcome(fn):
    try:
        return "ok", fn()
    except PageFaultError as exc:
        return "fault", str(exc)


@given(case=hostile())
@settings(max_examples=600, deadline=None)
def test_engine_matches_the_per_isa_walkers_on_hostile_tables(case):
    config, pages, root, probes, (start, end, step) = case
    arch, reference_cls, _ = CONFIGS[config]
    read = _memory(pages)
    engine, reference = arch.walker(read), reference_cls(read)
    for vaddr in probes:
        assert _outcome(lambda: engine.translate(root, vaddr)) == _outcome(
            lambda: reference.translate(root, vaddr)
        ), (config, hex(vaddr))
    assert _outcome(
        lambda: list(engine.iter_present_range(root, start, end, step))
    ) == _outcome(
        lambda: list(reference.iter_present_range(root, start, end, step))
    ), config
