"""Each page-table walk's address width, against the architecture specs.

The widths below come from the manuals, not from the engine's code:

- x86-64 4-level paging (Intel SDM Vol. 1 §3.3.7.1, Vol. 3A §4.5):
  48-bit linear addresses; an address is canonical when bits 63-47 are
  equal.
- RISC-V Sv39 (privileged spec §4.4.1): bits 63-39 must equal bit 38.
- RISC-V Sv48 (§4.5.1): bits 63-48 must equal bit 47.
- AArch64 with 48-bit VAs (T0SZ = T1SZ = 16): TTBR0 translates the
  addresses whose top 16 bits are all 0 and TTBR1 those whose top 16
  bits are all 1.  This model walks both halves from one root, L0
  entries 0-255 for the low half and 256-511 for the high one, so its
  rule is x86-64's: 48 bits, sign-extended.

So a ``bits``-wide space is the two ranges ``[0, 2**(bits-1))`` and
``[2**64 - 2**(bits-1), 2**64)``; everything between is the hole.
Tables map pages at both edges of the hole, at the bottom and the top
of the space and anywhere else.  Probes are random 64-bit addresses,
addresses around the hole's edges, and the mapped pages with the bits
above their width flipped, cleared or set.  ``translate`` must fault,
naming the probe, if and only if the probe is outside both ranges or
its page is unmapped, and must otherwise give the mapping.
``iter_present_range`` over ranges that start, end or lie in the hole,
or cross it, must list exactly the mapped pages in the range.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ARM64, RISCV64, RISCV64_SV48, X86_64
from repro.errors import PageFaultError
from repro.mem.physmem import PhysicalMemory
from repro.units import MiB, PAGE_SIZE

#: virtual-address width of each walk, from the specs above
SPEC_WIDTHS = ((X86_64, 48), (ARM64, 48), (RISCV64, 39), (RISCV64_SV48, 48))
TOP = 1 << 64
FRAME_BASE = 64 * MiB


def _ranges(bits):
    """The spec's canonical ranges: the lower and the upper half."""
    half = 1 << (bits - 1)
    return range(0, half), range(TOP - half, TOP)


def _canonical(vaddr, bits):
    return any(vaddr in valid for valid in _ranges(bits))


@st.composite
def spaces(draw):
    arch, bits = draw(st.sampled_from(SPEC_WIDTHS))
    lower, upper = _ranges(bits)
    pages_per_half = len(lower) // PAGE_SIZE

    def page_below(edge):
        return st.integers(1, 600).map(lambda k: edge - k * PAGE_SIZE)

    def page_from(edge):
        return st.integers(0, 599).map(lambda k: edge + k * PAGE_SIZE)

    mapped = draw(st.lists(
        st.one_of(
            st.sampled_from([lower.start, lower.stop - PAGE_SIZE, upper.start, upper.stop - PAGE_SIZE]),
            page_from(lower.start), page_below(lower.stop),
            page_from(upper.start), page_below(upper.stop),
            st.integers(0, pages_per_half - 1).map(lambda k: k * PAGE_SIZE),
            st.integers(0, pages_per_half - 1).map(lambda k: upper.start + k * PAGE_SIZE),
        ),
        min_size=1, max_size=12, unique=True,
    ))

    above = TOP - (1 << bits)              # the bits above the width
    twists = st.one_of(
        st.just(0),                                        # the page itself
        st.just(above),                                    # flip them all
        st.integers(bits, 63).map(lambda k: 1 << k),       # flip one
        st.integers(0, TOP - 1).map(lambda h: h & above),  # flip any
    )
    probes = draw(st.lists(
        st.one_of(
            st.integers(0, TOP - 1),
            st.sampled_from([lower.stop, upper.start]).flatmap(
                lambda edge: st.integers(edge - 3 * PAGE_SIZE, edge + 3 * PAGE_SIZE - 1)
            ),
            st.tuples(st.sampled_from(mapped), st.integers(0, PAGE_SIZE - 1), twists).map(
                lambda t: (t[0] | t[1]) ^ t[2]
            ),
        ),
        min_size=1, max_size=16,
    ))

    # Range bounds: page-aligned points around the space's bottom, the
    # hole's two edges and the top, or anywhere; one range crosses the
    # hole.
    points = st.one_of(
        st.tuples(
            st.sampled_from([0, lower.stop, upper.start, TOP]), st.integers(-700, 700)
        ).map(lambda t: min(max(t[0] + t[1] * PAGE_SIZE, 0), TOP)),
        st.integers(0, TOP // PAGE_SIZE).map(lambda k: k * PAGE_SIZE),
    )
    ranges = [tuple(sorted(draw(st.tuples(points, points)))) for _ in range(2)]
    ranges.append((draw(page_below(lower.stop)), draw(page_from(upper.start)) + PAGE_SIZE))
    return arch, bits, mapped, probes, ranges


@given(space=spaces())
@settings(max_examples=200, deadline=None)
def test_walks_fault_exactly_outside_the_specs_address_ranges(space):
    arch, bits, mapped, probes, ranges = space
    mem = PhysicalMemory(1 * MiB)
    tables = itertools.count(PAGE_SIZE, PAGE_SIZE)
    builder = arch.builder(mem.read_u64, mem.write_u64, lambda: next(tables))
    root = arch.encode_pt_root(builder.new_root())
    frames = {}
    for index, vaddr in enumerate(mapped):
        frames[vaddr] = FRAME_BASE + index * PAGE_SIZE
        builder.map_page(root, vaddr, frames[vaddr])
    walker = arch.walker(mem.read_u64)

    for probe in probes:
        page, offset = probe - probe % PAGE_SIZE, probe % PAGE_SIZE
        canonical = _canonical(probe, bits)
        if canonical and page in frames:
            assert walker.translate(root, probe).paddr == frames[page] + offset
            continue
        with pytest.raises(PageFaultError) as fault:
            walker.translate(root, probe)
        assert fault.value.vaddr == probe
        assert (fault.value.reason == "non-canonical address") is not canonical, hex(probe)

    for start, end in ranges:
        listed = [(vaddr, tr.paddr) for vaddr, tr in walker.iter_present_range(root, start, end)]
        assert listed == [
            (vaddr, frames[vaddr]) for vaddr in sorted(frames) if start <= vaddr < end
        ], (hex(start), hex(end))
