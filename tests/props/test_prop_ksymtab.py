"""Property tests: the ksymtab parser against adversarial images.

The parser must recover the true table from an image that also
contains decoy string regions and junk — and it must never crash on
arbitrary bytes.
"""

import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ksymtab
from repro.core.kaslr import KernelLocation
from repro.core.ksymtab import (
    ENTRY_STRIDES,
    IDENTIFIER_BYTES,
    MIN_STRING_REGION,
    _candidate_offsets,
    _find_string_regions,
    _live_spans,
    parse_ksymtab,
)
from repro.errors import SideloadError
from repro.guestos.loader import KERNEL_IMAGE_SIZE, build_kernel_image
from repro.guestos.symbols import ENTRY_SIZES, build_symbol_sections
from repro.guestos.version import KernelVersion
from repro.mem.layout import KERNEL_TEXT_BASE
from repro.mem.physmem import PhysicalMemory
from repro.units import MiB

IMAGE_SIZE = 2 * MiB
identifier = st.text(alphabet=string.ascii_lowercase + "_", min_size=2, max_size=20)


class FakeGateway:
    """A gateway whose virtual reads come from a flat buffer."""

    def __init__(self, image: bytes, vbase: int = KERNEL_TEXT_BASE):
        self.image = image
        self.vbase = vbase

    def read_virt(self, vaddr: int, length: int) -> bytes:
        offset = vaddr - self.vbase
        return self.image[offset : offset + length]


@given(
    layout=st.sampled_from(sorted(ENTRY_SIZES)),
    symbols=st.dictionaries(identifier, st.integers(0x2000, 0xF0000),
                            min_size=9, max_size=30),
    decoys=st.lists(identifier, min_size=3, max_size=10),
    junk=st.binary(min_size=0, max_size=512),
)
@settings(max_examples=25, deadline=None)
def test_parser_finds_true_table_despite_decoys(layout, symbols, decoys, junk):
    mem = PhysicalMemory(IMAGE_SIZE)
    # The real sections.
    build_symbol_sections(
        {name: KERNEL_TEXT_BASE + off for name, off in symbols.items()},
        layout,
        strings_vaddr=KERNEL_TEXT_BASE + 0x118000,
        ksymtab_vaddr=KERNEL_TEXT_BASE + 0x110000,
        write=lambda vaddr, data: mem.write(vaddr - KERNEL_TEXT_BASE, data),
    )
    # A decoy string region with no table referencing it.
    decoy_blob = b"\x00".join(d.encode() for d in decoys) + b"\x00"
    mem.write(0x40000, decoy_blob)
    # And arbitrary junk elsewhere.
    mem.write(0x80000, junk)

    gateway = FakeGateway(mem.read(0, IMAGE_SIZE))
    location = KernelLocation(KERNEL_TEXT_BASE, KERNEL_TEXT_BASE + IMAGE_SIZE)
    parsed = parse_ksymtab(gateway, location)
    assert parsed.layout == layout
    for name, off in symbols.items():
        assert parsed.symbols[name] == KERNEL_TEXT_BASE + off


@given(noise=st.binary(min_size=64, max_size=4096))
@settings(max_examples=30, deadline=None)
def test_parser_never_crashes_on_noise(noise):
    """Arbitrary bytes: either a clean SideloadError or a parse that
    satisfied every consistency check — never an exception."""
    mem = PhysicalMemory(IMAGE_SIZE)
    mem.write(0x1000, noise * (65536 // max(1, len(noise))))
    gateway = FakeGateway(mem.read(0, IMAGE_SIZE))
    location = KernelLocation(KERNEL_TEXT_BASE, KERNEL_TEXT_BASE + IMAGE_SIZE)
    try:
        parsed = parse_ksymtab(gateway, location)
    except SideloadError:
        return
    # If something parsed, it passed the consistency checks: at least
    # MIN_RUN_LENGTH entries whose names are genuine identifiers.
    assert len(parsed.symbols) >= 8
    assert all(name.isidentifier() for name in parsed.symbols)


# -- the string-region scan against its byte-at-a-time reference --------------------


def _reference_string_regions(image: bytes):
    """The scan as first written: one loop iteration per image byte."""
    regions = []
    pos = 0
    size = len(image)
    while pos < size:
        if image[pos] not in IDENTIFIER_BYTES:
            pos += 1
            continue
        start = pos
        identifiers = 0
        cursor = pos
        while cursor < size:
            word_start = cursor
            while cursor < size and image[cursor] in IDENTIFIER_BYTES:
                cursor += 1
            if cursor >= size or image[cursor] != 0:
                break
            if cursor > word_start:
                identifiers += 1
            cursor += 1  # consume the NUL
            if cursor < size and image[cursor] not in IDENTIFIER_BYTES:
                break
        end = cursor
        if identifiers >= 3 and end - start >= MIN_STRING_REGION:
            regions.append((start, end))
        pos = max(end, pos + 1)
    regions.sort(key=lambda r: r[1] - r[0], reverse=True)
    return regions[:8]


_word = st.text(alphabet=string.ascii_letters + string.digits + "_",
                min_size=1, max_size=24).map(lambda w: w.encode() + b"\x00")
# Byte-level: identifier bytes, NUL and everything else, freely mixed.
_byte_soup = st.lists(
    st.one_of(st.sampled_from(sorted(IDENTIFIER_BYTES)), st.just(0),
              st.integers(0, 255)),
    max_size=1024,
).map(bytes)
# Token-level: runs of NUL-terminated words (long enough to pass the
# region filters), NUL gaps and junk, in any order.
_token_soup = st.lists(
    st.one_of(st.lists(_word, min_size=1, max_size=8).map(b"".join),
              st.integers(1, 16).map(lambda n: b"\x00" * n),
              st.binary(max_size=8)),
    max_size=32,
).map(b"".join)


@given(image=st.one_of(_byte_soup, _token_soup))
@settings(max_examples=200, deadline=None)
def test_string_region_scan_matches_reference(image):
    assert (_find_string_regions(image, _live_spans(image))
            == _reference_string_regions(image))


@pytest.mark.parametrize("layout", sorted(ENTRY_SIZES))
def test_string_region_scan_matches_reference_on_kernel_images(layout):
    mem = PhysicalMemory(KERNEL_IMAGE_SIZE)
    build_kernel_image(KernelVersion(5, 10), KERNEL_TEXT_BASE, 0, mem.write,
                       ksymtab_layout=layout)
    image = mem.read(0, KERNEL_IMAGE_SIZE)
    regions = _find_string_regions(image, _live_spans(image))
    assert regions                      # the .ksymtab_strings section
    assert regions == _reference_string_regions(image)


# -- the blocked candidate pre-filter against its whole-image reference ------------


def _reference_candidate_offsets(image, location, layout, region_start, region_end):
    """The pre-filter as first written: whole-image int64 arrays."""
    image_span = location.vend - location.vbase
    if layout == "absolute":
        n = len(image) & ~7
        if n < 16:
            return []
        words = np.frombuffer(image[:n], dtype="<u8")
        value, name = words[:-1], words[1:]
        ok = (
            (value >= location.vbase)
            & (value < location.vend)
            & (name >= location.vbase + region_start)
            & (name < location.vbase + region_end)
        )
        return [int(k) * 8 for k in np.nonzero(ok)[0]]
    n = len(image) & ~3
    if n < 8:
        return []
    rel = np.frombuffer(image[:n], dtype="<u4").view(np.int32).astype(np.int64)
    offsets = np.arange(0, n, 4, dtype=np.int64)
    value_target = offsets[:-1] + rel[:-1]
    name_target = offsets[:-1] + 4 + rel[1:]
    ok = (
        (value_target >= 0)
        & (value_target < image_span)
        & (name_target >= region_start)
        & (name_target < region_end)
    )
    return [int(k) * 4 for k in np.nonzero(ok)[0]]


@given(
    layout=st.sampled_from(sorted(ENTRY_STRIDES)),
    # small words so that many of them reference inside the image
    words=st.lists(st.integers(-64, 64), max_size=200),
    tail=st.binary(max_size=7),
    region=st.tuples(st.integers(0, 512), st.integers(0, 512)).map(sorted),
    block=st.sampled_from([1, 2, 3, 7, 64, ksymtab._BLOCK_WORDS]),
)
@settings(max_examples=300, deadline=None)
def test_candidate_offsets_match_reference(layout, words, tail, region, block):
    if layout == "absolute":
        image = b"".join((KERNEL_TEXT_BASE + 8 * w).to_bytes(8, "little")
                         for w in words)
    else:
        image = b"".join(w.to_bytes(4, "little", signed=True) for w in words)
    image += tail
    location = KernelLocation(KERNEL_TEXT_BASE, KERNEL_TEXT_BASE + len(image))
    with mock.patch.object(ksymtab, "_BLOCK_WORDS", block):
        got = _candidate_offsets(image, location, layout, *region,
                                 _live_spans(image))
    assert got == _reference_candidate_offsets(image, location, layout, *region)


@pytest.mark.parametrize("image_layout", sorted(ENTRY_SIZES))
def test_candidate_offsets_match_reference_on_kernel_images(image_layout):
    mem = PhysicalMemory(KERNEL_IMAGE_SIZE)
    build_kernel_image(KernelVersion(5, 10), KERNEL_TEXT_BASE, 0, mem.write,
                       ksymtab_layout=image_layout)
    image = mem.read(0, KERNEL_IMAGE_SIZE)
    location = KernelLocation(KERNEL_TEXT_BASE, KERNEL_TEXT_BASE + len(image))
    spans = _live_spans(image)
    hits = 0
    for layout in ENTRY_STRIDES:
        for region in _find_string_regions(image, spans):
            got = _candidate_offsets(image, location, layout, *region, spans)
            assert got == _reference_candidate_offsets(
                image, location, layout, *region)
            hits += len(got)
    assert hits                         # the real table is among them


# -- both passes over sparse images against the whole-image references -------------

PAGE = ksymtab.PAGE_SIZE
vbases = st.sampled_from([0, KERNEL_TEXT_BASE])


def _put(image: bytearray, at: int, data: bytes) -> None:
    """Write ``data`` at ``at``, clipped to the image."""
    start = min(max(at, 0), len(image))
    data = data[start - at :][: len(image) - start]
    image[start : start + len(data)] = data


_soups = {
    "bytes": _byte_soup,
    "tokens": _token_soup,
    # a run of identifiers, as in a .ksymtab_strings section
    "strings": st.lists(_word, min_size=3, max_size=12).map(b"".join),
}


def _near_edge(size: int, reach: int):
    """Offsets within ``reach`` bytes of a page boundary of a
    ``size``-byte image, clipped to it."""
    return st.sampled_from(range(0, size + 1, PAGE)).flatmap(
        lambda b: st.integers(max(b - reach, 0), min(b + reach, size)))


@st.composite
def _sparse_images(draw, vbase: int = KERNEL_TEXT_BASE, targets=None) -> bytes:
    """0-8 zero pages and a 0-300-byte tail, with byte and token soups,
    runs of identifiers, absolute pointers into the image and small
    relative words written within 40 bytes of page boundaries.  A soup
    or run may end at its anchor, cut after its last non-NUL byte; words
    are aligned to their size.  The image offsets the words point at are
    appended to ``targets``."""
    size = draw(st.integers(0, 8)) * PAGE + draw(st.integers(0, 300))
    image = bytearray(size)
    pointers = st.lists(st.one_of(st.integers(0, size), _near_edge(size, 64)),
                        min_size=1, max_size=4)
    relatives = st.lists(st.integers(-16, 16), min_size=1, max_size=8)
    for _ in range(draw(st.integers(0, 6))):
        at = (draw(st.sampled_from(range(0, size + 1, PAGE)))
              + draw(st.one_of(st.just(0), st.integers(-40, 40))))
        kind = draw(st.sampled_from(
            ["bytes", "tokens", "strings", "pointers", "relatives"]))
        if kind == "pointers":
            at -= at % 8
            offsets = draw(pointers)
            data = b"".join((vbase + off).to_bytes(8, "little") for off in offsets)
        elif kind == "relatives":
            at -= at % 4
            words = draw(relatives)
            data = b"".join(w.to_bytes(4, "little", signed=True) for w in words)
            # word k is relative to its own offset
            offsets = [at + 4 * k + w for k, w in enumerate(words)]
        else:
            data, offsets = draw(_soups[kind]), []
            if draw(st.booleans()):
                data = data.rstrip(b"\x00")
                at -= len(data)
        _put(image, at, data)
        if targets is not None:
            targets.extend(off for off in offsets if 0 <= off <= size)
    return bytes(image)


def _regions_in(size: int, targets=()):
    """Regions anywhere in a ``size``-byte image, zero pages included:
    often starting at 0 or near a page boundary, often short, and often
    around an offset in ``targets``."""
    start = st.one_of(st.just(0), st.integers(0, size), _near_edge(size, 8))
    length = st.one_of(st.integers(0, 64), st.integers(0, size))
    anywhere = st.tuples(start, length).map(
        lambda r: (r[0], min(r[0] + r[1], size)))
    if not targets:
        return anywhere
    around = st.tuples(st.sampled_from(targets), st.integers(0, 12),
                       st.integers(1, 12)).map(
        lambda t: (max(t[0] - t[1], 0), min(t[0] + t[2], size)))
    return st.one_of(anywhere, around)


@given(image=_sparse_images())
@settings(max_examples=300, deadline=None)
def test_string_regions_of_sparse_images_match_reference(image):
    assert (_find_string_regions(image, _live_spans(image))
            == _reference_string_regions(image))


@given(data=st.data(), vbase=vbases,
       block=st.sampled_from([64, ksymtab._BLOCK_WORDS]))
@settings(max_examples=300, deadline=None)
def test_candidate_offsets_of_sparse_images_match_reference(data, vbase, block):
    targets = []
    image = data.draw(_sparse_images(vbase, targets))
    regions = data.draw(st.lists(_regions_in(len(image), targets),
                                 min_size=1, max_size=8))
    location = KernelLocation(vbase, vbase + len(image))
    spans = _live_spans(image)
    with mock.patch.object(ksymtab, "_BLOCK_WORDS", block):
        for layout in ENTRY_STRIDES:
            for region in regions:
                got = _candidate_offsets(image, location, layout, *region, spans)
                assert got == _reference_candidate_offsets(
                    image, location, layout, *region)


def _outcome(image: bytes, vbase: int):
    location = KernelLocation(vbase, vbase + len(image))
    try:
        return parse_ksymtab(FakeGateway(image, vbase), location)
    except SideloadError as exc:
        return str(exc)


@given(data=st.data(), vbase=vbases, layout=st.sampled_from(sorted(ENTRY_SIZES)),
       symbols=st.lists(identifier, min_size=9, max_size=16, unique=True))
@settings(max_examples=150, deadline=None)
def test_parse_of_a_sparse_image_matches_the_whole_image_parse(data, vbase, layout,
                                                               symbols):
    """A real table whose sections start or end near page boundaries,
    among soups: the parse equals one whose passes scan every byte."""
    image = bytearray(data.draw(_sparse_images(vbase)))
    size = len(image)
    build_symbol_sections(
        {name: vbase + data.draw(st.integers(0, max(size - 1, 0)))
         for name in symbols},
        layout,
        strings_vaddr=vbase + data.draw(_near_edge(size, 64)),
        ksymtab_vaddr=vbase + data.draw(_near_edge(size, 64)) // 4 * 4,
        write=lambda vaddr, blob: _put(image, vaddr - vbase, blob),
    )
    image = bytes(image)
    with mock.patch.object(
        ksymtab, "_find_string_regions",
        lambda image, spans: _reference_string_regions(image),
    ), mock.patch.object(
        ksymtab, "_candidate_offsets",
        lambda image, location, layout, start, end, spans:
            _reference_candidate_offsets(image, location, layout, start, end),
    ):
        expected = _outcome(image, vbase)
    assert _outcome(image, vbase) == expected


@pytest.mark.parametrize("layout", sorted(ENTRY_SIZES))
def test_a_kernel_image_in_a_16_mib_zero_buffer_parses_to_the_same_table(layout):
    mem = PhysicalMemory(KERNEL_IMAGE_SIZE)
    build_kernel_image(KernelVersion(5, 10), KERNEL_TEXT_BASE, 0, mem.write,
                       ksymtab_layout=layout)
    image = mem.read(0, KERNEL_IMAGE_SIZE)
    location = KernelLocation(KERNEL_TEXT_BASE, KERNEL_TEXT_BASE + len(image))
    alone = parse_ksymtab(FakeGateway(image), location)
    # The image sits 5 MiB into the buffer, which starts that much lower.
    offset = 5 * MiB
    buffer = bytearray(16 * MiB)
    buffer[offset : offset + len(image)] = image
    vbase = KERNEL_TEXT_BASE - offset
    wide = parse_ksymtab(FakeGateway(bytes(buffer), vbase),
                         KernelLocation(vbase, vbase + len(buffer)))
    assert wide == alone
    assert len(alone.symbols) >= 8
