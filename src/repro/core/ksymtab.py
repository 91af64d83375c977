"""Parsing the guest kernel's exported-symbol table from outside (§4.2).

VMSH has no debug info and no cooperation from the guest: it reads the
raw kernel image out of guest memory and reconstructs the export table
with consistency checks.  Three ksymtab layouts exist across the LTS
range (§6.2: "the memory layout of kernel symbols ... changed twice");
rather than asking the guest which one it uses, the parser scores *all
variants in parallel* — an entry run is only accepted if every entry's
name reference lands on a valid NUL-terminated identifier inside a
plausible strings section and its value lands inside the kernel image.
The layout with the most consistent entries wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.gateway import GuestMemoryGateway
from repro.core.kaslr import KernelLocation
from repro.errors import SideloadError

IDENTIFIER_BYTES = frozenset(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)
# bytes.translate table classing each byte: b"I" for an identifier
# byte, b"." for anything else.
_CLASSES = bytes(
    ord("I") if byte in IDENTIFIER_BYTES else ord(".") for byte in range(256)
)

MIN_STRING_REGION = 32          # bytes
MIN_RUN_LENGTH = 8              # entries
ENTRY_STRIDES = {"absolute": 16, "prel32": 8, "prel32_ns": 12}


@dataclass(frozen=True)
class ParsedKsymtab:
    """The reconstructed symbol table."""

    layout: str
    symbols: Dict[str, int]            # name -> guest vaddr
    table_vaddr: int
    strings_vaddr: int

    def require(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            from repro.errors import SymbolResolutionError

            raise SymbolResolutionError(name) from None


def parse_ksymtab(gateway: GuestMemoryGateway, location: KernelLocation) -> ParsedKsymtab:
    """Reconstruct the export table from the mapped kernel image."""
    # One bulk read: the gateway resolves every page from its TLB
    # (find_kernel already walked them) and gathers physically
    # contiguous runs into batched process_vm_readv calls, instead of
    # one remote walk + one syscall per page of the image.
    image = gateway.read_virt(location.vbase, location.size)
    regions = _find_string_regions(image)
    if not regions:
        raise SideloadError("no candidate .ksymtab_strings region in kernel image")

    best: Optional[Tuple[str, int, Dict[str, int], int]] = None
    # prel32 and prel32_ns share one pre-filter per region: it reads an
    # entry's value and name words, never the namespace word.
    prefilters: Dict[Tuple[bool, int, int], List[int]] = {}
    for layout in ENTRY_STRIDES:
        for region_start, region_end in regions:
            key = (layout == "absolute", region_start, region_end)
            if key not in prefilters:
                prefilters[key] = _candidate_offsets(
                    image, location, layout, region_start, region_end
                )
            run = _scan_entries(image, location, layout, region_start,
                                region_end, prefilters[key])
            if run is None:
                continue
            table_off, symbols = run
            if best is None or len(symbols) > len(best[2]):
                best = (layout, table_off, symbols, region_start)
    if best is None:
        raise SideloadError(
            "no consistent ksymtab found under any known layout "
            f"(tried {sorted(ENTRY_STRIDES)})"
        )
    layout, table_off, symbols, region_start = best
    return ParsedKsymtab(
        layout=layout,
        symbols=symbols,
        table_vaddr=location.vbase + table_off,
        strings_vaddr=location.vbase + region_start,
    )


# ---------------------------------------------------------------------------
# Pass 1: candidate string sections
# ---------------------------------------------------------------------------

def _find_string_regions(image: bytes) -> List[Tuple[int, int]]:
    """Maximal runs of NUL-separated identifiers, largest first."""
    regions: List[Tuple[int, int]] = []
    size = len(image)
    # A kernel image is mostly zeros: find the next identifier byte in
    # C rather than stepping over the gaps one byte at a time.
    classes = image.translate(_CLASSES)
    pos = classes.find(b"I")
    while pos != -1:
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
        pos = classes.find(b"I", max(end, pos + 1))
    regions.sort(key=lambda r: r[1] - r[0], reverse=True)
    return regions[:8]


def _identifier_at(image: bytes, offset: int, region: Tuple[int, int]) -> Optional[str]:
    """The identifier starting exactly at ``offset``, if any."""
    start, end = region
    if not start <= offset < end:
        return None
    if offset > 0 and image[offset - 1] != 0 and offset != start:
        return None
    cursor = offset
    while cursor < end and image[cursor] in IDENTIFIER_BYTES:
        cursor += 1
    if cursor == offset or cursor >= len(image) or image[cursor] != 0:
        return None
    return image[offset:cursor].decode("ascii")


# ---------------------------------------------------------------------------
# Pass 2: entry-run scan per layout
# ---------------------------------------------------------------------------

#: image words per vectorised block of :func:`_candidate_offsets`.
#: Whole-image int64 temporaries would be 16 MiB per call on a 2 MiB
#: kernel image: transient heap blocks that large, freed mid-run, leave
#: the resident size of a long run differing by ~12 MiB from one run to
#: the next, depending on where the allocator placed them.
_BLOCK_WORDS = 1 << 14


def _candidate_offsets(
    image: bytes,
    location: KernelLocation,
    layout: str,
    region_start: int,
    region_end: int,
) -> List[int]:
    """Vectorised pre-filter: offsets whose value/name references are
    plausible for this layout.  Final validation stays byte-exact in
    :func:`_decode_entry`; this only prunes the search space.

    The image is read through a zero-copy array view, one block of
    :data:`_BLOCK_WORDS` entries at a time.
    """
    import numpy as np

    image_span = location.vend - location.vbase
    found: List[int] = []
    if layout == "absolute":
        words = np.frombuffer(image, dtype="<u8", count=len(image) // 8)
        # entry k pairs word k (value) with word k + 1 (name)
        for base in range(0, len(words) - 1, _BLOCK_WORDS):
            stop = min(base + _BLOCK_WORDS, len(words) - 1)
            value, name = words[base:stop], words[base + 1 : stop + 1]
            ok = (
                (value >= location.vbase)
                & (value < location.vend)
                & (name >= location.vbase + region_start)
                & (name < location.vbase + region_end)
            )
            found.extend((base + int(k)) * 8 for k in np.nonzero(ok)[0])
        return found

    rel = np.frombuffer(image, dtype="<i4", count=len(image) // 4)
    # entry k's value is relative to word k, its name to word k + 1
    for base in range(0, len(rel) - 1, _BLOCK_WORDS):
        stop = min(base + _BLOCK_WORDS, len(rel) - 1)
        offsets = np.arange(base * 4, stop * 4, 4, dtype=np.int64)
        value_target = offsets + rel[base:stop]
        name_target = offsets + 4 + rel[base + 1 : stop + 1]
        ok = (
            (value_target >= 0)
            & (value_target < image_span)
            & (name_target >= region_start)
            & (name_target < region_end)
        )
        found.extend((base + int(k)) * 4 for k in np.nonzero(ok)[0])
    return found


def _scan_entries(
    image: bytes,
    location: KernelLocation,
    layout: str,
    region_start: int,
    region_end: int,
    candidates: List[int],
) -> Optional[Tuple[int, Dict[str, int]]]:
    stride = ENTRY_STRIDES[layout]
    region = (region_start, region_end)
    best_run: Optional[Tuple[int, Dict[str, int]]] = None
    size = len(image) - stride
    consumed_until = -1
    for offset in candidates:
        if offset <= consumed_until or offset > size:
            continue
        if _decode_entry(image, location, layout, offset, region) is None:
            continue
        # Valid first entry: extend the run at the layout's stride.
        run_symbols: Dict[str, int] = {}
        cursor = offset
        while cursor <= size:
            entry = _decode_entry(image, location, layout, cursor, region)
            if entry is None:
                break
            name, value = entry
            run_symbols[name] = value
            cursor += stride
        if len(run_symbols) >= MIN_RUN_LENGTH:
            if best_run is None or len(run_symbols) > len(best_run[1]):
                best_run = (offset, run_symbols)
            consumed_until = cursor
    return best_run


def _decode_entry(
    image: bytes,
    location: KernelLocation,
    layout: str,
    offset: int,
    region: Tuple[int, int],
) -> Optional[Tuple[str, int]]:
    vbase = location.vbase
    try:
        if layout == "absolute":
            value = int.from_bytes(image[offset : offset + 8], "little")
            name_ptr = int.from_bytes(image[offset + 8 : offset + 16], "little")
            name_off = name_ptr - vbase
        else:
            value_rel = int.from_bytes(image[offset : offset + 4], "little", signed=True)
            name_rel = int.from_bytes(
                image[offset + 4 : offset + 8], "little", signed=True
            )
            value = vbase + offset + value_rel
            name_off = offset + 4 + name_rel
            if layout == "prel32_ns":
                ns_rel = int.from_bytes(
                    image[offset + 8 : offset + 12], "little", signed=True
                )
                # Namespace is either absent (0) or a valid reference.
                if ns_rel != 0:
                    ns_off = offset + 8 + ns_rel
                    if _identifier_at(image, ns_off, region) is None:
                        return None
    except (IndexError, ValueError):
        return None
    if not location.vbase <= value < location.vend:
        return None
    if not 0 <= name_off < len(image):
        return None
    name = _identifier_at(image, name_off, region)
    if name is None:
        return None
    return name, value
