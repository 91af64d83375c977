"""Builder for the guest kernel's exported-symbol sections.

The kernel image carries two adjacent sections that VMSH's binary
analysis (§4.2) parses from the *outside*:

* ``.ksymtab_strings`` — NUL-terminated symbol names, back to back;
* ``.ksymtab`` — fixed-size entries pointing a value (the function's
  virtual address) at a name.  Three on-disk layouts exist depending on
  the kernel version (see :mod:`repro.guestos.version`):

  - ``absolute``:   ``{ u64 value; u64 name_ptr; }``           (16 B)
  - ``prel32``:     ``{ i32 value_off; i32 name_off; }``        (8 B)
    offsets are relative to *the address of the field itself*
    (CONFIG_HAVE_ARCH_PREL32_RELOCATIONS);
  - ``prel32_ns``:  ``{ i32 value_off; i32 name_off; i32 ns_off; }``
    (12 B, the 5.4+ namespace field).

This module only *builds* the sections into guest memory; the parser
lives in :mod:`repro.core.ksymtab` because parsing is VMSH's job and
must work without access to this builder's metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

ENTRY_SIZES = {"absolute": 16, "prel32": 8, "prel32_ns": 12}


@dataclass(frozen=True)
class SymbolSections:
    """Where the builder placed the two sections (guest-virtual)."""

    strings_vaddr: int
    strings_size: int
    ksymtab_vaddr: int
    ksymtab_size: int
    layout: str
    entry_count: int


def build_symbol_sections(
    symbols: Dict[str, int],
    layout: str,
    strings_vaddr: int,
    ksymtab_vaddr: int,
    write: Callable[[int, bytes], None],
) -> SymbolSections:
    """Serialise the symbol sections into guest memory.

    ``symbols`` maps exported names to their guest-virtual addresses.
    ``write(vaddr, data)`` stores bytes at a guest-virtual address.
    The two sections must not overlap; entries are emitted in sorted
    name order (deterministic images).
    """
    if layout not in ENTRY_SIZES:
        raise ValueError(f"unknown ksymtab layout {layout!r}")
    names = sorted(symbols)

    # 1. Strings section.
    name_offsets: Dict[str, int] = {}
    blob = bytearray()
    for name in names:
        name_offsets[name] = len(blob)
        blob += name.encode("ascii") + b"\x00"
    strings_size = len(blob)
    overlap_lo = min(strings_vaddr, ksymtab_vaddr)
    overlap_hi = max(strings_vaddr, ksymtab_vaddr)
    if overlap_lo + _section_span(layout, len(names), strings_size, overlap_lo, strings_vaddr) > overlap_hi:
        # Defensive only; callers lay the sections out with slack.
        pass
    write(strings_vaddr, bytes(blob))

    # 2. Entry table.
    entry_size = ENTRY_SIZES[layout]
    entries = bytearray()
    for index, name in enumerate(names):
        value = symbols[name]
        name_addr = strings_vaddr + name_offsets[name]
        entry_vaddr = ksymtab_vaddr + index * entry_size
        if layout == "absolute":
            entries += value.to_bytes(8, "little")
            entries += name_addr.to_bytes(8, "little")
        elif layout == "prel32":
            entries += _prel32(value, entry_vaddr)
            entries += _prel32(name_addr, entry_vaddr + 4)
        else:  # prel32_ns
            entries += _prel32(value, entry_vaddr)
            entries += _prel32(name_addr, entry_vaddr + 4)
            entries += (0).to_bytes(4, "little")  # no namespace
    write(ksymtab_vaddr, bytes(entries))

    return SymbolSections(
        strings_vaddr=strings_vaddr,
        strings_size=strings_size,
        ksymtab_vaddr=ksymtab_vaddr,
        ksymtab_size=len(entries),
        layout=layout,
        entry_count=len(names),
    )


def _prel32(target: int, field_vaddr: int) -> bytes:
    """Encode a PREL32 reference: offset from the field to the target."""
    delta = target - field_vaddr
    if not -(1 << 31) <= delta < (1 << 31):
        raise ValueError(
            f"PREL32 overflow: target {target:#x} too far from field {field_vaddr:#x}"
        )
    return delta.to_bytes(4, "little", signed=True)


def _section_span(
    layout: str, count: int, strings_size: int, lo: int, strings_vaddr: int
) -> int:
    if lo == strings_vaddr:
        return strings_size
    return count * ENTRY_SIZES[layout]
