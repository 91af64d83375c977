"""Guest kernel image builder: what the bootloader places in memory.

The hypervisor loads a kernel image into guest physical memory and
builds the initial page tables.  The image layout matters because VMSH
later *parses it from outside*: the KASLR-randomised base, the
``.ksymtab``/``.ksymtab_strings`` sections and the exported data
symbols (``linux_banner``) are all real bytes at the documented
offsets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

from repro.guestos.kfunctions import expected_symbol_names
from repro.guestos.symbols import SymbolSections, build_symbol_sections
from repro.guestos.version import KernelVersion
from repro.units import MiB

KERNEL_IMAGE_SIZE = 2 * MiB

# Image-internal offsets (from the randomised base).
TEXT_OFFSET = 0x1000            # function entry points start here
TEXT_FUNC_STRIDE = 0x40         # one pseudo entry every 64 bytes
IDLE_OFFSET = 0x0800            # the idle loop RIP parks at
RODATA_OFFSET = 0x100000        # linux_banner etc.
KSYMTAB_OFFSET = 0x110000
KSYMTAB_STRINGS_OFFSET = 0x118000
DATA_OFFSET = 0x120000          # init_task, jiffies


@dataclass(frozen=True)
class KernelImage:
    """Everything the boot placed, keyed by guest-virtual address."""

    version: KernelVersion
    vbase: int
    pbase: int
    size: int
    symbols: Dict[str, int]            # exported name -> vaddr
    sections: SymbolSections
    idle_vaddr: int


def _pseudo_text(name: str, length: int) -> bytes:
    """Deterministic pseudo machine code for a function body."""
    seed = hashlib.sha256(name.encode()).digest()
    out = bytearray()
    while len(out) < length:
        out += seed
    # First byte 0x55 (push rbp) for verisimilitude; last 0xC3 (ret).
    out = out[:length]
    out[0] = 0x55
    out[-1] = 0xC3
    return bytes(out)


def build_kernel_image(
    version: KernelVersion,
    vbase: int,
    pbase: int,
    write_phys,
    ksymtab_layout: str = None,
) -> KernelImage:
    """Lay the kernel image out at ``pbase`` for virtual base ``vbase``.

    ``write_phys(paddr, data)`` stores bytes into guest physical
    memory.  Returns the symbol map the guest kernel keeps (and that
    VMSH must independently rediscover via the ksymtab).

    ``ksymtab_layout`` selects the exported-symbol encoding; it is
    arch-dependent (riscv never selected ``HAVE_ARCH_PREL32_RELOCATIONS``,
    so it stays "absolute" on every version), so callers should pass
    ``arch.ksymtab_layout(version)``.  Defaults to the version's x86
    layout for callers that predate the arch interface.
    """
    if ksymtab_layout is None:
        ksymtab_layout = version.ksymtab_layout

    def write_virt(vaddr: int, data: bytes) -> None:
        write_phys(pbase + (vaddr - vbase), data)

    # 1. Exported symbol addresses.
    symbols: Dict[str, int] = {}
    for index, name in enumerate(sorted(expected_symbol_names())):
        if name in ("linux_banner", "init_task", "jiffies"):
            continue
        symbols[name] = vbase + TEXT_OFFSET + index * TEXT_FUNC_STRIDE
    banner = version.banner().encode("ascii") + b"\x00"
    symbols["linux_banner"] = vbase + RODATA_OFFSET
    symbols["init_task"] = vbase + DATA_OFFSET
    symbols["jiffies"] = vbase + DATA_OFFSET + 0x1000

    # 2. Text bytes for each function.
    for name, vaddr in symbols.items():
        if vaddr >= vbase + RODATA_OFFSET:
            continue
        write_virt(vaddr, _pseudo_text(name, TEXT_FUNC_STRIDE))

    # 3. The idle loop (a tight HLT; the parked RIP of a booted vCPU).
    write_virt(vbase + IDLE_OFFSET, b"\xf4\xeb\xfd")  # hlt; jmp -3

    # 4. Read-only data.
    write_virt(vbase + RODATA_OFFSET, banner)
    write_virt(vbase + DATA_OFFSET, b"\x00" * 64)          # init_task stub
    write_virt(vbase + DATA_OFFSET + 0x1000, b"\x00" * 8)  # jiffies

    # 5. The exported-symbol sections, in the version's native layout.
    sections = build_symbol_sections(
        symbols,
        layout=ksymtab_layout,
        strings_vaddr=vbase + KSYMTAB_STRINGS_OFFSET,
        ksymtab_vaddr=vbase + KSYMTAB_OFFSET,
        write=write_virt,
    )

    return KernelImage(
        version=version,
        vbase=vbase,
        pbase=pbase,
        size=KERNEL_IMAGE_SIZE,
        symbols=symbols,
        sections=sections,
        idle_vaddr=vbase + IDLE_OFFSET,
    )
