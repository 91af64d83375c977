"""Locating the KASLR-randomised kernel image (§4.2).

"Although KASLR randomizes the kernel location, the kernel itself is
placed into a fixed number of slots in memory, located in a fixed
address range.  VMSH can therefore locate the kernel by iterating over
the guest VM's page table entries."

The scan reads the window in address order, from the page tables
themselves.  It decides each 2 MiB-aligned slot base with the entries
on its walk only, skipping a whole region where an upper entry is
absent; the first mapped slot is the image base (nothing else lives in
that range).  It then reads the image's leaf entries from there, one
descent per table, and stops at the first unmapped page: that is where
the image ends, and where VMSH maps its own library.  No table page
past that page is read.

Both passes are range walks of the gateway's page-table view
(:meth:`GuestMemoryGateway.walk`): each table page they touch costs one
remote read (four on an x86-64 guest with a 2 MiB image), whichever
slot the kernel sits in.  Each pass steps by the span of one entry of
the table it spends its time in, a level-2 table's 2 MiB for the slots
and a leaf table's 4 KiB for the image, so the walk decodes the rest of
such a table with one struct call and hands its decisions over as
runs.  The scan takes the first mapped slot and the image end from
those runs.  The image's translations land in the gateway's TLB, so
the ksymtab read that follows translates without walking again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gateway import GuestMemoryGateway
from repro.errors import KernelNotFoundError
from repro.units import PAGE_SIZE

#: The image pass gives up on finding the image's end this far past
#: its base.
MAX_IMAGE_SIZE = 64 * 1024 * 1024


@dataclass(frozen=True)
class KernelLocation:
    """Where the guest kernel image sits in virtual memory."""

    vbase: int
    vend: int

    @property
    def size(self) -> int:
        return self.vend - self.vbase


def find_kernel(gateway: GuestMemoryGateway) -> KernelLocation:
    """Scan the architecture's KASLR range for the kernel image."""
    arch = gateway.arch
    start = arch.kernel_text_base
    with gateway.page_tables():
        slots = gateway.walk(start, start + arch.kernel_text_range, arch.kaslr_align)
        vbase = next((vaddr for vaddr, mapped in slots if mapped), None)
        if vbase is None:
            raise KernelNotFoundError(
                "no mapped pages in the KASLR range — is CR3 from a booted vCPU?"
            )
        image = gateway.walk(vbase + PAGE_SIZE, vbase + MAX_IMAGE_SIZE)
        vend = next((vaddr for vaddr, mapped in image if not mapped),
                    vbase + MAX_IMAGE_SIZE)
    return KernelLocation(vbase=vbase, vend=vend)
