"""Locating the KASLR-randomised kernel image (§4.2).

"Although KASLR randomizes the kernel location, the kernel itself is
placed into a fixed number of slots in memory, located in a fixed
address range.  VMSH can therefore locate the kernel by iterating over
the guest VM's page table entries."

The scan probes each 2 MiB-aligned slot base in the kernel text range;
the first mapped slot is the image base (nothing else lives in that
range).  A second fine-grained pass finds where the mapping ends, which
is where VMSH maps its own library.

Every probe walks the guest's page tables through the gateway.  Run
inside the analyse step's page-table view, a walk decodes entries from
table pages the view copied once, so the whole scan costs one remote
read per table page it touches (four on an x86-64 guest with a 2 MiB
image), whichever slot the kernel sits in.  Outside a view, each probe
opens its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gateway import GuestMemoryGateway
from repro.errors import KernelNotFoundError
from repro.units import PAGE_SIZE


@dataclass(frozen=True)
class KernelLocation:
    """Where the guest kernel image sits in virtual memory."""

    vbase: int
    vend: int

    @property
    def size(self) -> int:
        return self.vend - self.vbase


def find_kernel(gateway: GuestMemoryGateway, max_image_size: int = 64 * 1024 * 1024) -> KernelLocation:
    """Scan the architecture's KASLR range for the kernel image."""
    arch = gateway.arch
    vbase = None
    for slot_base in range(
        arch.kernel_text_base,
        arch.kernel_text_base + arch.kernel_text_range,
        arch.kaslr_align,
    ):
        if gateway.is_mapped(slot_base):
            vbase = slot_base
            break
    if vbase is None:
        raise KernelNotFoundError(
            "no mapped pages in the KASLR range — is CR3 from a booted vCPU?"
        )

    # The fine-grained end scan walks each page once; the gateway's TLB
    # remembers the walks, so the later ksymtab read of the same image
    # translates without walking again.
    vend = vbase
    while vend < vbase + max_image_size and gateway.is_mapped(vend):
        vend += PAGE_SIZE
    return KernelLocation(vbase=vbase, vend=vend)
