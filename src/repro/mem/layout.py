"""x86-64 guest address-space layout constants.

These mirror the Linux x86-64 virtual memory map that VMSH's binary
analysis relies on (§4.2 of the paper): the kernel text is placed by
KASLR into one of a fixed number of 2 MiB-aligned slots inside a fixed
virtual range, so a non-cooperative observer can find it by scanning
page-table entries covering that range.
"""

from __future__ import annotations

from repro.units import GiB, KiB, MiB

# Canonical-address sign extension helpers ---------------------------------

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


# Kernel text mapping / KASLR -------------------------------------------------
#
# Linux maps the kernel image inside [KERNEL_TEXT_BASE, KERNEL_TEXT_BASE +
# KERNEL_TEXT_RANGE).  With CONFIG_RANDOMIZE_BASE the image is placed at
# a random CONFIG_PHYSICAL_ALIGN (2 MiB) aligned slot inside that range.

KERNEL_TEXT_BASE = 0xFFFFFFFF80000000
KERNEL_TEXT_RANGE = 1 * GiB
KASLR_ALIGN = 2 * MiB
KASLR_SLOTS = KERNEL_TEXT_RANGE // KASLR_ALIGN  # 512 candidate slots

# The direct map of all physical memory ("page_offset_base").  We keep the
# pre-4.20 non-randomised default; VMSH does not depend on it but the guest
# kernel uses it to address physical pages.
PAGE_OFFSET = 0xFFFF888000000000

# Module/vmalloc area.  VMSH maps its side-loaded library *after* the
# kernel image inside the KASLR range (Fig. 3), not here.
MODULES_VADDR = 0xFFFFFFFFA0000000
MODULES_END = 0xFFFFFFFFFF000000

# Guest-physical layout ---------------------------------------------------------

# Hypervisors in this simulation (like the real ones the paper observes)
# allocate guest physical memory "from low to high"; VMSH exploits this
# by allocating fresh guest-physical pages for its library at the top of
# the address space (§4.2).
GUEST_RAM_BASE = 0x0
VIRTIO_MMIO_REGION_BASE = 0xD0000000     # typical microVM MMIO window
VIRTIO_MMIO_DEVICE_STRIDE = 4 * KiB

FIRST_USABLE_GPA = 1 * MiB               # skip legacy/BIOS hole


def kaslr_slot_to_vaddr(slot: int) -> int:
    """Virtual base address of KASLR slot ``slot``."""
    if not 0 <= slot < KASLR_SLOTS:
        raise ValueError(f"KASLR slot {slot} out of range [0, {KASLR_SLOTS})")
    return KERNEL_TEXT_BASE + slot * KASLR_ALIGN
