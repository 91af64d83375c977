"""Guest memory: sparse physical memory, page tables, address layout."""

from repro.mem.layout import (
    FIRST_USABLE_GPA,
    KASLR_ALIGN,
    KASLR_SLOTS,
    KERNEL_TEXT_BASE,
    KERNEL_TEXT_RANGE,
    PAGE_OFFSET,
    VIRTIO_MMIO_DEVICE_STRIDE,
    VIRTIO_MMIO_REGION_BASE,
    canonical,
    kaslr_slot_to_vaddr,
    uncanonical,
)
from repro.mem.physmem import PhysicalMemory

__all__ = [
    "PhysicalMemory",
    "KERNEL_TEXT_BASE",
    "KERNEL_TEXT_RANGE",
    "KASLR_ALIGN",
    "KASLR_SLOTS",
    "PAGE_OFFSET",
    "FIRST_USABLE_GPA",
    "VIRTIO_MMIO_REGION_BASE",
    "VIRTIO_MMIO_DEVICE_STRIDE",
    "canonical",
    "uncanonical",
    "kaslr_slot_to_vaddr",
]
