"""KVM memory slots: the gpa -> hva mapping table.

A memslot declares that guest-physical range ``[gpa, gpa+size)`` is
backed by hypervisor-virtual range ``[hva, hva+size)``.  KVM keeps this
table kernel-internal; the only ways to learn it are to *be* the
hypervisor or — VMSH's route — to snoop it with an eBPF program on
``kvm_vm_ioctl`` (§5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import InvalidGpaError, MemslotOverlapError


@dataclass(frozen=True)
class Memslot:
    """One guest memory slot."""

    slot: int
    gpa: int
    size: int
    hva: int

    @property
    def gpa_end(self) -> int:
        return self.gpa + self.size


class MemslotTable:
    """The kernel-internal array of memslots for one VM."""

    def __init__(self) -> None:
        self._slots: List[Memslot] = []

    def set_region(self, slot: int, gpa: int, size: int, hva: int) -> Memslot:
        """KVM_SET_USER_MEMORY_REGION semantics (size 0 deletes)."""
        existing = next((s for s in self._slots if s.slot == slot), None)
        if size == 0:
            if existing is not None:
                self._slots.remove(existing)
            return Memslot(slot, gpa, 0, hva)
        new = Memslot(slot=slot, gpa=gpa, size=size, hva=hva)
        for other in self._slots:
            if other.slot == slot:
                continue
            if new.gpa < other.gpa_end and other.gpa < new.gpa_end:
                raise MemslotOverlapError(
                    f"slot {slot} [{new.gpa:#x},{new.gpa_end:#x}) overlaps "
                    f"slot {other.slot} [{other.gpa:#x},{other.gpa_end:#x})"
                )
        if existing is not None:
            self._slots.remove(existing)
        self._slots.append(new)
        self._slots.sort(key=lambda s: s.gpa)
        return new

    def lookup(self, gpa: int, length: int = 1) -> Memslot:
        """The slot holding all of ``[gpa, gpa+length)``."""
        end = gpa + length
        for s in self._slots:
            if s.gpa <= gpa and end <= s.gpa + s.size:
                return s
        raise InvalidGpaError(f"gpa {gpa:#x} (+{length}) not backed by any memslot")

    def try_lookup(self, gpa: int, length: int = 1) -> Optional[Memslot]:
        try:
            return self.lookup(gpa, length)
        except InvalidGpaError:
            return None

    def all(self) -> List[Memslot]:
        return list(self._slots)

    def highest_gpa(self) -> int:
        """End of the topmost populated region (0 if empty)."""
        return max((s.gpa_end for s in self._slots), default=0)

    def free_slot_id(self) -> int:
        used = {s.slot for s in self._slots}
        slot = 0
        while slot in used:
            slot += 1
        return slot

    def __len__(self) -> int:
        return len(self._slots)
