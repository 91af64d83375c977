"""VM exit descriptions shared between KVM, hypervisors and VMSH."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class MmioExit:
    """An MMIO-triggered VMEXIT, as exposed through the ``kvm_run`` page.

    Both the hypervisor (after returning from ``KVM_RUN``) and VMSH
    (peeking at the memory-mapped vcpu fd from its ptrace wrapper)
    parse this structure.
    """

    is_write: bool
    addr: int
    length: int
    data: int = 0               # write payload, or read result to fill in
    handled: bool = False       # set by whoever serviced the access
    handled_by: str = ""        # "hypervisor" | "vmsh" | "ioeventfd" | ...


@dataclass
class KvmRunPage:
    """The mmap-able ``kvm_run`` communication page of a vcpu fd."""

    exit_reason: str = "none"   # "mmio", "hlt", "shutdown", ...
    mmio: Optional[MmioExit] = None

    def set_mmio(self, exit: MmioExit) -> None:
        self.exit_reason = "mmio"
        self.mmio = exit

    def clear(self) -> None:
        self.exit_reason = "none"
        self.mmio = None
