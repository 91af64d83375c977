"""The eBPF memslot snooper.

There is no KVM API that reports where guest physical memory lives in
the hypervisor's virtual address space.  The paper (§5) closes this gap
with a small eBPF program attached to the kernel function
``kvm_vm_ioctl``: when any VM ioctl runs, the program walks the
in-kernel memslot array reachable from the function's arguments and
exports ``(gpa, size, hva)`` triples through a map the tracer reads.

We reproduce that exact information flow: the program only sees the
kernel-internal memslot structures at the moment a VM ioctl fires, so
VMSH must *inject* a harmless ioctl to trigger collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.errors import PermissionDeniedError
from repro.host.kernel import HostKernel
from repro.host.process import Process


@dataclass(frozen=True)
class MemslotRecord:
    """One guest memory slot as seen from the host kernel."""

    slot: int
    gpa: int
    size: int
    hva: int


class MemslotSnooper:
    """eBPF program attached to ``kvm_vm_ioctl``."""

    ATTACH_POINT = "kvm_vm_ioctl"

    def __init__(self, kernel: HostKernel, owner: Process):
        if not owner.has_capability("CAP_BPF"):
            raise PermissionDeniedError(f"{owner.name} lacks CAP_BPF")
        self._kernel = kernel
        self._owner = owner
        self._records: List[MemslotRecord] = []
        self._attached = False

    def attach(self) -> None:
        """Load and attach the program."""
        self._kernel.ebpf_attach(self.ATTACH_POINT, self._program, self._owner)
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            self._kernel.ebpf_detach(self.ATTACH_POINT, self._program)
            self._attached = False

    def _program(self, vm: Any = None, **_ctx: Any) -> None:
        """The 'eBPF program': parses the memslot array off the ioctl path."""
        if vm is None:
            return
        self._records = [
            MemslotRecord(slot=s.slot, gpa=s.gpa, size=s.size, hva=s.hva)
            for s in vm.memslots()
        ]

    def read_map(self) -> List[MemslotRecord]:
        """Drain the collected records (the userspace map read)."""
        records, self._records = self._records, []
        return records
