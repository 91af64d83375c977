"""Virtual CPUs.

A vCPU is a file descriptor (``anon_inode:kvm-vcpu:N``) whose ioctls
give register access, plus an mmap-able ``kvm_run`` page describing the
last exit.  VMSH reads the CR3 of vCPU 0 to find the guest page tables
(§4.1) and rewrites RIP to divert execution into its side-loaded
library (§4.2) — both through ioctls it *injects* into the hypervisor.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.errors import KvmError
from repro.host.process import FileObject, Thread
from repro.kvm.exits import KvmRunPage

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvm.api import VmFd


class VcpuFd(FileObject):
    """One virtual CPU of a VM."""

    def __init__(self, vm: "VmFd", index: int):
        self.vm = vm
        self.index = index
        self.arch = vm.arch
        self.proc_link = f"anon_inode:kvm-vcpu:{index}"
        self.regs: Dict[str, int] = {r: 0 for r in self.arch.gp_registers}
        self.sregs: Dict[str, int] = {r: 0 for r in self.arch.sregs}
        self.kvm_run = KvmRunPage()
        #: hypervisor thread that sits in ioctl(KVM_RUN) for this vcpu
        self.run_thread: Optional[Thread] = None
        #: guest-side runtime that models code running on this vcpu
        self.guest_runtime: Optional[Any] = None

    # -- ioctls ------------------------------------------------------------------

    def ioctl(self, request: str, arg: Any, thread: Thread) -> Any:
        if self.vm.kernel.faults.active:
            self.vm.kernel.faults.check(f"kvm.{request}", vcpu=self.index)
        if request == "KVM_GET_REGS":
            return dict(self.regs)
        if request == "KVM_SET_REGS":
            self._set_regs(arg)
            return 0
        if request == "KVM_GET_SREGS":
            return dict(self.sregs)
        if request == "KVM_SET_SREGS":
            self._set_sregs(arg)
            return 0
        if request == "KVM_RUN":
            return self.vm.vcpu_enter(self)
        raise KvmError(f"unknown vcpu ioctl {request!r}")

    def _set_regs(self, regs: Dict[str, int]) -> None:
        for name, value in regs.items():
            if name not in self.regs:
                raise KvmError(f"unknown register {name!r}")
            self.regs[name] = value & 0xFFFFFFFFFFFFFFFF

    def _set_sregs(self, sregs: Dict[str, int]) -> None:
        for name, value in sregs.items():
            if name not in self.sregs:
                raise KvmError(f"unknown special register {name!r}")
            self.sregs[name] = value & 0xFFFFFFFFFFFFFFFF

    # -- the mmap-ed kvm_run page ----------------------------------------------------

    def mmap_run_page(self) -> KvmRunPage:
        """What the hypervisor (or a ptrace wrapper) sees via mmap."""
        return self.kvm_run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ip = self.regs[self.arch.ip_register]
        return f"VcpuFd(index={self.index}, {self.arch.ip_register}={ip:#x})"
