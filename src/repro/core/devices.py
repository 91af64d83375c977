"""VMSH's device host and the two MMIO dispatch strategies (§4.3, §5).

VMSH's side-loaded devices (vmsh-console, vmsh-blk and the optional
vm-exec device) run inside the *VMSH process*, outside the
hypervisor.  Two problems follow (§3.3 challenge #3):

1. MMIO-triggered VMEXITs land in the hypervisor, not in VMSH.  Either
   VMSH ptrace-wraps the hypervisor's ``KVM_RUN`` and steals matching
   exits (``wrap_syscall`` — taxing *every* hypervisor syscall), or it
   registers an ioregionfd so KVM forwards matching exits over a
   socket without ever waking the hypervisor.
2. Virtqueue data lives in guest memory mapped into the *hypervisor's*
   address space; VMSH reaches it via ``process_vm_readv/writev``
   (the RemoteProcessAccessor plumbed in here).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.core.libbuild import LibraryPlan, VMSH_MMIO_STRIDE
from repro.errors import VmshError
from repro.host.kernel import HostKernel
from repro.host.process import SocketPair, Thread
from repro.host.ptrace import PtraceSession
from repro.kvm.vcpu import VcpuFd
from repro.sim.costs import CostModel
from repro.virtio.blk import MappedImageBackend, VirtioBlkDevice
from repro.virtio.console import Pts, VirtioConsoleDevice
from repro.virtio.core import VirtioServiceHost
from repro.virtio.memio import GuestMemoryAccessor
from repro.virtio.mmio import VirtioMmioDevice
from repro.virtio.pci import PciVirtioFunction
from repro.virtio.vmexec import VmExecDevice


class VmshDeviceHost(VirtioServiceHost):
    """Hosts the planned devices inside the VMSH process."""

    def __init__(
        self,
        costs: CostModel,
        accessor: GuestMemoryAccessor,
        plan: LibraryPlan,
        image_bytes: bytes,
        irqs: Sequence[Callable[[], None]],
        event_idx: bool = True,
    ):
        """``irqs`` signals each planned device's interrupt, in plan order."""
        self.accessor = accessor
        self.pts = Pts()
        self.backend = MappedImageBackend(costs, image_bytes, writable=True)
        build = {
            "console": lambda irq: VirtioConsoleDevice(
                accessor=accessor, irq_signal=irq, costs=costs, pts=self.pts,
                name="vmsh-console", offer_event_idx=event_idx,
            ),
            "blk": lambda irq: VirtioBlkDevice(
                accessor=accessor, irq_signal=irq, costs=costs,
                backend=self.backend, name="vmsh-blk",
                offer_event_idx=event_idx,
            ),
            "exec": lambda irq: VmExecDevice(
                accessor=accessor, irq_signal=irq, costs=costs
            ),
        }
        #: register window -> what serves it: the device, or on pci the
        #: function that decodes its BAR0 (so the guest's memory-enable
        #: bit applies)
        self._windows: Dict[int, object] = {}
        #: PCI mode: (config-page base -> function)
        self._pci_functions: Dict[int, PciVirtioFunction] = {}
        by_name: Dict[str, VirtioMmioDevice] = {}
        for row, irq in zip(plan.devices, irqs):
            device = by_name[row.name] = build[row.name](irq)
            self._windows[row.mmio] = device
            if plan.transport == "pci":
                function = PciVirtioFunction(
                    slot=row.slot, device=device, bar0=row.mmio,
                    msi_message=row.msi,
                )
                self._windows[row.mmio] = self._pci_functions[row.ecam] = function
        self._devices = list(by_name.values())
        self.exec_device = by_name.get("exec")
        #: claimed guest-physical ranges: (start, end) pairs
        self.ranges = [(start, start + size) for start, size in plan.regions()]
        self.mmio_base = self.ranges[0][0]
        # Deferred-kick servicing (scheduler mode) lives in the
        # VirtioServiceHost mixin; see virtio/core.py.
        self._init_service_fifo()

    def devices(self) -> list:
        return list(self._devices)

    def contains(self, addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in self.ranges)

    def handle_mmio(self, is_write: bool, addr: int, length: int, value: int) -> int:
        window = addr & ~(VMSH_MMIO_STRIDE - 1)
        function = self._pci_functions.get(window)
        if function is not None:
            offset = addr - window
            if is_write:
                function.config_write(offset, value)
                return 0
            return function.config_read(offset)
        registers = self._windows.get(window)
        if registers is None:
            raise VmshError(f"MMIO access {addr:#x} outside vmsh windows")
        offset = addr - window
        if is_write:
            registers.write_register(offset, value)
            return 0
        return registers.read_register(offset)


# ---------------------------------------------------------------------------
# Dispatch strategies
# ---------------------------------------------------------------------------

class MmioDispatch:
    """Abstract strategy that routes guest MMIO exits to the devices."""

    name = "abstract"

    def install(self) -> None:
        raise NotImplementedError

    def uninstall(self) -> None:
        raise NotImplementedError


class IoregionfdDispatch(MmioDispatch):
    """KVM forwards matching exits over a socket (the fast path).

    "This is not a problem with the ioregionfd implementation since
    KVM already filters MMIO accesses for the VMSH MMIO region in the
    kernel" — the hypervisor is never woken, never taxed (Fig. 6).
    """

    name = "ioregionfd"

    def __init__(self, device_host: VmshDeviceHost, vmsh_socket: SocketPair):
        self.device_host = device_host
        self.socket = vmsh_socket

    def install(self) -> None:
        self.socket.on_message(self._on_message)

    def uninstall(self) -> None:
        self.socket.on_message(lambda _msg: None)

    def _on_message(self, message: dict) -> None:
        is_write = message["type"] == "write"
        result = self.device_host.handle_mmio(
            is_write, message["addr"], message["len"], message.get("data", 0)
        )
        if not is_write:
            self.socket.send({"data": result})


class WrapSyscallDispatch(MmioDispatch):
    """ptrace syscall-wrapping of KVM_RUN (the portable slow path).

    The tracer is stopped at every syscall boundary of every traced
    hypervisor thread — including all qemu-blk backend IO — which is
    the 6x IOPS degradation of Fig. 6b.
    """

    name = "wrap_syscall"

    def __init__(
        self,
        kernel: HostKernel,
        session: PtraceSession,
        device_host: VmshDeviceHost,
        vcpus_by_tid: Dict[int, VcpuFd],
    ):
        self.kernel = kernel
        self.session = session
        self.device_host = device_host
        self.vcpus_by_tid = vcpus_by_tid
        self._installed = False

    def install(self) -> None:
        # ptrace syscall tracing cannot be scoped to KVM_RUN: *every*
        # syscall of *every* hypervisor thread stops the tracee — the
        # qemu-blk backend's own disk IO included.  That is precisely
        # the collateral damage Fig. 6 measures for this mode.
        for thread in self.session.tracee.threads:
            self.session.trace_syscalls(thread, self._hook)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for thread in self.session.tracee.threads:
            self.session.untrace_syscalls(thread)
        self._installed = False

    def _hook(self, thread: Thread, syscall: str, phase: str) -> None:
        """Runs at each syscall stop; peeks at the kvm_run page."""
        if phase != "exit":
            return
        vcpu = self.vcpus_by_tid.get(thread.tid)
        if vcpu is None:
            return
        run = vcpu.mmap_run_page()
        if run.exit_reason != "mmio" or run.mmio is None or run.mmio.handled:
            return
        exit = run.mmio
        if not self.device_host.contains(exit.addr):
            return
        if exit.is_write:
            self.device_host.handle_mmio(True, exit.addr, exit.length, exit.data)
        else:
            exit.data = self.device_host.handle_mmio(
                False, exit.addr, exit.length, 0
            )
        exit.handled = True
        exit.handled_by = "vmsh"
