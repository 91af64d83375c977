"""The KVM API: ``/dev/kvm``, VM fds, MMIO dispatch, interrupts.

This is the narrow waist the whole paper leans on: VMSH refuses to use
any hypervisor-specific API and instead drives the VM through the same
KVM ioctls the hypervisor itself uses.  The simulated API surface is
the subset VMSH and the five hypervisors need:

* ``KVM_CREATE_VM`` / ``KVM_CREATE_VCPU`` / ``KVM_SET_USER_MEMORY_REGION``
* ``KVM_GET_REGS`` / ``KVM_SET_REGS`` / ``KVM_GET_SREGS`` (CR3!)
* ``KVM_IRQFD`` and ``KVM_IOEVENTFD``
* ``KVM_SET_IOREGION`` — the (then) proposed ioregionfd feature [107]
* ``KVM_CHECK_EXTENSION``

Every VM ioctl fires the ``kvm_vm_ioctl`` eBPF attach point, which is
how VMSH's memslot snooper observes the gpa->hva table (§5).

MMIO dispatch order mirrors the kernel: ioeventfd fast path, then
ioregionfd, then a full userspace exit from ``KVM_RUN`` — where a
ptrace syscall-wrapper (VMSH's ``wrap_syscall`` mode) gets to peek
first and pays two ptrace stops per exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import KvmError
from repro.host.kernel import HostKernel
from repro.host.process import EventFd, FileObject, Process, SocketPair, Thread
from repro.kvm.exits import MmioExit
from repro.kvm.memslots import Memslot, MemslotTable
from repro.kvm.vcpu import VcpuFd


@dataclass
class IoEventFd:
    """KVM_IOEVENTFD registration: MMIO write -> eventfd signal."""

    addr: int
    length: int
    eventfd: EventFd
    datamatch: Optional[int] = None

    def matches(self, addr: int, value: int) -> bool:
        if addr != self.addr:
            return False
        return self.datamatch is None or self.datamatch == value


@dataclass
class IoRegionFd:
    """KVM_SET_IOREGION registration: MMIO range -> socket messages."""

    gpa: int
    size: int
    socket: SocketPair

    def contains(self, addr: int, length: int) -> bool:
        return self.gpa <= addr and addr + length <= self.gpa + self.size


class KvmSystem(FileObject):
    """The ``/dev/kvm`` node of a host."""

    proc_link = "/dev/kvm"

    def __init__(self, kernel: HostKernel, ioregionfd_supported: bool = True,
                 arch=None):
        from repro.arch import X86_64

        self.kernel = kernel
        self.ioregionfd_supported = ioregionfd_supported
        self.arch = arch if arch is not None else X86_64
        self.vms: List["VmFd"] = []

    def ioctl(self, request: str, arg: Any, thread: Thread) -> Any:
        if self.kernel.faults.active:
            self.kernel.faults.check(f"kvm.{request}")
        if request == "KVM_CREATE_VM":
            vm = VmFd(self, owner=thread.process)
            self.vms.append(vm)
            return thread.process.fds.install(vm)
        if request == "KVM_CHECK_EXTENSION":
            return self._check_extension(arg)
        raise KvmError(f"unknown /dev/kvm ioctl {request!r}")

    def _check_extension(self, name: str) -> bool:
        if name == "KVM_CAP_IOREGIONFD":
            # The Cloud Hypervisor / unpatched-kernel quirk: a chaos
            # plan can make the kernel deny ioregionfd support, forcing
            # the attach onto the wrap_syscall fallback path.
            if self.kernel.faults.flag("quirk.ioregionfd_missing"):
                return False
            return self.ioregionfd_supported
        return name in {"KVM_CAP_IRQFD", "KVM_CAP_IOEVENTFD", "KVM_CAP_USER_MEMORY"}


class VmFd(FileObject):
    """One virtual machine (``anon_inode:kvm-vm``)."""

    proc_link = "anon_inode:kvm-vm"

    def __init__(self, system: KvmSystem, owner: Process):
        self.system = system
        self.kernel = system.kernel
        self.arch = system.arch
        self.owner = owner
        self._memslots = MemslotTable()
        self.vcpus: List[VcpuFd] = []
        #: whether the VM's irqchip supports pin-based GSI routing.
        #: Cloud Hypervisor configures an MSI-X-only interrupt model,
        #: which is why VMSH cannot attach to it (Table 1): its irqfd
        #: registration needs a GSI pin.
        self.gsi_routing_supported = True
        self.irq_routes: Dict[int, EventFd] = {}
        # gsi -> the signal callback registered on the eventfd, kept so
        # KVM_IRQFD deassign can unhook exactly what assign hooked.
        self._irq_route_cbs: Dict[int, Callable[[], None]] = {}
        # msi message -> (eventfd, callback), for KVM_IRQFD_MSI deassign.
        self._msi_routes: Dict[int, tuple] = {}
        self.ioeventfds: List[IoEventFd] = []
        self.ioregions: List[IoRegionFd] = []
        #: hypervisor's in-process MMIO handler (its device emulation)
        self.userspace_exit_handler: Optional[Callable[[VcpuFd, MmioExit], None]] = None
        #: guest kernel's interrupt entry point
        self.guest_irq_sink: Optional[Callable[[int], None]] = None
        self.bind_metrics()

    def bind_metrics(self) -> None:
        """Resolve the per-VM KVM metrics under the owner's current pid.

        The VMEXIT funnel splits by consumption path (ioeventfd /
        ioregionfd / userspace) — the mechanism split behind Fig. 6.
        A snapshot clone re-binds once its process has a fresh pid.
        """
        metrics = self.kernel.obs.metrics.scope("kvm", vm=self.owner.pid)
        self.metrics = metrics
        self._m_exits = metrics.counter("vmexits")
        self._m_exit_ioeventfd = metrics.counter("vmexits_ioeventfd")
        self._m_exit_ioregionfd = metrics.counter("vmexits_ioregionfd")
        self._m_exit_userspace = metrics.counter("vmexits_userspace")
        self._m_irq_injected = metrics.counter("irq_injected")
        self._m_msi_injected = metrics.counter("msi_injected")
        self._m_irqfd_assigned = metrics.counter("irqfd_assigned")
        self._m_irqfd_deassigned = metrics.counter("irqfd_deassigned")
        self._m_ioeventfd_registered = metrics.counter("ioeventfd_registered")
        self._m_ioregion_registered = metrics.counter("ioregion_registered")

    # -- ioctls ------------------------------------------------------------------

    def ioctl(self, request: str, arg: Any, thread: Thread) -> Any:
        # Every VM ioctl traverses kvm_vm_ioctl() in the host kernel —
        # the attach point of VMSH's memslot-snooping eBPF program.
        if self.kernel.faults.active:
            self.kernel.faults.check(f"kvm.{request}")
        self.kernel.ebpf_fire("kvm_vm_ioctl", vm=self, request=request)
        if request == "KVM_SET_USER_MEMORY_REGION":
            slot = self._memslots.set_region(
                slot=arg["slot"], gpa=arg["gpa"], size=arg["size"], hva=arg["hva"]
            )
            self.kernel.tracer.emit(
                "kvm", "set_memslot", slot=arg["slot"], gpa=hex(arg["gpa"]), size=arg["size"]
            )
            return slot
        if request == "KVM_CREATE_VCPU":
            vcpu = VcpuFd(self, index=len(self.vcpus))
            self.vcpus.append(vcpu)
            return thread.process.fds.install(vcpu)
        if request == "KVM_IRQFD":
            if arg.get("deassign"):
                return self._irqfd_deassign(arg["gsi"])
            if not self.gsi_routing_supported:
                raise KvmError(
                    "KVM_IRQFD: VM irqchip has no GSI pin routing (MSI-X only)"
                )
            eventfd = thread.process.fds.get(arg["eventfd"])
            if not isinstance(eventfd, EventFd):
                raise KvmError("KVM_IRQFD requires an eventfd")
            gsi = arg["gsi"]
            if gsi in self.irq_routes:
                self._irqfd_deassign(gsi)
            # The irqfd signal is a *wakeup*: under a running scheduler
            # the injection is queued as an event (so one VM's irq can
            # interleave with another VM's work); otherwise immediate.
            cb = lambda gsi=gsi: self.kernel.wakeup(  # noqa: E731
                lambda gsi=gsi: self.inject_irq(gsi), label=f"irqfd:gsi{gsi}"
            )
            self.irq_routes[gsi] = eventfd
            self._irq_route_cbs[gsi] = cb
            self._m_irqfd_assigned.inc()
            eventfd.on_signal(cb)
            # KVM holds its own reference to the eventfd: the route
            # survives the hypervisor closing its fd (struct-file
            # semantics, same as real irqfds).
            eventfd.incref()
            return 0
        if request == "KVM_IOEVENTFD":
            eventfd = thread.process.fds.get(arg["eventfd"])
            if not isinstance(eventfd, EventFd):
                raise KvmError("KVM_IOEVENTFD requires an eventfd")
            self.ioeventfds.append(
                IoEventFd(
                    addr=arg["addr"],
                    length=arg.get("length", 4),
                    eventfd=eventfd,
                    datamatch=arg.get("datamatch"),
                )
            )
            self._m_ioeventfd_registered.inc()
            return 0
        if request == "KVM_IRQFD_MSI":
            # An irqfd bound to an MSI message via KVM_SET_GSI_ROUTING.
            # Unlike pin-based KVM_IRQFD this works on MSI-X-only
            # irqchips (Cloud Hypervisor) — the basis of the VirtIO-PCI
            # attach extension.
            message = arg["msi_message"]
            if arg.get("deassign"):
                return self._irqfd_msi_deassign(message)
            eventfd = thread.process.fds.get(arg["eventfd"])
            if not isinstance(eventfd, EventFd):
                raise KvmError("KVM_IRQFD_MSI requires an eventfd")
            if message in self._msi_routes:
                self._irqfd_msi_deassign(message)
            cb = lambda message=message: self.kernel.wakeup(  # noqa: E731
                lambda message=message: self.inject_msi(message),
                label=f"irqfd:msi{message}",
            )
            self._msi_routes[message] = (eventfd, cb)
            eventfd.on_signal(cb)
            eventfd.incref()
            self._m_irqfd_assigned.inc()
            return 0
        if request == "KVM_SIGNAL_MSI":
            self.inject_msi(arg["msi_message"])
            return 0
        if request == "KVM_SET_IOREGION":
            new_lo, new_hi = arg["gpa"], arg["gpa"] + arg["size"]
            if arg.get("remove"):
                self._drop_ioregions(new_lo, new_hi)
                self.kernel.tracer.emit(
                    "kvm", "unset_ioregion", gpa=hex(arg["gpa"]), size=arg["size"]
                )
                return 0
            if not self.system.ioregionfd_supported:
                raise KvmError("KVM_SET_IOREGION: ioregionfd not supported by this kernel")
            sock = thread.process.fds.get(arg["socket"])
            if not isinstance(sock, SocketPair):
                raise KvmError("KVM_SET_IOREGION requires a socket")
            # Registering over an existing region replaces it — this is
            # what lets a second VMSH attach supersede a detached one.
            self._drop_ioregions(new_lo, new_hi)
            self.ioregions.append(IoRegionFd(gpa=arg["gpa"], size=arg["size"], socket=sock))
            self._m_ioregion_registered.inc()
            # KVM references the socket, so it stays connected after
            # the hypervisor-side fd VMSH injected is closed again.
            sock.incref()
            self.kernel.tracer.emit(
                "kvm", "set_ioregion", gpa=hex(arg["gpa"]), size=arg["size"]
            )
            return 0
        if request == "KVM_CHECK_EXTENSION":
            return self.system._check_extension(arg)
        raise KvmError(f"unknown VM ioctl {request!r}")

    # -- route teardown ----------------------------------------------------------

    def _irqfd_deassign(self, gsi: int) -> int:
        eventfd = self.irq_routes.pop(gsi, None)
        if eventfd is None:
            raise KvmError(f"KVM_IRQFD deassign: no route for GSI {gsi}")
        cb = self._irq_route_cbs.pop(gsi, None)
        if cb is not None:
            eventfd.remove_signal(cb)
        eventfd.decref()
        self._m_irqfd_deassigned.inc()
        return 0

    def _irqfd_msi_deassign(self, message: int) -> int:
        route = self._msi_routes.pop(message, None)
        if route is None:
            raise KvmError(f"KVM_IRQFD_MSI deassign: no route for message {message}")
        eventfd, cb = route
        eventfd.remove_signal(cb)
        eventfd.decref()
        self._m_irqfd_deassigned.inc()
        return 0

    def _drop_ioregions(self, lo: int, hi: int) -> None:
        """Remove (and release) every ioregion overlapping [lo, hi)."""
        keep: List[IoRegionFd] = []
        for r in self.ioregions:
            if lo < r.gpa + r.size and r.gpa < hi:
                r.socket.decref()
            else:
                keep.append(r)
        self.ioregions = keep

    # -- memory ---------------------------------------------------------------------

    def memslots(self) -> List[Memslot]:
        """Kernel-internal view (only reachable via the eBPF snooper)."""
        return self._memslots.all()

    def guest_memory(self) -> "GuestPhysMemory":
        return GuestPhysMemory(self)

    # -- interrupts --------------------------------------------------------------------

    def inject_irq(self, gsi: int) -> None:
        """Inject a guest interrupt (from an irqfd signal)."""
        self.kernel.costs.irq_inject()
        self._m_irq_injected.inc()
        if self.guest_irq_sink is not None:
            self.guest_irq_sink(gsi)

    #: MSI messages are delivered in a separate vector space so pin
    #: GSIs and message vectors cannot collide.
    MSI_VECTOR_BASE = 0x1000

    def inject_msi(self, message: int) -> None:
        """Deliver an MSI/MSI-X message (works without GSI routing)."""
        self.kernel.costs.irq_inject()
        self._m_msi_injected.inc()
        if self.guest_irq_sink is not None:
            self.guest_irq_sink(self.MSI_VECTOR_BASE + message)

    # -- MMIO dispatch --------------------------------------------------------------------

    def mmio_access(
        self,
        vcpu: VcpuFd,
        is_write: bool,
        addr: int,
        length: int = 4,
        value: int = 0,
    ) -> int:
        """A guest MMIO access: the VMEXIT funnel (Fig. 4/3).

        Returns the read value for reads (0 for writes).
        """
        costs = self.kernel.costs
        costs.vmexit()
        self._m_exits.inc()

        # 1. ioeventfd fast path: the exit is consumed in the kernel.
        if is_write:
            for ioe in self.ioeventfds:
                if ioe.matches(addr, value):
                    costs.eventfd_signal()
                    self._m_exit_ioeventfd.inc()
                    # The vCPU resumes immediately after the in-kernel
                    # signal; whoever polls the eventfd wakes up as a
                    # scheduled event when a scheduler loop is running.
                    self.kernel.wakeup(ioe.eventfd.signal, label="ioeventfd")
                    return 0

        # 2. ioregionfd: the kernel forwards the access over a socket,
        #    never waking the hypervisor — the key to zero interference
        #    with the original guest (Fig. 6, ioregionfd rows).
        for region in self.ioregions:
            if region.contains(addr, length):
                costs.ioregionfd_message()
                self._m_exit_ioregionfd.inc()
                reply = self._ioregion_roundtrip(region, is_write, addr, length, value)
                return reply

        # 3. Full userspace exit: KVM_RUN returns in the hypervisor.
        self._m_exit_userspace.inc()
        exit = MmioExit(is_write=is_write, addr=addr, length=length, data=value)
        vcpu.kvm_run.set_mmio(exit)
        hook = None
        if vcpu.run_thread is not None:
            hook = self.kernel._syscall_hooks.get(vcpu.run_thread.tid)

        # wrap_syscall mode: the tracer is stopped at the syscall-exit
        # boundary of KVM_RUN and peeks at the kvm_run page first.
        if hook is not None:
            costs.ptrace_stop()
            hook(vcpu.run_thread, "ioctl:KVM_RUN", "exit")

        if not exit.handled:
            costs.context_switch()
            if self.userspace_exit_handler is None:
                raise KvmError(
                    f"unhandled MMIO {'write' if is_write else 'read'} at {addr:#x}: "
                    "no userspace exit handler registered"
                )
            self.userspace_exit_handler(vcpu, exit)
            if not exit.handled:
                raise KvmError(
                    f"hypervisor did not handle MMIO at {addr:#x} "
                    f"({'write' if is_write else 'read'})"
                )
            if not exit.handled_by:
                exit.handled_by = "hypervisor"

        # The hypervisor re-enters KVM_RUN (another syscall boundary).
        costs.syscall()
        if hook is not None:
            costs.ptrace_stop()
            hook(vcpu.run_thread, "ioctl:KVM_RUN", "entry")
        vcpu.kvm_run.clear()
        return exit.data if not is_write else 0

    def _ioregion_roundtrip(
        self, region: IoRegionFd, is_write: bool, addr: int, length: int, value: int
    ) -> int:
        message = {
            "type": "write" if is_write else "read",
            "addr": addr,
            "len": length,
            "data": value,
        }
        region.socket.send(message)
        # The device's on_message handler runs synchronously and posts
        # its reply; reads must produce one.
        if is_write:
            if region.socket.inbox:
                region.socket.inbox.clear()
            return 0
        if not region.socket.inbox:
            raise KvmError(f"ioregionfd read at {addr:#x} got no reply")
        reply = region.socket.recv()
        return int(reply["data"])

    # -- vcpu entry ------------------------------------------------------------------------

    def vcpu_enter(self, vcpu: VcpuFd) -> Any:
        """(Re)enter the guest on ``vcpu`` — execution continues at RIP.

        The guest runtime decides what "executing at RIP" means: normal
        kernel flow, or — after VMSH rewrote RIP — the entry trampoline
        of the side-loaded library.
        """
        if vcpu.guest_runtime is None:
            raise KvmError(f"vcpu {vcpu.index} has no guest runtime bound")
        return vcpu.guest_runtime.execute_at(
            vcpu.regs[self.arch.ip_register], vcpu
        )


class GuestPhysMemory:
    """Byte-addressable guest-physical memory, resolved through memslots.

    The guest kernel uses this as "the RAM bus"; accesses resolve
    through the memslot table into the hypervisor's anonymous mappings,
    so guest stores are immediately visible to host-side readers — the
    property VMSH's whole design rests on (Fig. 3).
    """

    def __init__(self, vm: VmFd):
        self._vm = vm

    def covers(self, gpa: int, length: int) -> bool:
        """Is the whole range backed by one memslot (a read would work)?"""
        return self._vm._memslots.try_lookup(gpa, length) is not None

    def read(self, gpa: int, length: int) -> bytes:
        slot = self._vm._memslots.lookup(gpa, length)
        return self._vm.owner.address_space.read(slot.gpa_to_hva(gpa), length)

    def write(self, gpa: int, data: bytes) -> None:
        slot = self._vm._memslots.lookup(gpa, len(data))
        self._vm.owner.address_space.write(slot.gpa_to_hva(gpa), data)

    def read_u16(self, gpa: int) -> int:
        return int.from_bytes(self.read(gpa, 2), "little")

    def read_u32(self, gpa: int) -> int:
        return int.from_bytes(self.read(gpa, 4), "little")

    def read_u64(self, gpa: int) -> int:
        return int.from_bytes(self.read(gpa, 8), "little")

    def read_i32(self, gpa: int) -> int:
        return int.from_bytes(self.read(gpa, 4), "little", signed=True)

    def write_u16(self, gpa: int, value: int) -> None:
        self.write(gpa, (value & 0xFFFF).to_bytes(2, "little"))

    def write_u32(self, gpa: int, value: int) -> None:
        self.write(gpa, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def write_u64(self, gpa: int, value: int) -> None:
        self.write(gpa, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def write_i32(self, gpa: int, value: int) -> None:
        self.write(gpa, value.to_bytes(4, "little", signed=True))
