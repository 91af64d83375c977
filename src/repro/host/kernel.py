"""The simulated host Linux kernel.

This is the trusted layer of the paper's threat model: it owns the
process table, dispatches system calls (with seccomp enforcement and
ptrace accounting), implements the inter-process memory syscalls VMSH
relies on, and hosts attach points for eBPF programs such as the
memslot snooper attached to ``kvm_vm_ioctl`` (§5).
"""

from __future__ import annotations

import itertools

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    HostError,
    NoSuchProcessError,
    PermissionDeniedError,
)
from repro.host.process import EventFd, Process, SocketPair, Thread
from repro.sim.clock import Clock
from repro.sim.costs import CostModel
from repro.sim.faults import FaultInjector


class HostKernel:
    """Host kernel: processes, syscalls, eBPF attach points."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        costs: Optional[CostModel] = None,
    ):
        from repro.arch import X86_64

        self.clock = clock if clock is not None else Clock()
        self.costs = costs if costs is not None else CostModel(self.clock)
        #: observability hub shared with (and owned through) the cost
        #: model: a Testbed wires one root hub into its CostModel, a
        #: standalone HostKernel gets the CostModel's private hub.
        self.obs = self.costs.obs
        #: fault-injection runtime (inert until a FaultPlan is armed)
        self.faults = FaultInjector(self.obs)
        #: discrete-event scheduler (set by the Testbed).  Signal paths
        #: consult it via :meth:`wakeup`; ``None`` or an idle scheduler
        #: means fully synchronous legacy behaviour.
        self.scheduler: Optional["Scheduler"] = None
        #: host CPU architecture (VMSH is built per-arch, §5)
        self.arch = X86_64
        self.processes: Dict[int, Process] = {}
        # Per-host pid/tid namespaces: two hosts built the same way
        # assign identical ids, which keeps traces replayable across
        # runs (the chaos determinism requirement).
        self.pid_counter = itertools.count(1000)
        self.tid_counter = itertools.count(100_000)
        # eBPF programs by kernel attach point, e.g. "kvm_vm_ioctl".
        self._ebpf_programs: Dict[str, List[Callable[..., None]]] = {}
        # Per-thread syscall trace hooks installed via ptrace
        # (tid -> callback(thread, syscall_name, phase)).
        self._syscall_hooks: Dict[int, Callable[[Thread, str, str], None]] = {}
        # Registry-backed host metrics: per-syscall invocation counts
        # (labelled) plus the inline-vs-deferred wakeup split.
        self._m_host = self.obs.metrics.scope("host")
        self._m_syscalls: Dict[str, Any] = {}
        self._m_wakeups_inline = self._m_host.counter("wakeups_inline")
        self._m_wakeups_deferred = self._m_host.counter("wakeups_deferred")

    # -- deferred wakeups --------------------------------------------------------

    def wakeup(self, fn: Callable[[], None],
               label: str = "wakeup") -> Optional[object]:
        """Run ``fn`` now, or defer it onto the event scheduler.

        Deferral happens only while a scheduler loop is actively
        dispatching: irqfd/ioeventfd signals then become schedulable
        wakeups that interleave with other VMs' work.  Outside the loop
        (every pre-scheduler entry point) ``fn`` runs inline, keeping
        the single-VM paths bit-identical to the synchronous substrate.
        Returns the :class:`~repro.sim.sched.Timer` when deferred,
        ``None`` when run inline.
        """
        sched = self.scheduler
        if sched is not None and sched.running:
            self._m_wakeups_deferred.inc()
            return sched.after(0, fn, label=label)
        self._m_wakeups_inline.inc()
        fn()
        return None

    # -- process management ----------------------------------------------------

    def spawn_process(self, name: str, uid: int = 0) -> Process:
        process = Process(name, host=self, uid=uid)
        self.processes[process.pid] = process
        self.obs.instant("host.spawn", track="host", pid=process.pid, name=name)
        return process

    def process(self, pid: int) -> Process:
        try:
            proc = self.processes[pid]
        except KeyError:
            raise NoSuchProcessError(f"no process with pid {pid}") from None
        if proc.exited:
            raise NoSuchProcessError(f"process {pid} has exited")
        return proc

    def exit_process(self, pid: int) -> None:
        """End a process the way the kernel's exit path does.

        Every fd is closed through its reference count, so a file whose
        last holder was this process is released (a VM fd leaves KVM),
        and the address space is unmapped.  The pid entry stays, marked
        exited, so :meth:`process` reports that it has exited.
        """
        process = self.process(pid)
        process.exited = True
        for fd, _file in process.fds.items():
            process.fds.close(fd)
        for mapping in process.address_space.mappings():
            process.address_space.munmap(mapping.start)
        self.obs.instant("host.exit", track="host", pid=pid)

    # -- eBPF --------------------------------------------------------------------

    def ebpf_attach(self, attach_point: str, program: Callable[..., None], caller: Process) -> None:
        """Attach ``program`` to a kernel function (requires CAP_BPF)."""
        if not caller.has_capability("CAP_BPF"):
            raise PermissionDeniedError(
                f"{caller.name} lacks CAP_BPF to attach to {attach_point}"
            )
        self._ebpf_programs.setdefault(attach_point, []).append(program)
        self.obs.instant(
            "host.ebpf_attach", track="host", point=attach_point, by=caller.name
        )

    def ebpf_detach(self, attach_point: str, program: Callable[..., None]) -> None:
        programs = self._ebpf_programs.get(attach_point, [])
        if program in programs:
            programs.remove(program)

    def ebpf_fire(self, attach_point: str, **context: Any) -> None:
        """Invoked by kernel code paths when an attach point is hit."""
        for program in self._ebpf_programs.get(attach_point, []):
            program(**context)

    # -- ptrace syscall tracing accounting ------------------------------------------

    def install_syscall_hook(
        self, thread: Thread, hook: Callable[[Thread, str, str], None]
    ) -> None:
        self._syscall_hooks[thread.tid] = hook

    def remove_syscall_hook(self, thread: Thread) -> None:
        self._syscall_hooks.pop(thread.tid, None)

    def thread_is_traced(self, thread: Thread) -> bool:
        return thread.tid in self._syscall_hooks

    # -- syscall dispatch -----------------------------------------------------------

    def syscall(self, thread: Thread, name: str, *args: Any, injected: bool = False) -> Any:
        """Execute syscall ``name`` in ``thread``'s context.

        Seccomp applies to injected syscalls exactly as to native ones
        (the kernel cannot tell them apart — which is why Firecracker's
        filters break naive injection, §6.2).  If the thread is under
        ptrace syscall tracing, the tracer is stopped at entry and exit
        and pays two ptrace stops — the mechanism behind the
        ``wrap_syscall`` overhead in Fig. 6.
        """
        if thread.seccomp_filter is not None:
            thread.seccomp_filter.check(name, thread.name)
        if self.faults.active:
            self.faults.check(f"syscall.{name}", tid=thread.tid, injected=injected)
            if injected:
                # The Firecracker quirk (§6.2): a strict per-thread
                # filter that kills exactly the syscalls VMSH injects.
                self.faults.check(
                    "seccomp.injected", syscall=name, thread=thread.name
                )
        counter = self._m_syscalls.get(name)
        if counter is None:
            counter = self._m_host.counter("syscalls", syscall=name)
            self._m_syscalls[name] = counter
        counter.value += 1
        hook = self._syscall_hooks.get(thread.tid)
        if hook is not None:
            self.costs.ptrace_stop()
            hook(thread, name, "entry")
        self.costs.syscall()
        impl = _SYSCALLS.get(name)
        if impl is None:
            raise HostError(f"unimplemented syscall {name!r}")
        result = impl(self, thread, *args)
        if hook is not None:
            self.costs.ptrace_stop()
            hook(thread, name, "exit")
        return result

    # -- syscall implementations -------------------------------------------------------

    def _sys_mmap(self, thread: Thread, size: int, name: str = "anon") -> int:
        mapping = thread.process.address_space.mmap(size, name=name)
        return mapping.start

    def _sys_munmap(self, thread: Thread, addr: int) -> int:
        thread.process.address_space.munmap(addr)
        return 0

    def _sys_ioctl(self, thread: Thread, fd: int, request: str, arg: Any = None) -> Any:
        if self.faults.active:
            self.faults.check(f"ioctl.{request}", fd=fd)
        obj = thread.process.fds.get(fd)
        ioctl = getattr(obj, "ioctl", None)
        if ioctl is None:
            raise HostError(f"fd {fd} ({obj.proc_link}) does not support ioctl")
        return ioctl(request, arg, thread)

    def _sys_close(self, thread: Thread, fd: int) -> int:
        thread.process.fds.close(fd)
        return 0

    def _sys_process_vm_readv(
        self, thread: Thread, pid: int, remote_addr, length: Optional[int] = None
    ) -> bytes:
        """Read remote memory: ``(addr, length)`` or an iovec of them.

        The scatter-gather form takes a sequence of ``(addr, length)``
        segments as ``remote_addr`` — one syscall, charged per call +
        per segment + per byte, exactly like the real vectored call.
        """
        remote = self._check_vm_access(thread.process, pid)
        if length is not None:
            self.costs.procvm_vectored(length, 1)
            return remote.address_space.read(remote_addr, length)
        iov = tuple(remote_addr)
        self.costs.procvm_vectored(sum(l for _, l in iov), len(iov))
        return b"".join(remote.address_space.read(a, l) for a, l in iov)

    def _sys_process_vm_writev(
        self, thread: Thread, pid: int, remote_addr, data: Optional[bytes] = None
    ) -> int:
        """Write remote memory: ``(addr, data)`` or an iovec of them."""
        remote = self._check_vm_access(thread.process, pid)
        if data is not None:
            self.costs.procvm_vectored(len(data), 1)
            remote.address_space.write(remote_addr, data)
            return len(data)
        iov = tuple(remote_addr)
        total = sum(len(d) for _, d in iov)
        self.costs.procvm_vectored(total, len(iov))
        for addr, chunk in iov:
            remote.address_space.write(addr, chunk)
        return total

    def _sys_eventfd2(self, thread: Thread) -> int:
        return thread.process.fds.install(EventFd())

    def _sys_socketpair(self, thread: Thread) -> Tuple[int, int]:
        a, b = SocketPair.pair()
        return thread.process.fds.install(a), thread.process.fds.install(b)

    def _sys_sendmsg(
        self,
        thread: Thread,
        fd: int,
        message: Any,
        attached_fds: Optional[List[int]] = None,
    ) -> int:
        """sendmsg with SCM_RIGHTS-style fd passing.

        The sideloader uses this to ship fds created inside the
        hypervisor (irqfd eventfds, ioregionfd sockets) back to the
        VMSH host process (§5).
        """
        sock = thread.process.fds.get(fd)
        if not isinstance(sock, SocketPair):
            raise HostError(f"fd {fd} is not a socket")
        objects = [thread.process.fds.get(f) for f in (attached_fds or [])]
        sock.send({"payload": message, "fd_objects": objects})
        return 0

    def _sys_recvmsg(self, thread: Thread, fd: int) -> Tuple[Any, List[int]]:
        sock = thread.process.fds.get(fd)
        if not isinstance(sock, SocketPair):
            raise HostError(f"fd {fd} is not a socket")
        msg = sock.recv()
        new_fds = [thread.process.fds.install(obj) for obj in msg["fd_objects"]]
        return msg["payload"], new_fds

    def _sys_pread(self, thread: Thread, fd: int, offset: int, length: int) -> bytes:
        obj = thread.process.fds.get(fd)
        io_read = getattr(obj, "io_read", None)
        if io_read is None:
            raise HostError(f"fd {fd} ({obj.proc_link}) does not support pread")
        return io_read(offset, length)

    def _sys_pwrite(self, thread: Thread, fd: int, offset: int, data: bytes) -> int:
        obj = thread.process.fds.get(fd)
        io_write = getattr(obj, "io_write", None)
        if io_write is None:
            raise HostError(f"fd {fd} ({obj.proc_link}) does not support pwrite")
        io_write(offset, data)
        return len(data)

    def _sys_fsync(self, thread: Thread, fd: int) -> int:
        obj = thread.process.fds.get(fd)
        io_sync = getattr(obj, "io_sync", None)
        if io_sync is None:
            raise HostError(f"fd {fd} ({obj.proc_link}) does not support fsync")
        io_sync()
        return 0

    def _sys_read(self, thread: Thread, fd: int) -> Any:
        obj = thread.process.fds.get(fd)
        if isinstance(obj, EventFd):
            return obj.drain()
        if isinstance(obj, SocketPair):
            return obj.recv()
        raise HostError(f"fd {fd} ({obj.proc_link}) does not support read")

    def _sys_write(self, thread: Thread, fd: int, data: Any = 1) -> int:
        obj = thread.process.fds.get(fd)
        if isinstance(obj, EventFd):
            obj.signal()
            return 8
        if isinstance(obj, SocketPair):
            obj.send(data)
            return len(data) if hasattr(data, "__len__") else 8
        raise HostError(f"fd {fd} ({obj.proc_link}) does not support write")

    # -- helpers -----------------------------------------------------------------------

    def _check_vm_access(self, caller: Process, target_pid: int) -> Process:
        """The target of a process_vm_* call, if ``caller`` may access it."""
        target = self.process(target_pid)
        if caller.uid != 0 and caller.uid != target.uid and not caller.has_capability(
            "CAP_SYS_PTRACE"
        ):
            raise PermissionDeniedError(
                f"{caller.name} may not access memory of pid {target_pid}"
            )
        return target


#: syscall name -> its ``HostKernel._sys_*`` implementation
_SYSCALLS = {
    name[len("_sys_"):]: impl
    for name, impl in vars(HostKernel).items()
    if name.startswith("_sys_")
}
