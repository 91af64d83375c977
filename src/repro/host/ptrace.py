"""ptrace: attach, interrupt, syscall injection, syscall tracing.

This is the hypervisor-agnostic control channel of the paper (§4.1,
§5): VMSH never talks *to* the hypervisor, it talks *through* it.  The
:class:`PtraceSession` lets the VMSH process stop hypervisor threads,
save/restore their registers, and execute system calls in the
hypervisor's context (its fd table, its address space, its seccomp
filters) — the OS "only allows to manipulate the guest from the
hypervisor process".
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.errors import PermissionDeniedError, PtraceError
from repro.host.kernel import HostKernel
from repro.host.process import Process, Thread


class PtraceSession:
    """An active ptrace attachment from ``tracer`` to ``tracee``."""

    def __init__(self, kernel: HostKernel, tracer: Process, tracee: Process):
        if tracee.tracer is not None:
            raise PtraceError(
                f"process {tracee.pid} is already traced by {tracee.tracer.pid}"
            )
        if not tracer.has_capability("CAP_SYS_PTRACE") and tracer.uid != tracee.uid:
            raise PermissionDeniedError(
                f"{tracer.name} lacks CAP_SYS_PTRACE to trace {tracee.name}"
            )
        self.kernel = kernel
        self.tracer = tracer
        self.tracee = tracee
        tracee.tracer = tracer
        self._wrapped_threads: List[Thread] = []
        self.attached = True
        #: when set, injections are steered to a thread whose seccomp
        #: filter permits the syscall (the §6.2 future-work heuristic)
        self.seccomp_aware = False
        kernel.obs.instant(
            "ptrace.attach", track="ptrace", tracer=tracer.pid, tracee=tracee.pid
        )

    # -- stop / resume -------------------------------------------------------------

    def interrupt(self, thread: Thread) -> None:
        """PTRACE_INTERRUPT: stop one tracee thread."""
        self._check_attached(thread)
        if thread.stopped:
            raise PtraceError(f"thread {thread.tid} is already stopped")
        self.kernel.faults.check("ptrace.interrupt", tid=thread.tid)
        self.kernel.costs.ptrace_stop()
        thread.stopped = True

    def resume(self, thread: Thread) -> None:
        """PTRACE_CONT: resume a stopped tracee thread."""
        self._check_attached(thread)
        if not thread.stopped:
            raise PtraceError(f"thread {thread.tid} is not stopped")
        self.kernel.faults.check("ptrace.resume", tid=thread.tid)
        self.kernel.costs.context_switch()
        thread.stopped = False

    # -- register access --------------------------------------------------------------

    def get_regs(self, thread: Thread) -> dict:
        """PTRACE_GETREGS (thread must be stopped)."""
        self._check_stopped(thread)
        return dict(thread.saved_regs)

    def set_regs(self, thread: Thread, regs: dict) -> None:
        """PTRACE_SETREGS (thread must be stopped)."""
        self._check_stopped(thread)
        thread.saved_regs = dict(regs)

    # -- syscall injection ---------------------------------------------------------------

    def pick_thread_for(self, syscall: str, preferred: Optional[Thread] = None) -> Thread:
        """Find a tracee thread whose seccomp filter permits ``syscall``.

        The paper proposes this heuristic for Firecracker-style VMMs
        with per-thread filters (§6.2): "implement a heuristic that
        only runs system calls on threads that are allowed by seccomp".
        """
        candidates: List[Thread] = []
        if preferred is not None:
            candidates.append(preferred)
        candidates.extend(t for t in self.tracee.threads if t is not preferred)
        for thread in candidates:
            if thread.seccomp_filter is None or thread.seccomp_filter.allows(syscall):
                return thread
        from repro.errors import SeccompViolationError

        raise SeccompViolationError(syscall, "<no tracee thread permits it>")

    def inject_syscall(self, thread: Thread, name: str, *args: Any) -> Any:
        """Execute a syscall in the tracee thread's context (§4.1).

        The simulation mirrors the real procedure: save registers, set
        up the syscall ABI, single-step through the syscall, restore
        registers.  Costs: one ptrace stop to take control, the syscall
        itself (dispatched by the host kernel *as the tracee*, so
        seccomp filters and fd tables are the tracee's), and a resume.

        With :attr:`seccomp_aware` set, the injection is steered to a
        thread whose filter permits the call.
        """
        self._check_attached(thread)
        self.kernel.faults.check("ptrace.inject_syscall", tid=thread.tid, syscall=name)
        if self.seccomp_aware:
            thread = self.pick_thread_for(name, preferred=thread)
        was_stopped = thread.stopped
        if not was_stopped:
            self.interrupt(thread)
        saved = dict(thread.saved_regs)
        try:
            # Registers are rewritten per the syscall ABI; the dict
            # stands in for rax/rdi/rsi/... assignment.
            thread.saved_regs = {"syscall": name, "args": args}  # type: ignore[dict-item]
            result = self.kernel.syscall(thread, name, *args, injected=True)
        finally:
            thread.saved_regs = saved
            if not was_stopped:
                self.resume(thread)
        self.kernel.obs.instant(
            "ptrace.inject_syscall", track="ptrace", tid=thread.tid, syscall=name
        )
        return result

    # -- syscall-boundary tracing (the wrap_syscall MMIO dispatch) -----------------------

    def trace_syscalls(self, thread: Thread, hook: Callable[[Thread, str, str], None]) -> None:
        """PTRACE_SYSCALL-style tracing: stop at every syscall boundary.

        ``hook(thread, syscall_name, phase)`` runs at ``"entry"`` and
        ``"exit"``; every stop costs the tracee two context switches to
        the VMSH process — the per-VMEXIT overhead that degrades
        qemu-blk by 6x IOPS when wrap_syscall is active (Fig. 6b).
        """
        self._check_attached(thread)
        self.kernel.install_syscall_hook(thread, hook)
        self._wrapped_threads.append(thread)

    def untrace_syscalls(self, thread: Thread) -> None:
        self.kernel.remove_syscall_hook(thread)
        if thread in self._wrapped_threads:
            self._wrapped_threads.remove(thread)

    # -- lifecycle ----------------------------------------------------------------------------

    def detach(self) -> None:
        """PTRACE_DETACH: resume everything and drop tracing state."""
        if not self.attached:
            return
        for thread in list(self._wrapped_threads):
            self.untrace_syscalls(thread)
        for thread in self.tracee.threads:
            if thread.stopped:
                self.resume(thread)
        self.tracee.tracer = None
        self.attached = False
        self.kernel.obs.instant("ptrace.detach", track="ptrace", tracee=self.tracee.pid)

    # -- internal -------------------------------------------------------------------------------

    def _check_attached(self, thread: Optional[Thread] = None) -> None:
        if not self.attached:
            raise PtraceError("ptrace session is detached")
        if thread is not None and thread.process is not self.tracee:
            raise PtraceError(
                f"thread {thread.tid} does not belong to tracee {self.tracee.pid}"
            )

    def _check_stopped(self, thread: Thread) -> None:
        self._check_attached(thread)
        if not thread.stopped:
            raise PtraceError(f"thread {thread.tid} must be stopped for register access")


def attach(kernel: HostKernel, tracer: Process, tracee: Process) -> PtraceSession:
    """PTRACE_ATTACH ``tracer`` -> ``tracee``."""
    kernel.faults.check("ptrace.attach", tracer=tracer.pid, tracee=tracee.pid)
    return PtraceSession(kernel, tracer, tracee)
