"""Exception hierarchy for the VMSH reproduction.

Every error raised by this library derives from :class:`ReproError` so
applications can catch library failures with a single except clause.
The sub-hierarchy mirrors the layers of the system: simulated host
kernel, simulated KVM, guest OS, VirtIO transport, and VMSH itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Host-kernel layer
# --------------------------------------------------------------------------

class HostError(ReproError):
    """Error in the simulated host kernel (processes, fds, syscalls)."""


class NoSuchProcessError(HostError):
    """Referenced PID does not exist on the simulated host."""


class BadFileDescriptorError(HostError):
    """Referenced file descriptor is not open in the target process."""


class PermissionDeniedError(HostError):
    """Caller lacks the privilege required for the operation."""


class SeccompViolationError(HostError):
    """A syscall was rejected by the thread's seccomp filter.

    The paper hits exactly this on Firecracker (§6.2): injected
    syscalls violate Firecracker's per-thread seccomp profiles unless
    the filter is disabled.
    """

    def __init__(self, syscall: str, thread_name: str):
        super().__init__(
            f"seccomp filter on thread {thread_name!r} rejected syscall {syscall!r}"
        )
        self.syscall = syscall
        self.thread_name = thread_name


class PtraceError(HostError):
    """ptrace operation failed (not attached, already traced, ...)."""


# --------------------------------------------------------------------------
# Fault injection (chaos substrate)
# --------------------------------------------------------------------------

class FaultInjectedError(ReproError):
    """An artificially injected fault from a :class:`repro.sim.faults.FaultPlan`.

    Carries where and how it fired so retry policies and chaos tests
    can reason about it.
    """

    def __init__(self, site: str, kind: str, occurrence: int, message: str = ""):
        detail = message or f"injected {kind} fault at {site} (hit {occurrence})"
        super().__init__(detail)
        self.site = site
        self.kind = kind
        self.occurrence = occurrence


class TransientFaultError(FaultInjectedError):
    """A fault that heals on its own: retrying the operation may succeed."""


class PermanentFaultError(FaultInjectedError):
    """A fault that persists: every retry of the operation fails again."""


class UnknownFaultSiteError(ReproError, ValueError):
    """A :class:`~repro.sim.faults.FaultPlan` names a site no code checks.

    Raised at *arm* time so a typo'd site (``attach.setup_irqfd`` vs
    the real step name) fails fast instead of silently never firing.
    """

    def __init__(self, site: str, hint: str = ""):
        detail = f"unknown fault site {site!r}"
        if hint:
            detail += f" — {hint}"
        super().__init__(detail)
        self.site = site


# --------------------------------------------------------------------------
# Record / replay
# --------------------------------------------------------------------------

class RecordingError(ReproError):
    """A run recording could not be captured, loaded or replayed."""


# --------------------------------------------------------------------------
# KVM layer
# --------------------------------------------------------------------------

class KvmError(ReproError):
    """Error in the simulated KVM API."""


class MemslotOverlapError(KvmError):
    """A new memory slot overlaps an existing one."""


class InvalidGpaError(KvmError):
    """A guest-physical address is not backed by any memory slot."""


# --------------------------------------------------------------------------
# Guest-memory / paging layer
# --------------------------------------------------------------------------

class MemoryError_(ReproError):
    """Error accessing simulated physical memory."""


class PageFaultError(MemoryError_):
    """A guest-virtual address does not resolve through the page tables."""

    def __init__(self, vaddr: int, reason: str = "not present"):
        super().__init__(f"page fault at guest vaddr {vaddr:#x}: {reason}")
        self.vaddr = vaddr
        self.reason = reason


# --------------------------------------------------------------------------
# Guest-OS layer
# --------------------------------------------------------------------------

class GuestError(ReproError):
    """Error inside the simulated guest kernel."""


class GuestPanicError(GuestError):
    """The guest kernel panicked (e.g. jumped to a corrupt library)."""


class VfsError(GuestError):
    """Guest VFS error; carries an errno-style symbolic code."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


# --------------------------------------------------------------------------
# VirtIO layer
# --------------------------------------------------------------------------

class VirtioError(ReproError):
    """VirtIO protocol violation (bad descriptor chain, ring overflow)."""


# --------------------------------------------------------------------------
# VMSH core
# --------------------------------------------------------------------------

class VmshError(ReproError):
    """Error in VMSH itself."""


class HypervisorNotSupportedError(VmshError):
    """The target hypervisor cannot be attached to.

    Cloud Hypervisor raises this: it only exposes a PCI/MSI-X VirtIO
    transport, while VMSH implements the MMIO transport (Table 1).
    """


class SnapshotError(VmshError):
    """A VM snapshot could not be captured, restored, cloned or migrated.

    Raised when a quiesced service task has no scheduler to restart
    on, when a snapshot is restored into a VM of another flavor, or
    when a clone is requested of a VM captured while a live VMSH
    session held it.
    """


class SideloadError(VmshError):
    """The side-loading pipeline failed (discovery, parsing, loading)."""


class SymbolResolutionError(SideloadError):
    """A kernel symbol required by the kernel library was not found."""

    def __init__(self, symbol: str):
        super().__init__(f"cannot resolve guest kernel symbol {symbol!r}")
        self.symbol = symbol


class KernelNotFoundError(SideloadError):
    """The guest kernel image could not be located in the KASLR range."""


class ImageError(ReproError):
    """Malformed or incompatible file-system image."""
