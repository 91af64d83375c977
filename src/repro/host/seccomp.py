"""Per-thread seccomp filters.

Firecracker installs restrictive per-thread seccomp profiles; the paper
reports (§6.2) that these reject VMSH's injected system calls, so VMSH
has to run Firecracker with the filter disabled (or, future work, only
inject on threads whose filter allows the call).  We model filters as
explicit allowlists so that exact failure mode reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable

from repro.errors import SeccompViolationError


@dataclass(frozen=True)
class SeccompFilter:
    """An allowlist seccomp filter for one thread."""

    name: str
    allowed: FrozenSet[str]

    @staticmethod
    def allowlist(name: str, syscalls: Iterable[str]) -> "SeccompFilter":
        return SeccompFilter(name=name, allowed=frozenset(syscalls))

    def check(self, syscall: str, thread_name: str) -> None:
        """Raise :class:`SeccompViolationError` if ``syscall`` is filtered."""
        if syscall not in self.allowed:
            raise SeccompViolationError(syscall, thread_name)

    def allows(self, syscall: str) -> bool:
        return syscall in self.allowed


# The baseline syscall set every VMM thread needs to run a guest.
VMM_BASELINE_SYSCALLS = frozenset(
    {
        "read",
        "write",
        "ioctl",
        "epoll_wait",
        "exit",
        "futex",
        "mmap",
        "munmap",
    }
)

# Syscalls VMSH injects into the hypervisor process (§5): memory setup
# and inter-process memory access, the UNIX socket used to send fds
# back to the VMSH host process, and close — VMSH shuts the fds it
# created inside the hypervisor once KVM holds its own references.
VMSH_INJECTED_SYSCALLS = frozenset(
    {
        "mmap",
        "munmap",
        "ioctl",
        "process_vm_readv",
        "process_vm_writev",
        "socketpair",
        "sendmsg",
        "eventfd2",
        "close",
    }
)


def firecracker_vcpu_filter() -> SeccompFilter:
    """Firecracker's production vCPU-thread profile: tiny allowlist.

    Deliberately excludes ``process_vm_*``, ``socketpair`` and
    ``eventfd2`` — the calls VMSH injects — reproducing the conflict
    the paper describes.
    """
    return SeccompFilter.allowlist(
        "firecracker-vcpu", {"read", "write", "ioctl", "exit", "futex", "epoll_wait"}
    )


def firecracker_vmm_filter() -> SeccompFilter:
    """Firecracker's VMM/main-thread profile."""
    return SeccompFilter.allowlist(
        "firecracker-vmm", VMM_BASELINE_SYSCALLS | {"timerfd_create", "epoll_ctl"}
    )
