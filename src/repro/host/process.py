"""Simulated host processes: address spaces, fd tables, threads.

A hypervisor is "just a process" to VMSH: it finds the process via
``/proc``, reads its memory with ``process_vm_readv`` and manipulates
it with ptrace.  This module models exactly the process anatomy those
mechanisms touch: virtual memory mappings (guest RAM is an anonymous
mapping inside the hypervisor), a file-descriptor table (KVM fds show
up as ``anon_inode:kvm-vm`` links), and threads (Firecracker installs
per-thread seccomp filters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import BadFileDescriptorError, HostError, MemoryError_
from repro.mem.physmem import LittleEndianWords, PhysicalMemory
from repro.units import PAGE_SIZE, page_align_up


# ---------------------------------------------------------------------------
# File descriptors
# ---------------------------------------------------------------------------

class FileObject:
    """Base class for anything an fd can point at.

    Objects are reference counted the way struct-file is: every fd
    table entry and every kernel-internal holder (an irqfd route, an
    ioregionfd registration) takes a reference, and :meth:`close` only
    runs when the last reference drops — which is what lets VMSH close
    the eventfds it injected into the hypervisor while KVM keeps the
    irqfd alive.
    """

    #: the string shown by ``readlink /proc/<pid>/fd/<n>``
    proc_link: str = "anon_inode:[unknown]"
    #: class default; incref shadows it with an instance attribute so
    #: subclasses need no __init__ cooperation
    _refs: int = 0

    def incref(self) -> None:
        self._refs = self._refs + 1

    def decref(self) -> None:
        self._refs = self._refs - 1
        if self._refs <= 0:
            self.close()

    def close(self) -> None:
        """Release resources; default is a no-op."""


class EventFd(FileObject):
    """eventfd(2): a counter plus wakeup callbacks (irqfd/ioeventfd base)."""

    proc_link = "anon_inode:[eventfd]"

    def __init__(self) -> None:
        self.counter = 0
        self._callbacks: List[Callable[[], None]] = []

    def signal(self) -> None:
        self.counter += 1
        for cb in list(self._callbacks):
            cb()

    def drain(self) -> int:
        value, self.counter = self.counter, 0
        return value

    def on_signal(self, cb: Callable[[], None]) -> None:
        self._callbacks.append(cb)

    def remove_signal(self, cb: Callable[[], None]) -> None:
        """Detach a wakeup callback (irqfd deassign)."""
        if cb in self._callbacks:
            self._callbacks.remove(cb)


class SocketPair(FileObject):
    """A connected UNIX socket endpoint carrying message objects."""

    proc_link = "socket:[0]"

    def __init__(self) -> None:
        self.inbox: List[Any] = []
        self.peer: Optional["SocketPair"] = None
        self._on_message: Optional[Callable[[Any], None]] = None

    @staticmethod
    def pair() -> Tuple["SocketPair", "SocketPair"]:
        a, b = SocketPair(), SocketPair()
        a.peer, b.peer = b, a
        return a, b

    def send(self, message: Any) -> None:
        if self.peer is None:
            raise HostError("socket has no peer")
        self.peer.inbox.append(message)
        if self.peer._on_message is not None:
            self.peer._on_message(message)

    def recv(self) -> Any:
        if not self.inbox:
            raise HostError("recv on empty socket")
        return self.inbox.pop(0)

    def on_message(self, cb: Callable[[Any], None]) -> None:
        self._on_message = cb

    def close(self) -> None:
        """Last reference dropped: sever the pair (peer sees hangup)."""
        if self.peer is not None:
            self.peer.peer = None
            self.peer = None
        self._on_message = None


class FdTable:
    """Per-process file-descriptor table."""

    def __init__(self) -> None:
        self._fds: Dict[int, FileObject] = {}
        self._next = 3  # 0..2 reserved for std streams

    def install(self, obj: FileObject) -> int:
        fd = self._next
        self._next += 1
        self._fds[fd] = obj
        obj.incref()
        return fd

    def get(self, fd: int) -> FileObject:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {fd} is not open") from None

    def close(self, fd: int) -> None:
        obj = self.get(fd)
        del self._fds[fd]
        obj.decref()

    def items(self) -> Iterator[Tuple[int, FileObject]]:
        return iter(sorted(self._fds.items()))

    def __contains__(self, fd: int) -> bool:
        return fd in self._fds

    def __len__(self) -> int:
        return len(self._fds)


# ---------------------------------------------------------------------------
# Virtual memory
# ---------------------------------------------------------------------------

@dataclass
class Mapping:
    """One contiguous virtual memory area of a process."""

    start: int
    size: int
    backing: PhysicalMemory
    backing_offset: int = 0
    name: str = "anon"

    @property
    def end(self) -> int:
        return self.start + self.size


class AddressSpace(LittleEndianWords):
    """A process's virtual address space: a set of mappings.

    ``mmap`` places anonymous mappings at increasing addresses from a
    per-process base (mirroring how the hypervisors the paper studied
    lay out guest RAM).
    """

    MMAP_BASE = 0x7F0000000000

    def __init__(self) -> None:
        self._mappings: List[Mapping] = []
        self._next_addr = self.MMAP_BASE

    def mmap(self, size: int, name: str = "anon") -> Mapping:
        if size <= 0:
            raise ValueError("mmap size must be positive")
        size = page_align_up(size)
        mapping = Mapping(self._next_addr, size, PhysicalMemory(size), name=name)
        self._next_addr += size + PAGE_SIZE  # guard page gap
        self._mappings.append(mapping)
        return mapping

    def munmap(self, start: int) -> None:
        for i, m in enumerate(self._mappings):
            if m.start == start:
                del self._mappings[i]
                return
        raise MemoryError_(f"no mapping starts at {start:#x}")

    def read(self, addr: int, length: int) -> bytes:
        end = addr + length
        for m in self._mappings:
            if m.start <= addr and end <= m.start + m.size:
                return m.backing.read(addr - m.start + m.backing_offset, length)
        raise MemoryError_(f"address {addr:#x} (+{length}) is unmapped")

    def write(self, addr: int, data: bytes) -> None:
        end = addr + len(data)
        for m in self._mappings:
            if m.start <= addr and end <= m.start + m.size:
                m.backing.write(addr - m.start + m.backing_offset, data)
                return
        raise MemoryError_(f"address {addr:#x} (+{len(data)}) is unmapped")

    def mappings(self) -> List[Mapping]:
        return list(self._mappings)


# ---------------------------------------------------------------------------
# Threads and processes
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Thread:
    """A host thread: name, registers for injection, seccomp filter.

    Identity semantics (``eq=False``): two thread objects are the same
    thread only if they are the same object, and threads are hashable
    for use in sets/dicts.
    """

    tid: int
    name: str
    process: "Process"
    seccomp_filter: Optional[Any] = None   # host.seccomp.SeccompFilter
    saved_regs: Dict[str, int] = field(default_factory=dict)
    stopped: bool = False


class Process:
    """A simulated host process.

    Its pid and its threads' tids come from the counters of its
    ``host`` kernel, so two identically-built hosts assign identical
    ids, as replay-identical traces need.  As on Linux, a tid is unique
    host-wide, not per process.
    """

    def __init__(self, name: str, host: Any, uid: int = 0):
        self.pid = next(host.pid_counter)
        self.name = name
        self.host = host
        self.uid = uid
        self.fds = FdTable()
        self.address_space = AddressSpace()
        self.threads: List[Thread] = []
        self.capabilities: set = {"CAP_SYS_PTRACE", "CAP_SYS_ADMIN", "CAP_BPF"}
        self.tracer: Optional["Process"] = None  # who ptrace-attached to us
        self.exited = False
        self.spawn_thread(name)  # the thread-group leader

    def spawn_thread(self, name: str) -> Thread:
        thread = Thread(tid=next(self.host.tid_counter), name=name, process=self)
        self.threads.append(thread)
        return thread

    @property
    def main_thread(self) -> Thread:
        return self.threads[0]

    def thread_by_name(self, name: str) -> Thread:
        for t in self.threads:
            if t.name == name:
                return t
        raise HostError(f"process {self.name}[{self.pid}] has no thread {name!r}")

    def drop_capability(self, cap: str) -> None:
        self.capabilities.discard(cap)

    def grant_capability(self, cap: str) -> None:
        """Re-grant a capability (a rollback/detach compensating action)."""
        self.capabilities.add(cap)

    def has_capability(self, cap: str) -> bool:
        return cap in self.capabilities

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, name={self.name!r})"
