"""The sysdig-style open() tracer (§6.4 methodology).

"In the guest's initial ramdisk, before the application starts, we add
a custom system call tracer based on sysdig to record all paths opened
by the VM."

Our tracer hooks the guest VFS open path of a freshly booted VM,
records every path the application profile touches, and returns the
closure (opened files + their symlink chains + parent directories)
that a minimal image must keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Set

from repro.errors import VfsError
from repro.guestos.kernel import GuestKernel
from repro.guestos.vfs import Vfs


@dataclass
class TraceResult:
    """Paths the traced run opened (and their closure)."""

    opened: Set[str] = field(default_factory=set)
    missing: Set[str] = field(default_factory=set)

    def keep_set(self) -> Set[str]:
        """Opened paths plus all parent directories."""
        keep: Set[str] = set()
        for path in self.opened:
            keep.add(path)
            parent = path.rsplit("/", 1)[0]
            while parent:
                keep.add(parent)
                parent = parent.rsplit("/", 1)[0]
            keep.add("/")
        return keep


class OpenTracer:
    """Records every successful and attempted open on a guest VFS."""

    def __init__(self, guest: GuestKernel):
        if guest.kernel_vfs is None:
            raise VfsError("EINVAL", "guest has no root VFS")
        self.guest = guest
        self.result = TraceResult()
        self._original_open: Callable = None  # type: ignore[assignment]

    def __enter__(self) -> "OpenTracer":
        vfs = self.guest.kernel_vfs
        assert vfs is not None
        self._original_open = vfs.open
        tracer = self

        def traced_open(path: str, flags=None, mode: int = 0o644, uid: int = 0):
            try:
                handle = tracer._original_open(path, flags, mode=mode, uid=uid)
            except VfsError as exc:
                if exc.code == "ENOENT":
                    tracer.result.missing.add(path)
                raise
            tracer.result.opened.add(handle.path)
            # Follow and record the symlink chain too: a minimal image
            # must keep the links the app resolves through.
            tracer._record_symlink_chain(vfs, path)
            return handle

        vfs.open = traced_open  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self.guest.kernel_vfs is not None
        # Remove the instance override so class lookup resumes.
        self.guest.kernel_vfs.__dict__.pop("open", None)

    def _record_symlink_chain(self, vfs: Vfs, path: str) -> None:
        seen = 0
        current = path
        while seen < 16:
            try:
                target = vfs.readlink(current)
            except VfsError:
                return
            self.result.opened.add(current)
            current = target if target.startswith("/") else (
                current.rsplit("/", 1)[0] + "/" + target
            )
            self.result.opened.add(current)
            seen += 1
