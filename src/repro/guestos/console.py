"""Guest tty layer and a small shell.

The shell is what VMSH's overlay spawns and connects to its console
device (Fig. 1).  It executes against the *overlay's* mount namespace
with the *container's* credentials, which is how the use-cases (§6.5)
reach both the image's tools and — under ``/var/lib/vmsh`` — the
original guest filesystem.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.errors import VfsError
from repro.guestos.process import GuestProcess
from repro.sim.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.guestos.kernel import GuestKernel

SEARCH_PATH = ("/bin", "/usr/bin", "/sbin", "/usr/sbin")


class GuestTty:
    """Line-disciplined tty pumping between a byte channel and a shell."""

    def __init__(self, costs: CostModel, write_out: Callable[[bytes], None]):
        self._costs = costs
        self._write_out = write_out
        self._line_buffer = bytearray()
        self._shell: Optional["GuestShell"] = None

    def connect_shell(self, shell: "GuestShell") -> None:
        self._shell = shell

    def input_bytes(self, data: bytes) -> None:
        """Bytes arriving from the console device."""
        self._line_buffer += data
        while b"\n" in self._line_buffer:
            line, _, rest = bytes(self._line_buffer).partition(b"\n")
            self._line_buffer = bytearray(rest)
            self._dispatch_line(line.decode(errors="replace"))

    def _dispatch_line(self, line: str) -> None:
        self._costs.tty_turnaround()
        if self._shell is None:
            return
        output = self._shell.execute(line)
        if output:
            self._write_out(output.encode() + b"\n")
        else:
            self._write_out(b"")


class GuestShell:
    """A minimal POSIX-ish shell with the built-ins the paper's
    use-cases exercise (echo/cat/ls/chpasswd/ps/sha256sum/...)."""

    def __init__(
        self,
        process: GuestProcess,
        kernel: Optional["GuestKernel"] = None,
        *,
        costs: CostModel,
    ):
        self.process = process
        self.kernel = kernel
        self._costs = costs
        self.history: List[str] = []

    # -- entry point ----------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line, returning its combined output."""
        line = line.strip()
        if not line:
            return ""
        self._costs.shell_exec()
        self.history.append(line)
        argv = line.split()
        command, args = argv[0], argv[1:]
        builtin = getattr(self, f"_cmd_{command.replace('-', '_')}", None)
        if builtin is not None:
            try:
                return builtin(args)
            except VfsError as exc:
                return f"{command}: {exc}"
        return self._exec_external(command, args)

    def _exec_external(self, command: str, args: List[str]) -> str:
        vfs = self.process.vfs
        candidates = [command] if command.startswith("/") else [
            f"{d}/{command}" for d in SEARCH_PATH
        ]
        for path in candidates:
            if vfs.exists(path):
                return f"{command}: executed from {path}"
        return f"sh: {command}: not found"

    # -- built-ins -------------------------------------------------------------------------

    def _cmd_echo(self, args: List[str]) -> str:
        return " ".join(args)

    def _cmd_true(self, args: List[str]) -> str:
        return ""

    def _cmd_pwd(self, args: List[str]) -> str:
        return self.process.cwd

    def _cmd_id(self, args: List[str]) -> str:
        creds = self.process.creds
        return f"uid={creds.uid} gid={creds.gid}"

    def _cmd_cat(self, args: List[str]) -> str:
        chunks = []
        for path in args:
            chunks.append(self.process.vfs.read_file(path).decode(errors="replace"))
        return "".join(chunks).rstrip("\n")

    def _cmd_ls(self, args: List[str]) -> str:
        path = args[0] if args else "/"
        return "  ".join(self.process.vfs.readdir(path))

    def _cmd_mount(self, args: List[str]) -> str:
        lines = []
        for mount in self.process.mount_ns.mounts():
            lines.append(f"{mount.fs.label} on {mount.path} type {mount.fs.fstype}")
        return "\n".join(lines)

    def _cmd_sha256sum(self, args: List[str]) -> str:
        lines = []
        for path in args:
            digest = hashlib.sha256(self.process.vfs.read_file(path)).hexdigest()
            lines.append(f"{digest}  {path}")
        return "\n".join(lines)

    def _cmd_ps(self, args: List[str]) -> str:
        """Guest process list — the fine-grained monitoring view §2.3
        promises (agents only see whole-guest counters)."""
        if self.kernel is None:
            return "ps: no kernel access"
        lines = ["PID   NAME            NS        CGROUP"]
        for proc in self.kernel.processes.alive():
            lines.append(
                f"{proc.pid:<5} {proc.name:<15} {proc.pid_ns:<9} {proc.cgroup}"
            )
        return "\n".join(lines)

    def _cmd_chpasswd(self, args: List[str]) -> str:
        """user:password — rewrite the shadow entry (use-case #2)."""
        if not args or ":" not in args[0]:
            return "chpasswd: expected user:password"
        user, _, password = args[0].partition(":")
        vfs = self.process.vfs
        shadow_path = "/etc/shadow"
        if not vfs.exists(shadow_path):
            # In the overlay, the guest's /etc lives under /var/lib/vmsh.
            shadow_path = "/var/lib/vmsh/etc/shadow"
        try:
            content = vfs.read_file(shadow_path).decode()
        except VfsError:
            return f"chpasswd: cannot open {shadow_path}"
        digest = hashlib.sha256(password.encode()).hexdigest()
        lines = []
        found = False
        for entry in content.splitlines():
            fields = entry.split(":")
            if fields and fields[0] == user:
                fields[1] = f"$5${digest}"
                found = True
            lines.append(":".join(fields))
        if not found:
            return f"chpasswd: user {user!r} not found"
        vfs.write_file(shadow_path, ("\n".join(lines) + "\n").encode())
        return f"chpasswd: password for {user!r} updated"

    def _cmd_uname(self, args: List[str]) -> str:
        if self.kernel is None:
            return "Linux"
        return f"Linux vm {self.kernel.version}"

    def _cmd_df(self, args: List[str]) -> str:
        path = args[0] if args else "/"
        stats = self.process.vfs.statfs(path)
        used = stats["blocks"] - stats["bfree"]
        return f"{path}: {used}/{stats['blocks']} blocks used"
