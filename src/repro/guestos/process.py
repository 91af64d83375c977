"""Guest processes, credentials, namespaces, containers.

VMSH's container-aware attach (§4.4) reads the *context* of a
containerised guest process — UID/GID, namespaces, cgroup,
AppArmor/SELinux profile, capabilities — and applies it to the shell
it spawns.  This module models exactly that context.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import GuestError
from repro.guestos.vfs import MountNamespace, Vfs


@dataclass
class Credentials:
    uid: int = 0
    gid: int = 0
    groups: tuple = ()


DEFAULT_CAPABILITIES = frozenset(
    {
        "CAP_CHOWN",
        "CAP_DAC_OVERRIDE",
        "CAP_FOWNER",
        "CAP_KILL",
        "CAP_NET_BIND_SERVICE",
        "CAP_SETGID",
        "CAP_SETUID",
        "CAP_SYS_ADMIN",
        "CAP_SYS_CHROOT",
    }
)

#: the restricted set container runtimes grant by default
CONTAINER_CAPABILITIES = frozenset(
    {
        "CAP_CHOWN",
        "CAP_DAC_OVERRIDE",
        "CAP_FOWNER",
        "CAP_KILL",
        "CAP_NET_BIND_SERVICE",
        "CAP_SETGID",
        "CAP_SETUID",
        "CAP_SYS_CHROOT",
    }
)


class GuestProcess:
    """One process inside the guest."""

    # Auto-assigned pids start at 2: pid 1 is reserved for init, which
    # every kernel creates with an explicit pid.  This class-level
    # namespace is only a fallback for processes never entered into a
    # GuestProcessTable (benchmark stubs); table-owned processes are
    # renumbered from the table's own counter on add() so that two
    # identically-built guests assign identical pids — a prerequisite
    # for replay-identical traces.
    _pid_counter = itertools.count(2)

    def __init__(
        self,
        name: str,
        mount_ns: MountNamespace,
        creds: Optional[Credentials] = None,
        pid_ns: str = "init",
        net_ns: str = "init",
        cgroup: str = "/",
        capabilities: frozenset = DEFAULT_CAPABILITIES,
        security_profile: str = "unconfined",
        argv: Optional[List[str]] = None,
        kind: str = "user",
        pid: Optional[int] = None,
    ):
        self._auto_pid = pid is None
        self.pid = pid if pid is not None else next(GuestProcess._pid_counter)
        self.name = name
        self.mount_ns = mount_ns
        self.vfs = Vfs(mount_ns)
        self.creds = creds if creds is not None else Credentials()
        self.pid_ns = pid_ns
        self.net_ns = net_ns
        self.cgroup = cgroup
        self.capabilities = frozenset(capabilities)
        self.security_profile = security_profile
        self.argv = argv if argv is not None else [name]
        self.kind = kind            # "user" | "kthread" | "init"
        self.alive = True
        self.exit_code: Optional[int] = None
        self.cwd = "/"
        self.environ: Dict[str, str] = {}

    def exit(self, code: int = 0) -> None:
        self.alive = False
        self.exit_code = code

    def container_context(self) -> "ContainerContext":
        """The context VMSH extracts to make its shell container-aware."""
        return ContainerContext(
            pid=self.pid,
            uid=self.creds.uid,
            gid=self.creds.gid,
            mount_ns=self.mount_ns,
            pid_ns=self.pid_ns,
            net_ns=self.net_ns,
            cgroup=self.cgroup,
            capabilities=self.capabilities,
            security_profile=self.security_profile,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GuestProcess(pid={self.pid}, name={self.name!r})"


@dataclass(frozen=True)
class ContainerContext:
    """The namespace/credential context of a containerised process."""

    pid: int
    uid: int
    gid: int
    mount_ns: MountNamespace
    pid_ns: str
    net_ns: str
    cgroup: str
    capabilities: frozenset
    security_profile: str


class GuestProcessTable:
    """The guest's process table."""

    def __init__(self) -> None:
        self._processes: Dict[int, GuestProcess] = {}
        # Per-table pid namespace (pid 1 is init, added explicitly).
        self._pid_counter = itertools.count(2)

    def add(self, process: GuestProcess) -> GuestProcess:
        if process._auto_pid:
            process.pid = next(self._pid_counter)
            process._auto_pid = False
        self._processes[process.pid] = process
        return process

    def get(self, pid: int) -> GuestProcess:
        try:
            process = self._processes[pid]
        except KeyError:
            raise GuestError(f"no guest process with pid {pid}") from None
        if not process.alive:
            raise GuestError(f"guest process {pid} has exited")
        return process

    def alive(self) -> List[GuestProcess]:
        return [p for p in self._processes.values() if p.alive]

    def by_name(self, name: str) -> GuestProcess:
        for process in self._processes.values():
            if process.name == name and process.alive:
                return process
        raise GuestError(f"no live guest process named {name!r}")

    def __len__(self) -> int:
        return len(self._processes)
