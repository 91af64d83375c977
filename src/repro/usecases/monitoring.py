"""Dependability service: fine-grained guest monitoring (§2.3).

"Monitoring tools are currently used to gather coarse-grained
information about the resource usage of the entire guest.  VMSH
provides a more fine-grained view as it gives access to the guest OS
metadata, such as the process list, resource usage, etc."

The monitor attaches once with the vm-exec device and samples guest
metadata out of band — no agent, no network, and the interactive
console stays free for a human operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.vmsh import Vmsh, VmshSession
from repro.errors import VmshError
from repro.hypervisors.base import Hypervisor
from repro.sim.sched import run_inline


@dataclass(frozen=True)
class GuestProcessInfo:
    pid: int
    name: str
    pid_ns: str
    cgroup: str


@dataclass
class GuestSample:
    """One monitoring sample of a guest."""

    time_ns: int
    kernel: str
    processes: List[GuestProcessInfo] = field(default_factory=list)
    filesystems: Dict[str, str] = field(default_factory=dict)

    @property
    def process_count(self) -> int:
        return len(self.processes)

    def containerised_processes(self) -> List[GuestProcessInfo]:
        """Processes running outside the init namespaces."""
        return [p for p in self.processes if p.pid_ns != "init"]


class GuestMonitor:
    """Agent-less guest monitoring over a VMSH exec session."""

    def __init__(self, vmsh: Vmsh):
        self.vmsh = vmsh
        self._session: Optional[VmshSession] = None

    def attach(self, hypervisor: Hypervisor) -> None:
        if hypervisor.guest is None:
            raise VmshError("hypervisor has no running guest")
        self._session = self.vmsh.attach(hypervisor.pid, exec_device=True)

    def detach(self) -> None:
        if self._session is not None:
            self._session.detach()
            self._session = None

    @property
    def session(self) -> VmshSession:
        if self._session is None:
            raise VmshError("monitor is not attached")
        return self._session

    # -- sampling --------------------------------------------------------------

    def sample(self) -> GuestSample:
        """Collect one fine-grained sample via vm-exec."""
        return run_inline(self.sample_task(), self.vmsh.host.clock)

    def sample_task(self):
        """Cooperative :meth:`sample` for scheduler tasks (a generator)."""
        session = self.session
        uname = yield from session.exec_task("uname")
        sample = GuestSample(
            time_ns=self.vmsh.host.clock.now,
            kernel=uname.output,
        )
        ps = yield from session.exec_task("ps")
        if ps.ok:
            sample.processes = _parse_ps(ps.output)
        for mountpoint in ("/", "/var/lib/vmsh"):
            df = yield from session.exec_task(["df", mountpoint])
            if df.ok:
                sample.filesystems[mountpoint] = df.output
        return sample

    def watch(self, samples: int, interval_ns: int) -> List[GuestSample]:
        """Take several samples, ``interval_ns`` of virtual time apart:
        :meth:`watch_task` run inline."""
        return run_inline(
            self.watch_task(samples, interval_ns), self.vmsh.host.clock
        )

    def watch_task(self, samples: int, interval_ns: int):
        """Cooperative :meth:`watch` for scheduler tasks.

        ``yield interval_ns`` parks the monitor between samples, so the
        guests' device service loops (and other monitors) interleave
        with the watch; run inline, the sleep advances the clock.
        Spawn with ``sched.spawn(monitor.watch_task(...))``; the task's
        result is the collected sample list.  Each sample is one
        ``monitor.sample`` span.
        """
        spans = self.vmsh.host.obs.spans
        collected = []
        for index in range(samples):
            # begin/end, not the context manager: the sample's exec
            # round-trips yield while the span is open.
            span = spans.begin("monitor.sample", track="monitor", sample=index)
            sample = yield from self.sample_task()
            collected.append(sample)
            # Span-id cursor: every span and instant opened while the
            # sample ran, retained or past ``max_spans``.
            spans.end(span, spans=spans.next_sid - span.sid - 1)
            if index + 1 < samples:
                yield interval_ns
        return collected


def _parse_ps(output: str) -> List[GuestProcessInfo]:
    processes = []
    for line in output.splitlines()[1:]:          # skip the header
        fields = line.split()
        if len(fields) < 4:
            continue
        try:
            pid = int(fields[0])
        except ValueError:
            continue
        processes.append(
            GuestProcessInfo(
                pid=pid, name=fields[1], pid_ns=fields[2], cgroup=fields[3]
            )
        )
    return processes
