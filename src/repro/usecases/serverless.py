"""Use-case #1: serverless debug shell in a vHive-like stack (§6.5).

"We integrate VMSH into vHive, a knative-compliant stack running
serverless workloads in slim Firecracker-containerd VMs.  Thereafter,
we parse logs from vHive's lambda functions for errors, and then
locate the Firecracker process that hosts the faulty lambda in order
to attach to its hosting VM with VMSH and provide an interactive
shell to it.  While the user interacts with this shell ... our
integration prevents shutdown of the lambda-function's VM by
scale-down events."

The platform here is a faithful control-plane model: per-function
Firecracker microVMs, invocation logs, idle-based scale-down, and a
debug path that parses the logs, finds the hosting VMM *by pid* and
attaches VMSH (Firecracker runs with its seccomp filter disabled, as
the paper does for now).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.core.vmsh import VmshSession
from repro.errors import VmshError
from repro.guestos.process import Credentials, GuestProcess
from repro.hypervisors.flavors import Firecracker
from repro.image.builder import build_serverless_debug_image
from repro.sim.sched import Completion, PeriodicTimer, Scheduler, run_inline
from repro.testbed import Testbed
from repro.units import SEC


@dataclass
class LogLine:
    time_ns: int
    instance_id: str
    level: str
    message: str

    def __str__(self) -> str:
        return f"[{self.time_ns}] {self.instance_id} {self.level}: {self.message}"


@dataclass
class LambdaInstance:
    """One microVM hosting one function."""

    instance_id: str
    function: str
    hypervisor: Firecracker
    last_used_ns: int
    pinned: bool = False
    terminated: bool = False
    #: set while the boot or restore delay paid by the request that
    #: started the instance has not passed; other requests park on it
    ready: Optional[Completion] = None


#: log severities in ascending order; ``log_level`` drops lines below
#: the threshold before they are even formatted.
_LOG_SEVERITY = {"DEBUG": 10, "INFO": 20, "WARN": 30, "ERROR": 40}


class VHivePlatform:
    """A miniature vHive: functions, microVM pool, logs, scale-down.

    With ``nic=True`` every instance, cold-booted or restored from the
    snapshot pool, serves on a vmsh-net NIC plugged into its own port
    of the testbed's fabric; scale-down exits the VM, and its port
    leaves the fabric with it.
    """

    IDLE_TIMEOUT_NS = 2 * SEC
    #: give up re-acquiring an instance after this many mid-invoke
    #: terminations (each retry logs a WARN and re-charges the boot).
    MAX_INVOKE_RETRIES = 3

    def __init__(self, testbed: Testbed, snapshot_pool: bool = False,
                 host: Optional[object] = None, log_level: str = "INFO",
                 nic: bool = False, nic_queue_pairs: int = 1):
        self.testbed = testbed
        self._clock = testbed.clock
        self._costs = testbed.costs
        # The faas_route counter and its cost, resolved once: a warm
        # request bumps an attribute instead of looking the name up.
        self._m_route = testbed.costs._counter("faas_route")
        self._route_ns = testbed.costs.p.faas_route_ns
        #: give every microVM a virtio-net NIC on the testbed's shared
        #: fabric — the traffic plane's data path
        self.nic = nic
        self.nic_queue_pairs = nic_queue_pairs
        #: hook fired for every instance the platform brings up (cold
        #: or restored), after the VM is live and registered — the
        #: traffic plane binds its per-guest request server here.
        self.on_instance: Optional[Callable[[LambdaInstance], None]] = None
        #: opt-in: bake a VmSnapshot on the first cold boot of each
        #: function and serve later cold invocations by restoring it
        #: (``faas_snapshot_restore_ns``) instead of booting
        #: (``faas_cold_start_ns``) — the ROADMAP item 1 pool.
        self.snapshot_pool = snapshot_pool
        #: simulated host this platform's microVMs boot on — a
        #: ``Testbed.add_host`` machine when the platform is one shard
        #: of a :class:`~repro.usecases.fleet.FleetControlPlane`
        #: (default: the testbed's primary host).
        self.host = host if host is not None else testbed.host
        if log_level not in _LOG_SEVERITY:
            raise VmshError(f"unknown log level {log_level!r}")
        self.log_level = log_level
        self._log_threshold = _LOG_SEVERITY[log_level]
        self._pool: Dict[str, object] = {}
        self._functions: Dict[str, Callable[[dict], dict]] = {}
        self._instances: Dict[str, LambdaInstance] = {}
        #: function -> its live instance.  A function has at most one:
        #: a new instance starts only when none is live, and scale-down
        #: removes an instance here as it terminates it.
        self._warm: Dict[str, LambdaInstance] = {}
        #: tombstones of reaped instances: log-driven lookups (the
        #: debugger's "too late" path) still resolve, but the VM graph
        #: is released.
        self._retired: Dict[str, LambdaInstance] = {}
        self._instance_counter = itertools.count(1)
        self.logs: List[LogLine] = []
        self._autoscaler: Optional[PeriodicTimer] = None

    # -- deployment / invocation --------------------------------------------------

    def deploy(self, name: str, handler: Callable[[dict], dict]) -> None:
        self._functions[name] = handler

    def invoke(self, name: str, payload: dict) -> Optional[dict]:
        """Invoke a function; errors are logged, not raised (FaaS-style).

        :meth:`invoke_task` run inline: with no other task running, the
        delays advance the clock.  An instance another task is still
        bringing up cannot be waited for inline, so that raises
        :class:`~repro.sim.sched.SchedulerError`.
        """
        return run_inline(self.invoke_task(name, payload), self._clock)

    def invoke_task(self, name: str, payload: dict,
                    leg: Optional[Callable[[LambdaInstance], Generator]] = None):
        """Cooperative :meth:`invoke` for scheduler tasks (a generator).

        This is the one request loop: the fleet control plane admits a
        request and then runs it here, and :meth:`invoke` runs it
        inline.  A request that lands on a scaled-down function pays
        the full microVM boot + handler init, not just routing — the
        latency cliff scale-down trades for density (§6.5); with the
        snapshot pool, later cold hits pay the restore instead.
        Cold-start, restore and routing delays are timed yields, so a
        storm of concurrent invocations across N microVMs interleaves —
        and the autoscaler timer can fire in between.  A request that
        finds its function's instance still booting or restoring parks
        on the instance's ``ready`` completion until the request that
        started it has paid the delay, then pays its own route.  The
        instance resolved before a yield may be scaled down by the
        time the yield returns: the instance is re-validated after
        *every* yield and re-acquired (with a logged retry, at most
        ``MAX_INVOKE_RETRIES`` times) if it was terminated mid-flight.

        The task's result is the handler's result (or ``None`` on a
        logged error).  ``leg(instance)``, a generator function, runs
        the request in place of the handler call — the traffic plane
        sends it over the fabric — and its return value is the result.
        """
        if name not in self._functions:
            raise VmshError(f"function {name!r} is not deployed")
        clock, costs = self._clock, self._costs
        retries = 0
        while True:
            instance = self._warm.get(name)
            if instance is None:
                instance, kind = self._start_instance(name)
                instance.last_used_ns = clock._now
                instance.ready = ready = Completion()
                if kind == "cold":
                    costs.bump("faas_cold_start")
                    yield costs.p.faas_cold_start_ns
                else:
                    costs.bump("faas_snapshot_restore")
                    yield costs.p.faas_snapshot_restore_ns
                instance.ready = None
                ready.set()
            else:
                instance.last_used_ns = clock._now
                if instance.ready is not None:
                    # Still booting or restoring: wait for the request
                    # that started it rather than run on it early.
                    yield instance.ready
            if not instance.terminated:
                self._m_route.value += 1
                yield self._route_ns
            if instance.terminated:
                # The autoscaler fired during a timed yield and killed
                # the instance under us — never execute on a dead VM.
                retries += 1
                costs.bump("faas_invoke_retry")
                if retries > self.MAX_INVOKE_RETRIES:
                    self._log(
                        instance, "ERROR",
                        f"gave up invoking {name} after {retries - 1} "
                        "mid-invoke terminations",
                    )
                    return None
                self._log(
                    instance, "WARN",
                    f"instance terminated mid-invoke; retrying {name} "
                    f"({retries}/{self.MAX_INVOKE_RETRIES})",
                )
                continue
            instance.last_used_ns = clock._now
            if leg is None:
                return self._execute(instance, name, payload)
            return (yield from leg(instance))

    def _execute(self, instance: LambdaInstance, name: str,
                 payload: dict) -> Optional[dict]:
        # Gate before formatting: at fleet scale the two INFO lines per
        # invocation (and the sorted() behind the first) dominate the
        # control-plane cost when the platform runs at "WARN".
        info = self._log_threshold <= 20
        if info:
            self._log(instance, "INFO",
                      f"invoke {name} payload_keys={sorted(payload)}")
        try:
            result = self._functions[name](payload)
        except Exception as exc:  # noqa: BLE001 - lambda errors become logs
            self._log(
                instance, "ERROR", f"{type(exc).__name__}: {exc}"
            )
            return None
        if info:
            self._log(instance, "INFO", "invoke ok")
        return result

    def _start_instance(self, name: str) -> Tuple[LambdaInstance, str]:
        """Bring up a new instance for ``name``: a restore from the
        snapshot pool, or a cold boot.

        Returns ``(instance, kind)`` with ``kind`` ``"cold"`` or
        ``"restore"``; :meth:`invoke_task` pays the matching delay.
        """
        snap = self._pool.get(name) if self.snapshot_pool else None
        if snap is not None:
            # Pool hit: materialize a microVM from the prebaked
            # snapshot.  The restore delay is charged by the caller.
            hv = self.testbed.clone(snap, host=self.host, charge=False)
            self.testbed.costs.bump("faas_pool_hit")
            kind = "restore"
        else:
            # Cold start: boot a slim Firecracker microVM for the
            # function, and install the lambda handler's process.
            hv = self.testbed.launch_firecracker(
                seccomp=False, host=self.host,
                nic=self.nic, nic_queue_pairs=self.nic_queue_pairs,
            )
            lambda_proc = GuestProcess(
                f"lambda-{name}",
                hv.guest.root_ns,
                creds=Credentials(uid=1000, gid=1000),
                cgroup=f"/faas/{name}",
                pid_ns=f"lambda-{name}",
            )
            hv.guest.processes.add(lambda_proc)
            kind = "cold"
        instance = LambdaInstance(
            instance_id=f"inst-{next(self._instance_counter)}",
            function=name,
            hypervisor=hv,
            last_used_ns=self.testbed.clock.now,
        )
        self._instances[instance.instance_id] = instance
        self._warm[name] = instance
        if kind == "restore":
            self._log(
                instance, "INFO",
                f"restored {name} from snapshot pool (vmm pid {hv.pid})",
            )
        else:
            self._log(instance, "INFO",
                      f"cold start for {name} (vmm pid {hv.pid})")
            if self.snapshot_pool:
                # First boot of this function: bake the pool snapshot
                # (charges the capture walk once, on the cold path).
                self.testbed.costs.bump("faas_pool_miss")
                self._pool[name] = self.testbed.snapshot(hv)
        if self.on_instance is not None:
            self.on_instance(instance)
        return instance, kind

    def _log(self, instance: LambdaInstance, level: str, message: str) -> None:
        if _LOG_SEVERITY.get(level, 40) < self._log_threshold:
            return
        self.logs.append(
            LogLine(self.testbed.clock.now, instance.instance_id, level, message)
        )

    # -- scale-down -------------------------------------------------------------------

    def start_autoscaler(self, scheduler: Scheduler,
                         period_ns: int = SEC) -> PeriodicTimer:
        """Run :meth:`scale_down` on a timer — the fleet control loop.

        This is what the paper's debug path races against: while a
        shell is being attached, the next tick may scale the instance
        down unless the debugger pinned it first.
        """
        if self._autoscaler is not None and not self._autoscaler.cancelled:
            raise VmshError("autoscaler is already running")
        self._autoscaler = scheduler.every(
            period_ns, self.scale_down, label="autoscaler"
        )
        return self._autoscaler

    def stop_autoscaler(self) -> None:
        if self._autoscaler is not None:
            self._autoscaler.cancel()
            self._autoscaler = None

    def scale_down(self) -> List[str]:
        """Terminate idle instances — unless pinned by a debug session.

        Terminated instances are *reaped*: popped from the live tables
        (so they stay bounded over a long fleet run) into a tombstone
        map that keeps log-driven lookups working, with the VM graph
        released.
        """
        now = self.testbed.clock.now
        terminated = []
        for instance in list(self._instances.values()):
            if instance.terminated or instance.pinned:
                continue
            if now - instance.last_used_ns >= self.IDLE_TIMEOUT_NS:
                instance.terminated = True
                instance.hypervisor.exit()
                self._log(instance, "INFO", "scaled down")
                terminated.append(instance.instance_id)
                # Reap: drop the dead VM's object graph; the tombstone
                # record keeps instance() (and "too late" errors) alive.
                instance.hypervisor = None  # type: ignore[assignment]
                self._retired[instance.instance_id] = self._instances.pop(
                    instance.instance_id
                )
                del self._warm[instance.function]
        return terminated

    def instance(self, instance_id: str) -> LambdaInstance:
        live = self._instances.get(instance_id)
        if live is not None:
            return live
        return self._retired[instance_id]

    def live_instances(self) -> List[LambdaInstance]:
        return [i for i in self._instances.values() if not i.terminated]


@dataclass
class DebugSession:
    """A VMSH shell pinned to a faulty lambda instance."""

    instance: LambdaInstance
    session: VmshSession
    error_log: LogLine

    def close(self) -> None:
        self.session.detach()
        self.instance.pinned = False


class ServerlessDebugger:
    """The paper's vHive integration: log-driven VMSH attach."""

    def __init__(self, platform: VHivePlatform):
        self.platform = platform
        self.vmsh = platform.testbed.vmsh()

    def find_faulty_instance(self) -> Optional[LogLine]:
        """Parse platform logs for the most recent lambda error."""
        for line in reversed(self.platform.logs):
            if line.level == "ERROR":
                return line
        return None

    def debug_shell(self) -> DebugSession:
        """Attach an interactive shell to the faulty lambda's VM:
        :meth:`debug_shell_task` run inline."""
        return run_inline(self.debug_shell_task(), self.platform.testbed.clock)

    def debug_shell_task(self, **attach_kwargs):
        """Cooperative :meth:`debug_shell` for scheduler tasks.

        The attach pipeline's step boundaries become yield points, so
        the autoscaler timer and the rest of the fleet keep running
        while the shell is brought up — the §6.5 race, made explicit.
        The instance is pinned *before* the first yield, so a
        concurrent scale-down tick firing mid-attach skips it.
        """
        error = self.find_faulty_instance()
        if error is None:
            raise VmshError("no lambda errors in the platform logs")
        instance = self.platform.instance(error.instance_id)
        if instance.terminated:
            raise VmshError(
                f"instance {instance.instance_id} already scaled down — too late"
            )
        instance.pinned = True
        try:
            session = yield from self.vmsh.attach_task(
                instance.hypervisor.pid,
                image=build_serverless_debug_image(),
                **attach_kwargs,
            )
        except BaseException:
            instance.pinned = False
            raise
        return DebugSession(instance=instance, session=session, error_log=error)
