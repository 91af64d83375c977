"""Use-case #4: end-to-end serverless traffic over the net fabric.

The paper's vHive integration (§6.5) debugs a fleet that *serves
traffic*; previous PRs modelled the control plane (routing, admission,
autoscaling) but executed handlers as direct calls, so "latency" never
contained a network.  This module closes that gap:

* every microVM, cold-booted or restored from the snapshot pool,
  carries a vmsh-net NIC on its own port of the testbed's shared
  :class:`~repro.sim.netfab.NetFabric` (so the fleet must be built
  with ``nic=True``),
* a load generator's client port sends each request as an Ethernet-ish
  frame to the serving instance's NIC; the guest's request server
  (bound via ``VHivePlatform.on_instance``) executes the handler and
  answers over its TX virtqueue — the one way a request is served,
* admission, placement, cold starts and retries still run through
  :meth:`~repro.usecases.fleet.FleetControlPlane.invoke_over_task`, so
  the recorded end-to-end latency is queue wait + control plane +
  fabric RTT + guest execution.

Open-loop (fixed arrival interval) and closed-loop (fixed concurrency)
generators drive the fleet; chaos legs — a mid-traffic VMSH debug
attach, the same attach rolled back by an armed fault plan, and a
noisy neighbor flooding a victim's ingress — run as scheduler tasks in
the middle of the load.  Everything is a pure function of the seed.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.sim.faults import PERMANENT, FaultPlan, FaultSpec
from repro.sim.sched import Completion
from repro.testbed import Testbed
from repro.units import MSEC, SEC
from repro.usecases.fleet import FleetControlPlane, nearest_rank
from repro.usecases.serverless import ServerlessDebugger
from repro.virtio.net import frame_payload, frame_src, make_frame

#: marker for a request whose response frame never came back
_TIMEOUT = object()


def _encode_request(rid: int, name: str, payload: dict) -> bytes:
    return json.dumps(
        {"rid": rid, "fn": name, "p": payload}, sort_keys=True
    ).encode()


def _encode_response(rid: int, result: Optional[dict]) -> bytes:
    return json.dumps({"rid": rid, "r": result}, sort_keys=True).encode()


class TrafficPlane:
    """Load generation + per-guest request servers over the fabric."""

    #: give up on a response frame after this much virtual time — the
    #: only way a request ends when the fabric drops its frame.
    REQUEST_TIMEOUT_NS = 500 * MSEC

    def __init__(self, testbed: Testbed, fleet: FleetControlPlane,
                 label: str = "traffic"):
        if not all(shard.platform.nic for shard in fleet.shards):
            raise ReproError(
                "the traffic plane serves over each instance's NIC: build "
                "the fleet with nic=True"
            )
        self.testbed = testbed
        self.fleet = fleet
        self.label = label
        self.scheduler = testbed.scheduler
        self.fabric = testbed.fabric()
        self.client = self.fabric.attach(f"{label}-loadgen")
        self.client.connect(self._on_response)
        self._flooder = None
        self._rid_counter = itertools.count(1)
        self._gates: Dict[int, Completion] = {}
        self._responses: Dict[int, Any] = {}
        #: count of guests running the request server (instance ids are
        #: only unique per shard, so served-ness is marked on the
        #: instance object itself, not in an id-keyed set)
        self.servers_installed = 0
        #: request tasks spawned by the open-loop pacer
        self.tasks: List[Any] = []
        self.latencies_ns: List[int] = []
        self.junk_frames = 0
        self.stale_responses = 0
        self.flood_frames = 0
        #: chronological outcomes of the debug-attach legs
        self.attach_log: List[str] = []
        scope = testbed.obs.metrics.scope("traffic", plane=label)
        self._m_requests = scope.counter("requests")
        self._m_completed = scope.counter("completed")
        self._m_timeouts = scope.counter("timeouts")
        self._m_latency = scope.histogram("latency_ns")
        # Bind the per-guest request server to every instance each
        # shard platform brings up from now on.
        for shard in fleet.shards:
            platform = shard.platform

            def hook(instance, platform=platform):
                self._install_server(platform, instance)

            platform.on_instance = hook

    # -- guest side -----------------------------------------------------------

    def _install_server(self, platform, instance) -> None:
        """Bind the request server to a fresh instance's NIC."""
        nic = instance.hypervisor.guest.net_devices["eth0"]

        def serve(frame: bytes, pair: int) -> None:
            try:
                doc = json.loads(frame_payload(frame).decode())
                rid, name, payload = doc["rid"], doc["fn"], doc["p"]
            except (ValueError, KeyError, UnicodeDecodeError):
                # Not ours (flood traffic, corrupt frame): drop it the
                # way a real net stack drops an unparseable packet.
                self.junk_frames += 1
                return
            result = platform._execute(instance, name, payload)
            nic.send(
                make_frame(frame_src(frame), nic.mac,
                           _encode_response(rid, result)),
                pair=pair,
            )

        nic.on_receive(serve)
        self.servers_installed += 1

    # -- client side ----------------------------------------------------------

    def _on_response(self, frame: bytes) -> None:
        try:
            doc = json.loads(frame_payload(frame).decode())
            rid, result = doc["rid"], doc["r"]
        except (ValueError, KeyError, UnicodeDecodeError):
            self.junk_frames += 1
            return
        gate = self._gates.pop(rid, None)
        if gate is None:
            # The response lost its race against the timeout.
            self.stale_responses += 1
            return
        self._responses[rid] = result
        gate.set()

    def _timeout(self, rid: int) -> None:
        gate = self._gates.pop(rid, None)
        if gate is not None:
            self._responses[rid] = _TIMEOUT
            gate.set()

    def _net_execute(self, name: str, payload: dict) -> Callable:
        """The delegated execution leg for ``invoke_over_task``."""

        def execute(shard, instance):
            nic = instance.hypervisor.nics["net0"]
            rid = next(self._rid_counter)
            gate = Completion()
            self._gates[rid] = gate
            self.scheduler.after(
                self.REQUEST_TIMEOUT_NS,
                lambda rid=rid: self._timeout(rid),
                label="traffic:timeout",
            )
            self.client.transmit(
                make_frame(nic.mac, self.client.mac,
                           _encode_request(rid, name, payload))
            )
            yield gate
            return self._responses.pop(rid)

        return execute

    def request_task(self, name: str, payload: dict):
        """One end-to-end request (a generator task).

        Latency is recorded from arrival to response frame — admission
        wait, cold start, routing, fabric RTT and guest execution all
        included.  A timed-out request counts in the plane's
        ``timeouts`` counter and returns ``None`` without polluting the
        latency distribution.
        """
        clock = self.testbed.clock
        t0 = clock.now
        self._m_requests.inc()
        result = yield from self.fleet.invoke_over_task(
            name, self._net_execute(name, payload)
        )
        if result is _TIMEOUT:
            self._m_timeouts.inc()
            return None
        latency = clock.now - t0
        self.latencies_ns.append(latency)
        self._m_latency.observe(latency)
        self._m_completed.inc()
        return result

    # -- load generators ------------------------------------------------------

    def open_loop_task(self, names: List[str], requests: int,
                       interval_ns: int):
        """Fixed-rate arrivals, round-robin across ``names``.

        Requests are spawned as independent tasks (collected in
        ``self.tasks``): a slow response never holds back the next
        arrival — that is what makes the p999 under chaos honest.
        """
        for i in range(requests):
            task = self.scheduler.spawn(
                self.request_task(names[i % len(names)], {"i": i}),
                label=f"traffic:req{i}",
            )
            self.tasks.append(task)
            yield interval_ns

    def closed_loop_task(self, names: List[str], requests: int,
                         worker: int):
        """One closed-loop worker: next request after the last response."""
        results = []
        for i in range(requests):
            result = yield from self.request_task(
                names[(worker + i) % len(names)], {"w": worker, "i": i}
            )
            results.append(result)
        return results

    # -- chaos legs -----------------------------------------------------------

    def debug_attach_task(self, at_ns: int, rollback: bool = False):
        """The §6.5 debug path, mid-traffic (a generator task).

        Plants a synthetic lambda ERROR, then runs the log-driven VMSH
        attach against the hosting VM while requests keep flowing.
        With ``rollback=True`` a permanent fault is armed at the
        ``attach.install_dispatch`` step, so the attach rolls back —
        the guest must keep serving as if nothing happened.  An attached
        shell stays open for 50 ms.
        """
        clock = self.testbed.clock
        if at_ns > clock.now:
            yield at_ns - clock.now
        platform = self.fleet.shards[0].platform
        instance = next(
            (i for i in platform._instances.values() if not i.terminated),
            None,
        )
        if instance is None:
            self.attach_log.append("skipped:no-instance")
            return None
        platform._log(instance, "ERROR",
                      "traffic: synthetic fault for debug attach")
        debugger = ServerlessDebugger(platform)
        plan = None
        if rollback:
            plan = FaultPlan(
                [FaultSpec("attach.install_dispatch", kind=PERMANENT)],
                label=f"{self.label}:rollback",
            )
            self.testbed.host.faults.arm(plan)
        try:
            session = yield from debugger.debug_shell_task()
        except ReproError as err:
            self.attach_log.append(f"rolled-back:{type(err).__name__}")
            return None
        finally:
            if plan is not None:
                self.testbed.host.faults.disarm()
        self.attach_log.append("attached")
        yield 50 * MSEC
        session.close()
        self.attach_log.append("detached")
        return session

    def noisy_neighbor_task(self, at_ns: int, gap_ns: int = 25 * MSEC):
        """Flood the first live instance's ingress from a rogue port:
        four bursts of 128 1,400-byte frames, ``gap_ns`` apart.

        The fabric serializes the receiver's ingress, so the flood
        delays the victim's request/response frames — the tail the
        noisy-neighbor ablation measures.
        """
        clock = self.testbed.clock
        if at_ns > clock.now:
            yield at_ns - clock.now
        if self._flooder is None:
            self._flooder = self.fabric.attach(f"{self.label}-flooder")
        junk = b"\xa5" * 1400
        for _ in range(4):
            victim = self._victim_mac()
            if victim is not None:
                for _ in range(128):
                    self._flooder.transmit(
                        make_frame(victim, self._flooder.mac, junk)
                    )
                    self.flood_frames += 1
            yield gap_ns

    def _victim_mac(self) -> Optional[bytes]:
        live = self.fleet.live_instances()
        return live[0].hypervisor.nics["net0"].mac if live else None

    # -- results --------------------------------------------------------------

    def percentiles(self) -> Dict[str, int]:
        """Nearest-rank percentiles of end-to-end request latency."""
        return nearest_rank(self.latencies_ns, ("p50", "p90", "p99", "p999"))

    def summary(self) -> Dict[str, Any]:
        fabric = self.testbed.obs.metrics.scope("netfab", fabric="netfab")
        return {
            "requests": self._m_requests.value,
            "servers": self.servers_installed,
            "completed": self._m_completed.value,
            "timeouts": self._m_timeouts.value,
            "junk_frames": self.junk_frames,
            "flood_frames": self.flood_frames,
            "latency_ns": self.percentiles() if self.latencies_ns else None,
            "attach_log": list(self.attach_log),
            "fleet_invocations": self.fleet.total_invocations(),
            "fleet_throttled": self.fleet.total_throttled(),
            "fabric_delivered": fabric.counter("frames").value,
            "fabric_dropped": fabric.counter("dropped").value,
            "end_ns": self.testbed.clock.now,
        }


def _make_handler(index: int) -> Callable[[dict], dict]:
    def handler(payload: dict) -> dict:
        return {"fn": index, "echo": payload.get("i", payload.get("w", 0))}

    return handler


def run_traffic(
    seed: Optional[int] = None,
    functions: int = 8,
    shards: int = 2,
    requests: int = 160,
    mode: str = "open",
    interval_ns: int = 2 * MSEC,
    workers: int = 8,
    chaos: Tuple[str, ...] = ("attach", "rollback", "noisy"),
    nic_queue_pairs: int = 2,
    max_inflight_per_shard: Optional[int] = None,
    drop_rate: float = 0.0,
    cost_params: Any = None,
    on_testbed: Optional[Callable[[Any], None]] = None,
) -> Tuple[Testbed, TrafficPlane]:
    """The canonical traffic run: ≥``functions`` VMs serving over the
    fabric with the chaos legs riding mid-load.

    ``mode`` is ``"open"`` (fixed ``interval_ns`` arrivals) or
    ``"closed"`` (``workers`` concurrent loops, ``requests`` total).
    ``chaos`` selects any of ``"attach"`` (mid-traffic debug shell),
    ``"rollback"`` (the same attach failed + rolled back by an armed
    fault plan) and ``"noisy"`` (ingress flood on a victim VM).
    Deterministic per ``(seed, arguments)``.
    """
    if mode not in ("open", "closed"):
        raise ReproError(f"unknown traffic mode {mode!r}")
    tb = Testbed(seed=seed, cost_params=cost_params)
    if on_testbed is not None:
        on_testbed(tb)
    if drop_rate:
        tb.fabric(drop_rate=drop_rate)
    fleet = FleetControlPlane(
        tb,
        shards=shards,
        log_level="WARN",
        max_inflight_per_shard=max_inflight_per_shard,
        nic=True,
        nic_queue_pairs=nic_queue_pairs,
    )
    plane = TrafficPlane(tb, fleet)
    names = [f"fn-{i}" for i in range(functions)]
    for i, name in enumerate(names):
        fleet.deploy(name, _make_handler(i))
    fleet.start_autoscalers(tb.scheduler, period_ns=SEC)

    # Chaos legs fire relative to the expected load span so they land
    # mid-traffic for any sane argument combination.
    span_ns = requests * interval_ns if mode == "open" else 400 * MSEC
    legs = []
    if "attach" in chaos:
        legs.append(tb.scheduler.spawn(
            plane.debug_attach_task(at_ns=max(MSEC, span_ns // 4)),
            label="traffic:attach",
        ))
    if "rollback" in chaos:
        legs.append(tb.scheduler.spawn(
            plane.debug_attach_task(
                at_ns=max(2 * MSEC, span_ns // 2), rollback=True
            ),
            label="traffic:attach-rollback",
        ))
    if "noisy" in chaos:
        legs.append(tb.scheduler.spawn(
            plane.noisy_neighbor_task(
                at_ns=max(MSEC, span_ns // 3), gap_ns=max(MSEC, span_ns // 8)
            ),
            label="traffic:noisy",
        ))

    if mode == "open":
        pacer = tb.scheduler.spawn(
            plane.open_loop_task(names, requests, interval_ns),
            label="traffic:pacer",
        )
        tb.scheduler.run(pacer, *legs)
        if plane.tasks:
            tb.scheduler.run(*plane.tasks)
    else:
        per_worker = max(1, requests // max(1, workers))
        worker_tasks = [
            tb.scheduler.spawn(
                plane.closed_loop_task(names, per_worker, w),
                label=f"traffic:worker{w}",
            )
            for w in range(workers)
        ]
        tb.scheduler.run(*worker_tasks, *legs)
    fleet.stop_autoscalers()
    return tb, plane
