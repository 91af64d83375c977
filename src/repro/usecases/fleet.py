"""Sharded serverless control plane: vHive at 1,000-VM fleet scale.

One :class:`~repro.usecases.serverless.VHivePlatform` is a single
control loop: one autoscaler, one instance table, one host.  Pushing
the fleet three orders of magnitude means none of those can stay
global, so :class:`FleetControlPlane` shards the platform:

* **Per-shard platforms and autoscalers.**  Shard 0 lives on the
  testbed's primary host; every further shard gets its own simulated
  machine via :meth:`~repro.testbed.Testbed.add_host` — own pid
  namespace, own /dev/kvm — and its own idle-scale-down timer, so no
  single control loop ever scans the whole fleet.
* **Deterministic placement.**  A function's home shard is
  ``crc32(name) % shards`` (``zlib.crc32``, not ``hash()`` — Python
  randomizes the latter per process, which would break same-seed
  byte-identity), and every invocation of it runs there.
* **Admission control.**  Each shard caps in-flight invocations; over
  the cap, requests park FIFO on a :class:`Completion` and the slot is
  handed directly from a finishing invocation to the head waiter, so
  the cap is never transiently exceeded and wakeups are fair.  Queue
  wait counts toward the recorded end-to-end latency — that is what
  the p99 at saturation is made of.

An admitted request then runs the shard platform's own request loop,
:meth:`VHivePlatform.invoke_task`, so boot, restore, routing and
retries are charged in one place for every entry point.

Everything is driven by the discrete-event scheduler, so a 1,024-VM /
1M-invocation run is a pure function of the seed like every other run.
"""

from __future__ import annotations

import zlib
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import VmshError
from repro.sim.sched import Completion, PeriodicTimer, Scheduler
from repro.testbed import Testbed
from repro.units import SEC
from repro.usecases.serverless import LambdaInstance, VHivePlatform


#: nearest-rank percentile keys and the quantiles they name
_QUANTILES = {"p50": 0.50, "p90": 0.90, "p95": 0.95, "p99": 0.99, "p999": 0.999}


def nearest_rank(samples: List[int], keys=tuple(_QUANTILES)) -> Dict[str, int]:
    """Deterministic nearest-rank percentiles of ``samples``, one per
    key of ``keys`` (``"p50"`` ... ``"p999"``), plus their ``max``."""
    if not samples:
        raise VmshError("no latencies recorded")
    ordered = sorted(samples)
    n = len(ordered)
    ranks = {
        key: ordered[min(n - 1, max(0, int(_QUANTILES[key] * n) - 1))]
        for key in keys
    }
    ranks["max"] = ordered[-1]
    return ranks


class FleetShard:
    """One shard: a platform on its own host plus admission state."""

    def __init__(self, index: int, host, platform: VHivePlatform,
                 max_inflight: Optional[int], obs) -> None:
        self.index = index
        self.host = host
        self.platform = platform
        self.max_inflight = max_inflight
        self.inflight = 0
        self.waiters: Deque[Completion] = deque()
        scope = obs.metrics.scope("fleet", shard=index)
        self.m_invocations = scope.counter("invocations")
        self.m_throttled = scope.counter("throttled")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FleetShard({self.index}, inflight={self.inflight}, "
                f"queued={len(self.waiters)})")


class FleetControlPlane:
    """Shards `VHivePlatform` across simulated hosts with admission control."""

    def __init__(
        self,
        testbed: Testbed,
        shards: int = 1,
        snapshot_pool: bool = False,
        log_level: str = "INFO",
        max_inflight_per_shard: Optional[int] = None,
        nic: bool = False,
        nic_queue_pairs: int = 1,
    ) -> None:
        if shards < 1:
            raise VmshError("a fleet needs at least one shard")
        self.testbed = testbed
        self._clock = testbed.clock
        #: function -> home shard, filled by deploy() so the hot path
        #: never re-hashes names (the crc32 + encode per invocation was
        #: measurable at 1M invocations).
        self._routes: Dict[str, FleetShard] = {}
        #: end-to-end latency (admission wait included) of every
        #: completed invocation, in completion order.
        self.latencies_ns: List[int] = []
        self.shards: List[FleetShard] = []
        for index in range(shards):
            host = testbed.host if index == 0 else testbed.add_host()
            platform = VHivePlatform(
                testbed,
                snapshot_pool=snapshot_pool,
                host=host,
                log_level=log_level,
                nic=nic,
                nic_queue_pairs=nic_queue_pairs,
            )
            self.shards.append(
                FleetShard(index, host, platform,
                           max_inflight_per_shard, testbed.obs)
            )
        self._autoscalers: List[PeriodicTimer] = []

    # -- deployment / placement --------------------------------------------

    def deploy(self, name: str, handler: Callable[[dict], dict]) -> int:
        """Register ``handler`` on its home shard; returns the shard index."""
        home = self._home(name)
        self._routes[name] = shard = self.shards[home]
        shard.platform.deploy(name, handler)
        return home

    def _home(self, name: str) -> int:
        return zlib.crc32(name.encode()) % len(self.shards)

    def shard_for(self, name: str) -> FleetShard:
        """The home shard, where every invocation of ``name`` runs."""
        shard = self._routes.get(name)
        return shard if shard is not None else self.shards[self._home(name)]

    # -- invocation --------------------------------------------------------

    def invoke_task(self, name: str, payload: dict,
                    execute: Optional[Callable] = None):
        """Cooperative invocation through admission control (a generator).

        Parks FIFO when the home shard is at its in-flight cap; the
        finishing invocation hands its slot straight to the head
        waiter (the cap is a hard invariant, not a race).  The admitted
        request runs :meth:`VHivePlatform.invoke_task` on the shard.
        Returns the handler result, ``None`` on a logged lambda error.

        ``execute(shard, instance)``, a generator function, replaces
        the handler call (see :meth:`invoke_over_task`).
        """
        shard = self._routes.get(name)
        if shard is None:
            shard = self.shards[self._home(name)]
        clock = self._clock
        t0 = clock._now
        if (shard.max_inflight is not None
                and shard.inflight >= shard.max_inflight):
            shard.m_throttled.inc()
            gate = Completion()
            shard.waiters.append(gate)
            yield gate              # woken holding the handed-off slot
        else:
            shard.inflight += 1
        try:
            leg = None if execute is None else partial(execute, shard)
            result = yield from shard.platform.invoke_task(name, payload, leg)
        finally:
            waiters = shard.waiters
            if waiters:
                waiters.popleft().set()   # slot handoff, FIFO
            else:
                shard.inflight -= 1
        shard.m_invocations.inc()
        self.latencies_ns.append(clock._now - t0)
        return result

    def invoke_over_task(self, name: str, execute):
        """Cooperative invocation with a delegated execution leg.

        :meth:`invoke_task` with ``execute(shard, instance)`` (a
        generator function) performing the execution instead of the
        handler call.  The traffic plane uses this to push the request
        over the net fabric to the instance's NIC and park until the
        response frame makes it back, so queueing, serialization and
        noisy neighbors land in the recorded latency.
        """
        return self.invoke_task(name, None, execute)

    # -- fleet control loops -----------------------------------------------

    def start_autoscalers(self, scheduler: Scheduler,
                          period_ns: int = SEC) -> List[PeriodicTimer]:
        """One idle-scale-down timer per shard (no global fleet scan)."""
        if self._autoscalers:
            raise VmshError("fleet autoscalers are already running")
        self._autoscalers = [
            shard.platform.start_autoscaler(scheduler, period_ns=period_ns)
            for shard in self.shards
        ]
        return self._autoscalers

    def stop_autoscalers(self) -> None:
        for shard in self.shards:
            shard.platform.stop_autoscaler()
        self._autoscalers = []

    # -- introspection -----------------------------------------------------

    def live_instances(self) -> List[LambdaInstance]:
        return [i for s in self.shards for i in s.platform.live_instances()]

    def logs(self) -> list:
        """All shards' log lines merged in (time, shard) order."""
        merged = []
        for shard in self.shards:
            merged.extend(
                (line.time_ns, shard.index, line) for line in shard.platform.logs
            )
        merged.sort(key=lambda item: (item[0], item[1]))
        return [line for _, _, line in merged]

    def total_invocations(self) -> int:
        return sum(s.m_invocations.value for s in self.shards)

    def total_throttled(self) -> int:
        return sum(s.m_throttled.value for s in self.shards)

    def latency_percentiles(self) -> Dict[str, int]:
        """Nearest-rank percentiles over the recorded latencies."""
        return nearest_rank(self.latencies_ns)
