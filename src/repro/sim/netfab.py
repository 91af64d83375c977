"""NetFabric: a deterministic, scheduler-driven network between VMs.

The traffic plane (usecases/traffic.py) needs frames to take *time* —
otherwise tail latency under chaos degenerates into function-call
latency.  The fabric models each attached endpoint as a port on a
switch.  Every link has the same parameters, taken from the cost
model's ``CostParams``:

* one-way latency (a scheduler delay, not a clock charge, so many
  frames are in flight concurrently),
* serialization at both the sender's egress and the receiver's ingress
  (``bytes / link rate``); a flooding neighbor therefore queues behind
  itself *and* delays everyone else into the same port — which is what
  makes the noisy-neighbor chaos leg real,
* seed-derived random drops, from the fabric's own RNG stream
  (``netfab:drops``) so enabling drops never perturbs any other
  subsystem's stream.

Frames delivered, dropped and unrouted are counted in the registry's
``netfab`` counters, nowhere else.  A frame counts as delivered when it
arrives, and as unrouted when its destination port is not on the
fabric, at send or at arrival.  Everything is deterministic per
``(master_seed, topology, workload)``: delivery uses
:meth:`Scheduler.at`, whose tie-breaking is itself seed-derived.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import VmshError
from repro.sim.costs import CostModel
from repro.sim.rng import MASTER_SEED, stream
from repro.sim.sched import Scheduler
from repro.virtio.net import BROADCAST_MAC, MIN_FRAME_SIZE, frame_dst


class NetPort:
    """One endpoint's attachment to the fabric."""

    def __init__(self, fabric: "NetFabric", name: str, mac: bytes):
        self.fabric = fabric
        self.name = name
        self.mac = mac
        self._rx_sink: Optional[Callable[[bytes], None]] = None
        self.tx_frames = 0
        self.rx_frames = 0

    def connect(self, rx_sink: Callable[[bytes], None]) -> None:
        """Install the endpoint's receive path (``rx_sink(frame)``)."""
        self._rx_sink = rx_sink

    def transmit(self, frame: bytes, pair: int = 0) -> None:
        """Endpoint -> fabric (signature matches the device TX sink)."""
        self.tx_frames += 1
        self.fabric.transmit(self, frame)

    def _deliver(self, frame: bytes) -> None:
        self.rx_frames += 1
        if self._rx_sink is not None:
            self._rx_sink(frame)


class NetFabric:
    """A star-topology switch with one link configuration."""

    def __init__(
        self,
        scheduler: Scheduler,
        costs: CostModel,
        master_seed: int = MASTER_SEED,
        drop_rate: float = 0.0,
    ):
        self.scheduler = scheduler
        self.costs = costs
        self.latency_ns = costs.p.net_link_latency_ns
        self.bytes_per_us = costs.p.net_link_bytes_per_us
        self.drop_rate = drop_rate
        self._ports: Dict[bytes, NetPort] = {}
        # (egress, ingress) serialization horizons per port, in ns.
        self._egress_busy: Dict[bytes, int] = {}
        self._ingress_busy: Dict[bytes, int] = {}
        self._rng = stream("netfab:drops", master_seed)
        self._mac_seq = 0
        scope = costs.obs.metrics.scope("netfab", fabric="netfab")
        self._m_frames = scope.counter("frames")
        self._m_bytes = scope.counter("bytes")
        self._m_dropped = scope.counter("dropped")
        self._m_unrouted = scope.counter("unrouted")

    def serialization_ns(self, nbytes: int) -> int:
        return (nbytes * 1_000) // max(1, self.bytes_per_us)

    # -- topology -------------------------------------------------------------

    def alloc_mac(self) -> bytes:
        """A locally-administered MAC, unique per fabric."""
        self._mac_seq += 1
        return b"\x52\x54\x00" + self._mac_seq.to_bytes(3, "big")

    def attach(self, name: str, mac: Optional[bytes] = None) -> NetPort:
        if mac is None:
            mac = self.alloc_mac()
        if mac in self._ports:
            raise VmshError(f"netfab: MAC {mac.hex(':')} already attached")
        port = NetPort(self, name, mac)
        self._ports[mac] = port
        self._egress_busy[mac] = 0
        self._ingress_busy[mac] = 0
        return port

    def detach(self, port: NetPort) -> None:
        self._ports.pop(port.mac, None)
        self._egress_busy.pop(port.mac, None)
        self._ingress_busy.pop(port.mac, None)

    # -- data path ------------------------------------------------------------

    def transmit(self, src_port: NetPort, frame: bytes) -> None:
        if len(frame) < MIN_FRAME_SIZE:
            raise VmshError(f"netfab: runt frame ({len(frame)} bytes)")
        dst = frame_dst(frame)
        if dst == BROADCAST_MAC:
            targets = [p for m, p in self._ports.items() if m != src_port.mac]
        else:
            target = self._ports.get(dst)
            if target is None:
                self._m_unrouted.inc()
                return
            targets = [target]
        for target in targets:
            self._send_one(src_port, target, frame)

    def _send_one(self, src: NetPort, dst: NetPort, frame: bytes) -> None:
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self._m_dropped.inc()
            return
        now = self.scheduler.now
        wire_ns = self.serialization_ns(len(frame))
        # Egress: the sender's NIC puts one frame on the wire at a time.
        depart = max(now, self._egress_busy[src.mac]) + wire_ns
        self._egress_busy[src.mac] = depart
        arrive = depart + self.latency_ns
        # Ingress: the receiver takes frames off the wire serially too —
        # this is where a flooding neighbor delays everyone else.
        deliver_at = max(arrive, self._ingress_busy[dst.mac]) + wire_ns
        self._ingress_busy[dst.mac] = deliver_at
        self.scheduler.at(
            deliver_at,
            lambda: self._arrive(dst, frame),
            label=f"netfab:{src.name}->{dst.name}",
        )

    def _arrive(self, dst: NetPort, frame: bytes) -> None:
        if self._ports.get(dst.mac) is not dst:
            # The port left the fabric (its VM exited) while the frame
            # was on the wire: nothing is there to take it.
            self._m_unrouted.inc()
            return
        self._m_frames.inc()
        self._m_bytes.inc(len(frame))
        dst._deliver(frame)
