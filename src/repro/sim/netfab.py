"""NetFabric: a deterministic, scheduler-driven network between VMs.

The traffic plane (usecases/traffic.py) needs frames to take *time* —
otherwise tail latency under chaos degenerates into function-call
latency.  The fabric models each attached endpoint as a port on a
switch with:

* per-link one-way latency (a scheduler delay, not a clock charge, so
  many frames are in flight concurrently),
* serialization at both the sender's egress and the receiver's ingress
  (``bytes / link rate``); a flooding neighbor therefore queues behind
  itself *and* delays everyone else into the same port — which is what
  makes the noisy-neighbor chaos leg real,
* seed-derived random drops, from an RNG stream derived per fabric
  label so enabling drops never perturbs any other subsystem's stream.

Everything is deterministic per ``(master_seed, topology, workload)``:
delivery uses :meth:`Scheduler.at`, whose tie-breaking is itself
seed-derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import VmshError
from repro.sim.costs import CostModel
from repro.sim.rng import MASTER_SEED, stream
from repro.sim.sched import Scheduler
from repro.virtio.net import BROADCAST_MAC, MIN_FRAME_SIZE, frame_dst


@dataclass(frozen=True)
class LinkParams:
    """One direction of one link."""

    latency_ns: int
    bytes_per_us: int
    drop_rate: float = 0.0

    def serialization_ns(self, nbytes: int) -> int:
        return (nbytes * 1_000) // max(1, self.bytes_per_us)


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
    """A star-topology switch with per-direction link parameters."""

    def __init__(
        self,
        scheduler: Scheduler,
        costs: Optional[CostModel] = None,
        master_seed: int = MASTER_SEED,
        label: str = "netfab",
        latency_ns: Optional[int] = None,
        bytes_per_us: Optional[int] = None,
        drop_rate: float = 0.0,
    ):
        self.scheduler = scheduler
        self.costs = costs
        params = costs.p if costs is not None else None
        self.default = LinkParams(
            latency_ns=(
                latency_ns if latency_ns is not None
                else (params.net_link_latency_ns if params else 50_000)
            ),
            bytes_per_us=(
                bytes_per_us if bytes_per_us is not None
                else (params.net_link_bytes_per_us if params else 1_250)
            ),
            drop_rate=drop_rate,
        )
        self._ports: Dict[bytes, NetPort] = {}
        self._links: Dict[Tuple[bytes, bytes], LinkParams] = {}
        # (egress, ingress) serialization horizons per port, in ns.
        self._egress_busy: Dict[bytes, int] = {}
        self._ingress_busy: Dict[bytes, int] = {}
        self._rng = stream(f"{label}:drops", master_seed)
        self._mac_seq = 0
        obs = costs.obs if costs is not None else None
        if obs is not None:
            scope = obs.metrics.scope("netfab", fabric=label)
            self._m_frames = scope.counter("frames")
            self._m_bytes = scope.counter("bytes")
            self._m_dropped = scope.counter("dropped")
            self._m_unrouted = scope.counter("unrouted")
        else:
            self._m_frames = None
            self._m_bytes = None
            self._m_dropped = None
            self._m_unrouted = None
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_unrouted = 0

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

    def link(
        self,
        a: NetPort,
        b: NetPort,
        latency_ns: Optional[int] = None,
        bytes_per_us: Optional[int] = None,
        drop_rate: Optional[float] = None,
        symmetric: bool = True,
    ) -> None:
        """Override link parameters between two ports (else defaults)."""
        params = LinkParams(
            latency_ns=(
                latency_ns if latency_ns is not None else self.default.latency_ns
            ),
            bytes_per_us=(
                bytes_per_us if bytes_per_us is not None
                else self.default.bytes_per_us
            ),
            drop_rate=(
                drop_rate if drop_rate is not None else self.default.drop_rate
            ),
        )
        self._links[(a.mac, b.mac)] = params
        if symmetric:
            self._links[(b.mac, a.mac)] = params

    def _params(self, src: bytes, dst: bytes) -> LinkParams:
        return self._links.get((src, dst), self.default)

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
                self.frames_unrouted += 1
                if self._m_unrouted is not None:
                    self._m_unrouted.inc()
                return
            targets = [target]
        for target in targets:
            self._send_one(src_port, target, frame)

    def _send_one(self, src: NetPort, dst: NetPort, frame: bytes) -> None:
        params = self._params(src.mac, dst.mac)
        if params.drop_rate and self._rng.random() < params.drop_rate:
            self.frames_dropped += 1
            if self._m_dropped is not None:
                self._m_dropped.inc()
            return
        now = self.scheduler.now
        wire_ns = params.serialization_ns(len(frame))
        # Egress: the sender's NIC puts one frame on the wire at a time.
        depart = max(now, self._egress_busy[src.mac]) + wire_ns
        self._egress_busy[src.mac] = depart
        arrive = depart + params.latency_ns
        # Ingress: the receiver takes frames off the wire serially too —
        # this is where a flooding neighbor delays everyone else.
        deliver_at = max(arrive, self._ingress_busy[dst.mac]) + wire_ns
        self._ingress_busy[dst.mac] = deliver_at
        self.frames_delivered += 1
        if self._m_frames is not None:
            self._m_frames.inc()
            self._m_bytes.inc(len(frame))
        self.scheduler.at(
            deliver_at,
            lambda: dst._deliver(frame),
            label=f"netfab:{src.name}->{dst.name}",
        )
