"""Recordable scenarios: the runs the recorder/replayer/fuzzer share.

Three scenarios, each a pure function of its JSON parameters:

* ``fleet`` — the canonical 8-VM observed fleet run (PR 5), optionally
  with a snapshot/restore mid-attach spliced in, used for the
  record/replay round-trip property.
* ``attach`` — one parameterised attach described by an
  :class:`AttachCase`: hypervisor flavor, transport, fault plan, quirk
  combination and (post-attach) hostile virtio driver behaviour.  This
  is the fuzzer's unit of execution; every case is a pure function of
  its JSON-serialisable description, which is what makes corpus
  entries replayable across processes.
* ``traffic`` — the end-to-end serverless run: a sharded fleet serving
  requests over vmsh-net and the fabric with the chaos legs mid-load.

A recording tapes the testbed's whole span stream, so a replay diffs
the data path (virtio windows), the scheduler (task turns) and the
serverless platform as well as the attach pipeline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RecordingError, ReproError, VirtioError
from repro.host.process import FileObject
from repro.replay.coverage import coverage_keys
from repro.replay.invariants import (
    DETACH_STABLE_KEYS,
    diff_fingerprints,
    state_fingerprint,
)
from repro.sim import rng as simrng
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.sched import SchedulerError
from repro.testbed import Testbed
from repro.virtio.constants import VRING_DESC_F_NEXT
from repro.virtio.vring import AVAIL_HEADER, DESC_SIZE

#: launch method + launch kwargs + attach kwargs per hypervisor flavor
#: (same shapes the chaos suite uses: Firecracker needs seccomp off
#: for a fault-free attach, Cloud Hypervisor needs the PCI transport).
FLAVORS: Dict[str, Tuple[str, Dict[str, Any], Dict[str, Any]]] = {
    "qemu": ("launch_qemu", {}, {}),
    "kvmtool": ("launch_kvmtool", {}, {}),
    "firecracker": ("launch_firecracker", {"seccomp": False}, {}),
    "crosvm": ("launch_crosvm", {}, {}),
    "cloud_hypervisor": ("launch_cloud_hypervisor", {}, {"transport": "pci"}),
    # riscv64 legs of the generality matrix: the same VMM rows on the
    # third ISA (attach runs in wrap_syscall mode — no ioregionfd on
    # riscv).  The guest arch rides in FLAVOR_ARCH so the AttachCase
    # JSON shape (and every committed corpus entry) stays unchanged.
    "qemu_riscv64": ("launch_qemu", {}, {}),
    "kvmtool_riscv64": ("launch_kvmtool", {}, {}),
}

#: guest architecture per flavor (absent = x86_64).
FLAVOR_ARCH: Dict[str, str] = {
    "qemu_riscv64": "riscv64",
    "kvmtool_riscv64": "riscv64",
}

#: hostile driver behaviours the abuse harness can exhibit post-attach
#: (``net_*`` kinds target the boot NIC's RX/TX rings; cases carrying
#: one launch their VM with a vmsh-net device attached)
VIRTIO_ABUSES = (
    "desc_loop",        # descriptor chain that links back to itself
    "desc_index",       # NEXT pointing outside the descriptor table
    "zero_len",         # zero-length descriptor
    "bad_gpa",          # buffer address in unmapped guest memory
    "bogus_used_event", # garbage EVENT_IDX suppression hint
    "net_tx_desc_loop", # self-linking descriptor on the TX ring
    "net_tx_bad_gpa",   # TX frame buffer in unmapped guest memory
    "net_rx_bad_dir",   # device-readable buffer posted on the RX ring
)


@dataclass(frozen=True)
class AttachCase:
    """A fuzz case: everything that determines one attach run."""

    seed: int = simrng.MASTER_SEED
    flavor: str = "qemu"
    ioregionfd: bool = True
    mmio_mode: str = "auto"
    event_idx: bool = True
    retries: int = 0
    specs: Tuple[Dict[str, Any], ...] = ()
    virtio_abuse: Optional[str] = None

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(
            [FaultSpec(**spec) for spec in self.specs],
            label=f"fuzz:{self.seed:#x}",
            master_seed=self.seed,
        )

    def has_site(self, site: str) -> bool:
        return any(spec["site"] == site for spec in self.specs)

    def to_json(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["specs"] = [dict(spec) for spec in self.specs]
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "AttachCase":
        doc = dict(doc)
        doc["specs"] = tuple(
            {str(k): v for k, v in spec.items()} for spec in doc.get("specs", ())
        )
        return cls(**doc)

    def describe(self) -> str:
        faults = ",".join(s["site"] for s in self.specs) or "none"
        abuse = self.virtio_abuse or "none"
        return (
            f"{self.flavor} seed={self.seed:#x} faults=[{faults}] "
            f"abuse={abuse} retries={self.retries}"
        )


@dataclass
class CaseResult:
    """What one executed case did, and what it violated."""

    outcome: str
    violations: List[str]
    coverage: Any            # frozenset of coverage keys
    testbed: Any = None

    @property
    def failed(self) -> bool:
        return bool(self.violations)


class _PlantedLeakFd(FileObject):
    """The seeded bug's leaked fd (see ``plant_bug``)."""

    proc_link = "anon_inode:[vmsh:planted-leak]"


def run_attach_case(
    case: AttachCase,
    on_testbed: Optional[Callable[[Any], None]] = None,
    plant_bug: bool = False,
    cost_params: Any = None,
) -> CaseResult:
    """Execute one case and check every invariant.

    Violations reported (each a coverage-stable string):

    * ``state-leak:<key>`` — guest/host state not bit-identical after a
      rolled-back attach (or the detach-stable subset after detach)
    * ``unhandled-exception:<type>`` — the pipeline escaped with a
      non-:class:`ReproError`
    * ``virtio-crash:<type>`` / ``guest-wedged:<...>`` — the device
      model mishandled hostile driver behaviour

    ``plant_bug`` arms the seeded bug the fuzz smoke job must
    rediscover: when an attach dies at ``attach.install_dispatch``
    while the ``quirk.ioregionfd_missing`` downgrade is armed, the
    rollback "forgets" one device fd in the VMSH process — a one-line
    leak of exactly the kind the fd-table invariant exists to catch.
    """
    launch_name, launch_kwargs, attach_kwargs = FLAVORS[case.flavor]
    tb = Testbed(ioregionfd=case.ioregionfd, seed=case.seed,
                 cost_params=cost_params,
                 arch=FLAVOR_ARCH.get(case.flavor, "x86_64"))
    if on_testbed is not None:
        on_testbed(tb)
    if case.virtio_abuse is not None and case.virtio_abuse.startswith("net_"):
        launch_kwargs = dict(launch_kwargs, nic=True)
    hv = getattr(tb, launch_name)(**launch_kwargs)
    vmsh = tb.vmsh()
    before = state_fingerprint(tb, hv, vmsh)

    violations: List[str] = []
    session = None
    error: Optional[BaseException] = None
    plan = case.fault_plan()
    if plan.specs:
        tb.host.faults.arm(plan)
    try:
        session = vmsh.attach(
            hv.pid,
            mmio_mode=case.mmio_mode,
            event_idx=case.event_idx,
            retries=case.retries,
            **attach_kwargs,
        )
    except ReproError as err:
        error = err
    except Exception as err:  # noqa: BLE001 - any other escape is a finding
        error = err
        violations.append(f"unhandled-exception:{type(err).__name__}")
    finally:
        tb.host.faults.disarm()

    if session is None:
        if (
            plant_bug
            and case.has_site("attach.install_dispatch")
            and case.has_site("quirk.ioregionfd_missing")
        ):
            vmsh.process.fds.install(_PlantedLeakFd())
        violations.extend(diff_fingerprints(before, state_fingerprint(tb, hv, vmsh)))
        outcome = f"failed:{type(error).__name__}"
    else:
        if case.virtio_abuse is not None:
            violations.extend(_virtio_abuse(hv, case.virtio_abuse))
        try:
            out = session.console.run_command(
                "cat /var/lib/vmsh/etc/hostname"
            ).output
            if out != "guest":
                violations.append("guest-wedged:console-output")
        except SchedulerError:  # the console never answered
            violations.append("guest-wedged:console-output")
        except Exception as err:  # noqa: BLE001 - liveness probe
            violations.append(f"guest-wedged:{type(err).__name__}")
        try:
            session.detach()
        except Exception as err:  # noqa: BLE001 - detach must not throw
            violations.append(f"unhandled-exception:detach:{type(err).__name__}")
        violations.extend(
            diff_fingerprints(
                before, state_fingerprint(tb, hv, vmsh), keys=DETACH_STABLE_KEYS
            )
        )
        outcome = "attached"
    return CaseResult(
        outcome=outcome,
        violations=violations,
        coverage=coverage_keys(tb, outcome=outcome),
        testbed=tb,
    )


def _write_desc(ring, index: int, addr: int, length: int,
                flags: int, nxt: int) -> None:
    """Scribble one descriptor into a driver ring's table in guest RAM."""
    mem = ring._mem
    base = ring.desc_gpa + index * DESC_SIZE
    mem.write_u64(base, addr)
    mem.write_u32(base + 8, length)
    mem.write_u16(base + 12, flags)
    mem.write_u16(base + 14, nxt)


def _publish(ring, head: int) -> None:
    """Put ``head`` on a driver ring's avail ring, bypassing its API."""
    mem = ring._mem
    slot = ring._avail_idx % ring.size
    mem.write_u16(ring.avail_gpa + AVAIL_HEADER + slot * 2, head)
    ring._avail_idx = (ring._avail_idx + 1) & 0xFFFF
    mem.write_u16(ring.avail_gpa + 2, ring._avail_idx)


def _virtio_abuse(hv: Any, kind: str) -> List[str]:
    """Behave like a hostile guest driver against the vmsh-blk queue.

    ``net_*`` kinds dispatch to :func:`_virtio_net_abuse` — same
    contract, against the boot NIC's RX/TX rings.

    Descriptors are scribbled straight into guest RAM (bypassing the
    well-behaved :class:`DriverRing` API) and the doorbell rung.  The
    device must reject the garbage with :class:`VirtioError` — anything
    else (another exception type, a hang-equivalent corruption of the
    queue) is a violation.  ``bogus_used_event`` must not raise at all:
    a garbage suppression hint may cost spurious interrupts, never
    correctness.
    """
    if kind.startswith("net_"):
        return _virtio_net_abuse(hv, kind)
    disk = getattr(hv.guest, "vmsh_block", None)
    if disk is None:
        return []
    ring = disk.ring
    violations: List[str] = []

    if kind == "bogus_used_event":
        if ring.event_idx:
            ring._mem.write_u16(ring.used_event_gpa, 0xBEEF)
        try:
            disk.write_sectors(0, b"\xa5" * 512)
            if disk.read_sectors(0, 1) != b"\xa5" * 512:
                violations.append("guest-wedged:blk-data")
        except Exception as err:  # noqa: BLE001 - must not raise at all
            violations.append(f"virtio-crash:{type(err).__name__}")
        return violations

    data_gpa = disk._data_gpa
    if kind == "desc_loop":
        _write_desc(ring, 0, data_gpa, 512, VRING_DESC_F_NEXT, 0)
    elif kind == "desc_index":
        _write_desc(ring, 0, data_gpa, 512, VRING_DESC_F_NEXT, ring.size + 7)
    elif kind == "zero_len":
        _write_desc(ring, 0, data_gpa, 0, 0, 0)
    elif kind == "bad_gpa":
        _write_desc(ring, 0, 0x7FFF_FFF0_0000, 512, 0, 0)
    else:
        raise RecordingError(f"unknown virtio abuse {kind!r}")
    _publish(ring, 0)
    try:
        disk.transport.notify(0)
        violations.append("virtio-crash:garbage-accepted")
    except VirtioError:
        pass                # the hardened parser rejected it: correct
    except Exception as err:  # noqa: BLE001 - wrong failure mode
        violations.append(f"virtio-crash:{type(err).__name__}")
    # The queue must survive the rejected garbage: real I/O afterwards.
    try:
        disk.write_sectors(1, b"\x5a" * 512)
        if disk.read_sectors(1, 1) != b"\x5a" * 512:
            violations.append("guest-wedged:blk-data")
    except Exception as err:  # noqa: BLE001 - liveness probe
        violations.append(f"guest-wedged:{type(err).__name__}")
    return violations


def _virtio_net_abuse(hv: Any, kind: str) -> List[str]:
    """Hostile descriptor abuse against the boot NIC's RX/TX rings.

    Same contract as the blk abuses: the device must reject scribbled
    descriptors with :class:`VirtioError` and the queue pair must keep
    moving real frames afterwards.
    """
    from repro.virtio.net import make_frame

    nic = getattr(hv.guest, "net_devices", {}).get("eth0")
    device = getattr(hv, "nics", {}).get("net0")
    if nic is None or device is None:
        return []
    violations: List[str] = []
    received: List[bytes] = []
    nic.on_receive(lambda frame, pair: received.append(frame))

    if kind == "net_rx_bad_dir":
        # Flip the next-to-be-used posted RX chain to device-READABLE:
        # the device must refuse to write an inbound frame through it.
        # (Single-descriptor chains, so head index == descriptor index.)
        head = device.posted_heads(0)[0]
        _write_desc(nic.rx_rings[0], head, nic._rx[0].base,
                    nic.RX_BUFFER_SIZE, 0, head)
        try:
            device.deliver(make_frame(device.mac, b"\x02" * 6, b"ping"))
            violations.append("virtio-crash:garbage-accepted")
        except VirtioError:
            pass
        except Exception as err:  # noqa: BLE001 - wrong failure mode
            violations.append(f"virtio-crash:{type(err).__name__}")
    else:
        tx_ring = nic.tx_rings[0]
        if kind == "net_tx_desc_loop":
            _write_desc(tx_ring, 0, nic._tx_gpa[0], 64, VRING_DESC_F_NEXT, 0)
        elif kind == "net_tx_bad_gpa":
            _write_desc(tx_ring, 0, 0x7FFF_FFF0_0000, 64, 0, 0)
        else:
            raise RecordingError(f"unknown virtio abuse {kind!r}")
        _publish(tx_ring, 0)
        try:
            nic.transport.notify(1)
            violations.append("virtio-crash:garbage-accepted")
        except VirtioError:
            pass                # the hardened parser rejected it: correct
        except Exception as err:  # noqa: BLE001 - wrong failure mode
            violations.append(f"virtio-crash:{type(err).__name__}")

    # Liveness: both directions must survive the rejected garbage.
    try:
        before_tx = device.frames_tx
        nic.send(make_frame(b"\xff" * 6, nic.mac, b"tx-probe"))
        if device.frames_tx != before_tx + 1:
            violations.append("guest-wedged:net-tx")
        device.deliver(make_frame(device.mac, b"\x02" * 6, b"rx-probe"))
        if not received or received[-1][12:] != b"rx-probe":
            violations.append("guest-wedged:net-rx")
    except SchedulerError:  # the probe frame never left the TX ring
        violations.append("guest-wedged:net-tx")
    except Exception as err:  # noqa: BLE001 - liveness probe
        violations.append(f"guest-wedged:{type(err).__name__}")
    return violations


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    outcome: str
    testbed: Any
    case_result: Optional[CaseResult] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _scenario_fleet(params, on_testbed, cost_params) -> ScenarioResult:
    from repro.bench.fleet_obs import run_observed_fleet

    tb = run_observed_fleet(
        seed=params.get("seed"),
        fleet_size=params.get("fleet_size", 8),
        on_testbed=on_testbed,
        snapshot_mid_attach=params.get("snapshot_mid_attach", False),
        cost_params=cost_params,
    )
    return ScenarioResult(outcome="ok", testbed=tb)


def _scenario_attach(params, on_testbed, cost_params) -> ScenarioResult:
    case = AttachCase.from_json(params["case"])
    result = run_attach_case(
        case,
        on_testbed=on_testbed,
        plant_bug=params.get("plant_bug", False),
        cost_params=cost_params,
    )
    return ScenarioResult(
        outcome=result.outcome,
        testbed=result.testbed,
        case_result=result,
        extra={"violations": result.violations},
    )


def _scenario_traffic(params, on_testbed, cost_params) -> ScenarioResult:
    from repro.usecases.traffic import run_traffic

    tb, plane = run_traffic(
        seed=params.get("seed"),
        functions=params.get("functions", 8),
        shards=params.get("shards", 2),
        requests=params.get("requests", 96),
        mode=params.get("mode", "open"),
        cost_params=cost_params,
        on_testbed=on_testbed,
    )
    return ScenarioResult(outcome="ok", testbed=tb, extra=plane.summary())


SCENARIOS = {
    "fleet": _scenario_fleet,
    "attach": _scenario_attach,
    "traffic": _scenario_traffic,
}


def run_scenario(
    name: str,
    params: Dict[str, Any],
    on_testbed: Optional[Callable[[Any], None]] = None,
    cost_params: Any = None,
) -> ScenarioResult:
    """Run a registered scenario; ``on_testbed`` fires at testbed birth
    (where recorders and replay comparators tap the span stream)."""
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise RecordingError(
            f"unknown scenario {name!r} (have: {', '.join(sorted(SCENARIOS))})"
        ) from None
    return runner(params, on_testbed, cost_params)
