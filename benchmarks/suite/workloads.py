"""The four workloads: set-up, timed phase and output checks.

Every workload turns ``(seed, seconds)`` into its inputs, builds its
environment in :meth:`Workload.setup` (the runner calls it several
times and keeps the last), and runs its operations in
:meth:`Workload.run`.  The program only ever sees the generated inputs
and is driven through public calls; no program setting is changed
except the workload properties each class names (shards, admission
cap, snapshot pool, NIC).

Latencies are virtual nanoseconds.  Serving workloads are open loops:
each request is timed from when it was due, so a stall of the
serial virtual host shows up in every request it delayed.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
import string
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.arch import arch_by_name
from repro.guestos.version import ALL_TESTED_VERSIONS, KernelVersion
from repro.hypervisors import (
    CloudHypervisor,
    Crosvm,
    Firecracker,
    Kvmtool,
    Qemu,
)
from repro.image.builder import build_admin_image
from repro.sim.sched import Completion
from repro.testbed import Testbed
from repro.units import MSEC, MiB, SEC
from repro.usecases.fleet import FleetControlPlane
from repro.usecases.traffic import TrafficPlane
from repro.virtio.net import frame_payload, make_frame

from measure import ns_to_ms, percentile, tail

SECTOR = 512
BLOCK = 4096


def rng_for(seed: int, label: str) -> random.Random:
    """An input stream per purpose, so one input never shifts another."""
    return random.Random(f"{seed:#x}:{label}")


@dataclass
class Outcome:
    """What a timed phase produced; the runner turns it into metrics."""

    #: operations attempted in the timed phase (the host-rate numerator)
    attempted: int = 0
    #: one line per failed output check, exception or timeout
    failures: List[str] = field(default_factory=list)
    #: virtual latency of each timed operation, ns
    latencies: List[int] = field(default_factory=list)
    #: operations completed per virtual second
    virt_ops_per_s: float = 0.0
    #: untimed warm-up operations run before the timed phase
    warmup_ops: int = 0
    #: workload-specific per-layer numbers (already in their units)
    detail: Dict[str, float] = field(default_factory=dict)
    #: per-request latency parts summed over requests, ns
    parts: Dict[str, int] = field(default_factory=dict)
    #: generator lag of each request, ns
    lags: List[int] = field(default_factory=list)
    #: human-readable notes (operating point, percentile chosen...)
    notes: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Base class: inputs from the seed, sizes from ``seconds``."""

    name = ""
    #: the highest percentile ``virt_tail_ms`` may report (the sample
    #: count may allow less)
    TAIL_CAP = 100.0

    def __init__(self, seed: int, seconds: float, smoke: bool, probe) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.probe = probe
        #: testbeds the latest :meth:`setup` created (the runner reads
        #: their registries and clocks around the timed phase)
        self.testbeds: List[Testbed] = []

    def size(self, per_second: float, smoke_value: int) -> int:
        """Operation count for this run: fixed for smoke runs, else
        proportional to ``--seconds``."""
        if self.smoke:
            return smoke_value
        return max(1, round(per_second * self.seconds))

    def testbed(self, **kwargs) -> Testbed:
        tb = Testbed(seed=self.seed, **kwargs)
        self.probe.watch(tb)
        self.testbeds.append(tb)
        return tb

    def setup(self):
        raise NotImplementedError

    def run(self, env) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# attach: the paper's headline operation across the generality matrix
# ---------------------------------------------------------------------------

ARCHES = ("x86_64", "arm64", "riscv64", "riscv64_sv48")
VMMS = (Qemu, Kvmtool, Firecracker, Crosvm, CloudHypervisor)
MMIO_MODES = ("ioregionfd", "wrap_syscall")
#: launch/attach settings a cell needs to be supported at all (Table 1:
#: Firecracker without its seccomp filter, Cloud Hypervisor over PCI)
LAUNCH_ARGS = {Firecracker: {"seccomp": False}}
ATTACH_ARGS = {CloudHypervisor: {"transport": "pci"}}
#: the first LTS kernel with a riscv port
RISCV_MIN_KERNEL = KernelVersion(4, 19)
TOKEN_ALPHABET = string.ascii_lowercase + string.digits
#: what each attach echoes on the guest console
ATTACH_ECHO = "ok"


def attach_cells():
    """The supported (arch, VMM, mmio_mode) cells of the E2 matrix."""
    cells = []
    for arch_name in ARCHES:
        arch = arch_by_name(arch_name)
        for vmm in VMMS:
            if arch.family not in vmm.SUPPORTED_ARCH_FAMILIES:
                continue
            for mode in MMIO_MODES:
                if mode == "ioregionfd" and not arch.ioregionfd_available:
                    continue
                cells.append((arch_name, vmm, mode))
    return cells


@dataclass
class AttachOp:
    arch: str
    vmm: type
    mode: str
    kernel: KernelVersion


class AttachWorkload(Workload):
    """attach -> ``echo ok`` on the console -> detach, each on a freshly
    launched VM, over every supported cell in seeded order.

    Which kernel a cell boots in which pass is fixed, so every seed
    runs the same operations; the seed only orders them.  Each arch's
    VMs share one simulated host, so a VM's pid — and with it the
    guest's KASLR slot, which the attach must scan for — depends on
    where the seeded order put it.
    """

    name = "attach"
    PASS_SECONDS = 6            # one pass over the cells per 6 s of run
    SMOKE_OPS = 20

    def plan(self) -> List[AttachOp]:
        rng = rng_for(self.seed, "attach")
        cells = attach_cells()
        passes = 1 if self.smoke else max(1, round(self.seconds / self.PASS_SECONDS))
        ops = []
        for step in range(passes):
            # Kernel versions rotate over cells and passes where the
            # arch allows.
            this_pass = []
            for index, (arch, vmm, mode) in enumerate(cells):
                kernels = [
                    v for v in ALL_TESTED_VERSIONS
                    if not arch.startswith("riscv") or v >= RISCV_MIN_KERNEL
                ]
                kernel = kernels[(index + step) % len(kernels)]
                this_pass.append(AttachOp(arch, vmm, mode, kernel))
            rng.shuffle(this_pass)
            ops += this_pass
        return ops[: self.SMOKE_OPS] if self.smoke else ops

    def setup(self):
        testbeds = {arch: self.testbed(arch=arch) for arch in ARCHES}
        warm = AttachOp("x86_64", Qemu, "ioregionfd", KernelVersion(5, 10))
        failures = self._one(testbeds, warm, self._launch(testbeds, warm), 0)[0]
        if failures:
            raise RuntimeError(f"warm-up attach failed: {failures}")
        plan = self.plan()
        vms = [self._launch(testbeds, op) for op in plan]
        return testbeds, plan, vms

    @staticmethod
    def _launch(testbeds, op: AttachOp):
        return testbeds[op.arch].launch(
            op.vmm, guest_version=op.kernel, **LAUNCH_ARGS.get(op.vmm, {})
        )

    def _one(self, testbeds, op: AttachOp, hv, index: int):
        """One timed operation; returns (failures, attach, cmd, total) ns."""
        tb = testbeds[op.arch]
        clock, probe = tb.clock, self.probe
        root = probe.begin(clock, "op", index, track="attach")
        span = probe.begin(clock, "vm.attach", index, root, track="attach")
        probe.set_parent(span)
        claimed = probe.attributed_ns()
        v0 = clock.now
        session = tb.vmsh().attach(
            hv.pid, mmio_mode=op.mode, **ATTACH_ARGS.get(op.vmm, {})
        )
        v1 = clock.now
        probe.end(span)
        probe.set_parent(None)
        failures = []
        if claimed is not None and probe.attributed_ns() - claimed != v1 - v0:
            failures.append(
                f"op {index}: virtual parts sum to "
                f"{probe.attributed_ns() - claimed} ns, attach took {v1 - v0} ns"
            )
        span = probe.begin(clock, "console.cmd", index, root, track="attach")
        result = session.console.run_command(f"echo {ATTACH_ECHO}")
        v2 = clock.now
        probe.end(span)
        span = probe.begin(clock, "vm.detach", index, root, track="attach")
        session.detach()
        v3 = clock.now
        probe.end(span)
        probe.end(root)
        if result.output != ATTACH_ECHO:
            failures.append(
                f"op {index}: console echoed {result.output!r}, "
                f"sent {ATTACH_ECHO!r}"
            )
        if session.mmio_mode != op.mode:
            failures.append(
                f"op {index}: attached over {session.mmio_mode}, asked {op.mode}"
            )
        return failures, v1 - v0, v2 - v1, v3 - v0

    def run(self, env) -> Outcome:
        testbeds, plan, vms = env
        out = Outcome(warmup_ops=1)
        cmd: List[int] = []
        busy = 0
        for index, (op, hv) in enumerate(zip(plan, vms)):
            out.attempted += 1
            try:
                failures, attach_ns, cmd_ns, total_ns = self._one(
                    testbeds, op, hv, index
                )
            except Exception as exc:  # noqa: BLE001 - count it, keep going
                out.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
                continue
            out.failures.extend(failures)
            if failures:
                continue
            out.latencies.append(attach_ns)
            cmd.append(cmd_ns)
            busy += total_ns
        out.virt_ops_per_s = len(out.latencies) / (busy / SEC) if busy else 0.0
        cmd.sort()
        if len(cmd) > 20:
            out.detail["attach.cmd_p50_ms"] = ns_to_ms(percentile(cmd, 50))
        return out


# ---------------------------------------------------------------------------
# blk: the vmsh-blk data path (Figs. 5-6)
# ---------------------------------------------------------------------------

@dataclass
class BlkEnv:
    testbed: Testbed
    disk: object
    first_block: int
    blocks: int


class BlkWorkload(Workload):
    """Seeded random 4 KiB writes, then read-back, on one vmsh-blk disk.

    Requests arrive open-loop as a Poisson process at :attr:`RATE_IOPS`,
    the way fio paces I/O with ``rate_iops`` and
    ``rate_process=poisson``.  Whenever the device is free the guest
    submits every request already due, up to :attr:`MAX_DEPTH`, as one
    queued window; when nothing is due, the generator waits on the
    virtual clock for the next arrival.  Each request is timed from its
    due time to the end of its window.  The synchronous driver cannot
    take a request while a window is in flight, so requests due during
    a window join the next one.  Closed-loop legs at depth 1 and 8 and
    a 256 KiB sequential leg at depth 2 follow.  Every byte read back
    is compared with what was written.  The synchronous driver API is
    used throughout: this workload never enters the scheduler.
    """

    name = "blk"
    #: a third of the device's closed-loop qd8 rate (59,892 IOPS) and
    #: 93 % of its qd1 rate (21,505 IOPS): served one at a time the
    #: requests would nearly saturate it, so batching keeps it stable
    RATE_IOPS = 20_000
    MAX_DEPTH = 8
    TAIL_CAP = 99.0
    OPS_PER_SECOND = 3_800
    SMOKE_OPS = 600
    QD1_OPS, QD8_OPS, SEQ_OPS = 256, 512, 32
    SEQ_BYTES = 256 * 1024

    def setup(self) -> BlkEnv:
        tb = self.testbed()
        hv = tb.launch_qemu()
        tb.vmsh().attach(
            hv.pid, mmio_mode="ioregionfd",
            image=build_admin_image(extra_space=32 * MiB),
        )
        disk = hv.guest.vmsh_block
        # Raw I/O stays in the upper half of the disk, clear of the
        # overlay file system the attach mounted from its lower part.
        total_blocks = disk.capacity_sectors * SECTOR // BLOCK
        first = total_blocks // 2
        return BlkEnv(tb, disk, first, total_blocks - first)

    def run(self, env: BlkEnv) -> Outcome:
        out = Outcome()
        rng = rng_for(self.seed, "blk")
        patterns = [rng.randbytes(BLOCK) for _ in range(64)]
        expected: Dict[int, bytes] = {}
        n = self.size(self.OPS_PER_SECOND, self.SMOKE_OPS)

        def data_for(block: int, serial: int) -> bytes:
            stamp = block.to_bytes(8, "little") + serial.to_bytes(8, "little")
            return stamp + patterns[serial % len(patterns)][16:]

        # Open loop: first half writes, second half reads back.
        clock = env.testbed.clock
        writes = n // 2
        start = due = clock.now
        requests = []
        for i in range(n):
            due += int(rng.expovariate(self.RATE_IOPS) * SEC)
            block = env.first_block + rng.randrange(env.blocks)
            requests.append((due, i < writes, block))
        # Reads target blocks the write phase actually wrote.
        written = sorted({b for _, w, b in requests if w})
        requests = [
            (d, w, b if w else written[rng.randrange(len(written))])
            for d, w, b in requests
        ]

        busy = 0
        depths: List[int] = []
        i = 0
        while i < n:
            if requests[i][0] > clock.now:
                # Nothing is due: the generator waits for the next arrival.
                with self.probe.claim("loadgen_idle"):
                    clock.advance(requests[i][0] - clock.now)
            j = i + 1
            while (j < n and j - i < self.MAX_DEPTH
                   and requests[j][0] <= clock.now
                   and requests[j][1] == requests[i][1]):
                j += 1
            batch = requests[i:j]
            v0 = clock.now
            span = self.probe.begin(clock, "blk.window", i, track="blk")
            try:
                self._window(env, batch, expected, data_for, out)
            except Exception as exc:  # noqa: BLE001 - count it, keep going
                out.failures.append(f"window at {i}: {type(exc).__name__}: {exc}")
            self.probe.end(span)
            out.latencies.extend(clock.now - d for d, _, _ in batch)
            out.attempted += len(batch)
            depths.append(len(batch))
            busy += clock.now - v0
            i = j
        out.virt_ops_per_s = n / (busy / SEC) if busy else 0.0
        out.detail["blk.window_depth_mean"] = sum(depths) / len(depths)
        out.notes["device_busy_share"] = round(busy / (clock.now - start), 4)

        # Closed-loop legs: fixed depth, back to back.
        qd1, qd8, seq = (
            (self.QD1_OPS, self.QD8_OPS, self.SEQ_OPS) if not self.smoke
            else (32, 64, 4)
        )
        out.detail["blk.iops_qd1"] = self._closed(env, 1, qd1, rng, expected,
                                                  data_for, out)
        out.detail["blk.iops_qd8"] = self._closed(env, 8, qd8, rng, expected,
                                                  data_for, out)
        out.detail["blk.seq_mib_s"] = self._sequential(env, seq, rng, out)
        out.notes["offered_iops"] = self.RATE_IOPS
        out.notes["closed_loop_iops_qd1_qd8"] = (round(out.detail["blk.iops_qd1"]),
                                                 round(out.detail["blk.iops_qd8"]))
        return out

    def _window(self, env, batch, expected, data_for, out) -> None:
        disk = env.disk
        disk.set_iodepth(len(batch))
        sectors = BLOCK // SECTOR
        if batch[0][1]:
            payloads = [(b * sectors, data_for(b, out.attempted + k))
                        for k, (_, _, b) in enumerate(batch)]
            disk.write_sectors_queued(payloads)
            for sector, data in payloads:
                expected[sector // sectors] = data
        else:
            got = disk.read_sectors_queued([(b * sectors, sectors)
                                            for _, _, b in batch])
            for (_, _, b), data in zip(batch, got):
                if data != expected.get(b):
                    out.failures.append(f"block {b}: read-back mismatch")

    def _closed(self, env, depth, n, rng, expected, data_for, out) -> float:
        """``n`` random 4 KiB writes then reads at a fixed depth; IOPS."""
        clock = env.testbed.clock
        blocks = [env.first_block + rng.randrange(env.blocks) for _ in range(n)]
        busy = 0
        for write in (True, False):
            for i in range(0, n, depth):
                batch = [(0, write, b) for b in blocks[i:i + depth]]
                v0 = clock.now
                try:
                    self._window(env, batch, expected, data_for, out)
                except Exception as exc:  # noqa: BLE001 - count it, keep going
                    out.failures.append(
                        f"qd{depth} window {i}: {type(exc).__name__}: {exc}"
                    )
                busy += clock.now - v0
                out.attempted += len(batch)
        return 2 * n / (busy / SEC)

    def _sequential(self, env, n, rng, out) -> float:
        """``n`` 256 KiB sequential writes then reads at depth 2; MiB/s."""
        disk, clock = env.disk, env.testbed.clock
        sectors = self.SEQ_BYTES // SECTOR
        base = env.first_block * (BLOCK // SECTOR)
        payloads = [(base + k * sectors, rng.randbytes(self.SEQ_BYTES))
                    for k in range(n)]
        disk.set_iodepth(2)
        busy = 0
        for i in range(0, n, 2):
            v0 = clock.now
            try:
                disk.write_sectors_queued(payloads[i:i + 2])
                got = disk.read_sectors_queued(
                    [(s, sectors) for s, _ in payloads[i:i + 2]]
                )
                for (s, data), back in zip(payloads[i:i + 2], got):
                    if back != data:
                        out.failures.append(f"sequential at {s}: mismatch")
            except Exception as exc:  # noqa: BLE001 - count it, keep going
                out.failures.append(f"sequential {i}: {type(exc).__name__}: {exc}")
            busy += clock.now - v0
            out.attempted += 2 * len(payloads[i:i + 2])
        return 2 * n * self.SEQ_BYTES / MiB / (busy / SEC)


# ---------------------------------------------------------------------------
# open-loop request generation shared by traffic and fleet
# ---------------------------------------------------------------------------

class Request:
    """One open-loop request and the virtual times it passed."""

    __slots__ = ("index", "due", "name", "payload", "expect", "t_run",
                 "t_exec", "t_done", "new_instance", "result", "error",
                 "h_run", "h_exec")

    def __init__(self, index, due, name, payload, expect):
        self.index = index
        self.due = due
        self.name = name
        self.payload = payload
        self.expect = expect
        self.t_run = self.t_exec = self.t_done = None
        self.h_run = self.h_exec = None
        self.new_instance = False
        self.result = None
        self.error = None


class OpenLoop:
    """Drives requests into a :class:`FleetControlPlane`, open loop.

    A pacer task sleeps until each request is due and spawns it; the
    request task then runs ``invoke(req)``, the workload's fleet call,
    whose execution leg calls :meth:`enter_exec` first thing.  Each
    request's latency is split into parts:

    * ``lag`` (measured): due time -> the request task first runs;
    * ``exec`` (measured): the execution leg starts -> the invoke returns;
    * ``coldstart`` (derived): the boot/restore delay the platform
      charges the request that brought a new instance up;
    * ``route`` (derived): the platform's routing delay;
    * ``admission`` (derived, the remainder): admission-queue wait plus
      any stall of the serial virtual host before the execute leg.

    The five parts sum exactly to the latency of every request.

    A new instance is registered before its boot delay has passed, so a
    concurrent request for the same function can reach it first and
    execute without waiting for the boot.  The request that paid the
    boot is therefore recognised by its delay, not by arriving first.
    """

    def __init__(self, tb: Testbed, probe, invoke: Callable,
                 boot_ns: int) -> None:
        self.clock = tb.clock
        self.sched = tb.scheduler
        self.probe = probe
        self.invoke = invoke
        self.route_ns = tb.costs.p.faas_route_ns
        self.boot_ns = boot_ns
        self._seen = set()
        #: requests whose task is running, by index
        self.live: Dict[int, Request] = {}
        self.outstanding = 0
        self._drained: Optional[Completion] = None

    #: the scheduler's runaway guard, raised to fit the longest phase
    MAX_EVENTS = 10 ** 9

    def enter_exec(self, req: Request, shard_index: int, instance_id: str) -> None:
        """Called first thing in every execution leg."""
        req.t_exec = self.clock._now
        if self.probe.traced:
            req.h_exec = time.perf_counter_ns()
        key = (shard_index, instance_id)
        if (key not in self._seen
                and req.t_exec - req.t_run >= self.route_ns + self.boot_ns):
            self._seen.add(key)
            req.new_instance = True

    def _task(self, req: Request, sink):
        clock = self.clock
        req.t_run = clock._now
        if self.probe.traced:
            req.h_run = time.perf_counter_ns()
        self.live[req.index] = req
        try:
            req.result = yield from self.invoke(req)
        except Exception as exc:  # noqa: BLE001 - count it, keep going
            req.error = f"{type(exc).__name__}: {exc}"
        del self.live[req.index]
        req.t_done = clock._now
        self.outstanding -= 1
        sink(req)
        if not self.outstanding and self._drained is not None:
            self._drained.set()

    def run(self, requests, sink, marks=()) -> Dict[int, int]:
        """Issue ``requests`` (an iterable, consumed lazily) and run
        until every one has finished; ``sink(req)`` sees each finished
        request.  Returns the backlog (issued, unfinished requests)
        right after each index in ``marks`` was issued."""
        backlog: Dict[int, int] = {}
        sched, clock = self.sched, self.clock
        self._drained = None

        def pacer():
            for req in requests:
                if req.due > clock._now:
                    yield req.due - clock._now
                self.outstanding += 1
                sched.spawn(self._task(req, sink), label="bench:req")
                if req.index in marks:
                    backlog[req.index] = self.outstanding

        sched.run(sched.spawn(pacer(), label="bench:pacer"),
                  max_events=self.MAX_EVENTS)
        if self.outstanding:
            self._drained = Completion()
            sched.run(self._drained, max_events=self.MAX_EVENTS)
        return backlog

    def parts(self, req: Request) -> Dict[str, int]:
        lag = req.t_run - req.due
        execute = req.t_done - req.t_exec
        boot = self.boot_ns if req.new_instance else 0
        admission = (req.t_exec - req.t_run) - self.route_ns - boot
        return {"lag": lag, "admission": admission, "coldstart": boot,
                "route": self.route_ns, "exec": execute}


class ServingWorkload(Workload):
    """Shared accounting for the two request-serving workloads."""

    def _collector(self, loop: OpenLoop, out: Outcome, record: bool):
        """A sink that checks each finished request and, when
        ``record``, adds it to the latency distribution and parts."""
        probe, clock = self.probe, loop.clock

        def sink(req: Request) -> None:
            if req.error is None and req.result != req.expect:
                req.error = f"result {req.result!r}, expected {req.expect!r}"
            if not record:
                if req.error is not None:
                    out.failures.append(f"warm-up {req.index}: {req.error}")
                return
            out.attempted += 1
            if req.error is not None:
                out.failures.append(f"request {req.index}: {req.error}")
                return
            parts = loop.parts(req)
            if parts["admission"] < 0:
                out.failures.append(
                    f"request {req.index}: latency parts do not sum "
                    f"(admission {parts['admission']} ns)"
                )
                return
            latency = req.t_done - req.due
            out.latencies.append(latency)
            out.lags.append(parts["lag"])
            for key, value in parts.items():
                out.parts[key] = out.parts.get(key, 0) + value
            if probe.traced:
                h_done = time.perf_counter_ns()
                root = probe.record(clock, "req", req.index, None, "requests",
                                    req.due, req.t_done, req.h_run, h_done)
                probe.record(clock, "req.lag", req.index, root, "requests",
                             req.due, req.t_run, req.h_run, req.h_run)
                probe.record(clock, "req.admit", req.index, root, "requests",
                             req.t_run, req.t_exec, req.h_run, req.h_exec)
                probe.record(clock, "req.exec", req.index, root, "requests",
                             req.t_exec, req.t_done, req.h_exec, h_done)

        return sink


# ---------------------------------------------------------------------------
# traffic: serving over vmsh-net with a debug attach under load (§6.5)
# ---------------------------------------------------------------------------

class NetClient:
    """The benchmark's own load-generator port on the net fabric.

    Requests use the guest request server's wire format (one JSON
    object per frame: ``rid``, ``fn``, ``p``; the reply carries ``rid``
    and ``r``).  A reply is matched to its request by ``rid``.
    """

    def __init__(self, tb: Testbed, timeout_ns: int) -> None:
        self.port = tb.fabric().attach("bench-client")
        self.port.connect(self._on_frame)
        self.sched = tb.scheduler
        self.timeout_ns = timeout_ns
        self._gates: Dict[int, Completion] = {}
        self._rids = itertools.count(1)
        self.stray = 0

    def _on_frame(self, frame: bytes) -> None:
        try:
            doc = json.loads(frame_payload(frame).decode())
            rid = doc["rid"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self.stray += 1
            return
        gate = self._gates.pop(rid, None)
        if gate is None:
            self.stray += 1
            return
        gate.set(doc)

    def call(self, mac: bytes, name: str, payload: dict):
        """Send one request frame and wait for its reply (a generator)."""
        rid = next(self._rids)
        gate = Completion()
        self._gates[rid] = gate
        timer = self.sched.after(
            self.timeout_ns, lambda: self._expire(rid), label="bench:timeout"
        )
        body = json.dumps({"rid": rid, "fn": name, "p": payload},
                          sort_keys=True).encode()
        self.port.transmit(make_frame(mac, self.port.mac, body))
        doc = yield gate
        timer.cancel()
        if doc is None:
            raise TimeoutError(f"no reply to rid {rid}")
        if doc.get("rid") != rid:
            raise ValueError(f"reply for rid {doc.get('rid')} to rid {rid}")
        return doc.get("r")

    def _expire(self, rid: int) -> None:
        gate = self._gates.pop(rid, None)
        if gate is not None:
            gate.set(None)


@dataclass
class ServingEnv:
    testbed: Testbed
    loop: OpenLoop
    names: List[str]
    plane: Optional[TrafficPlane] = None
    warmup_ops: int = 0


def _traffic_handler(index: int) -> Callable[[dict], dict]:
    def handler(payload: dict) -> dict:
        return {"fn": index, "echo": payload["tok"]}

    return handler


class TrafficWorkload(ServingWorkload):
    """Open-loop requests over vmsh-net to 8 functions on 2 shards.

    Requests arrive at a constant rate (one every ``1/rate``, as wrk2
    paces them), each to a seeded function with a seeded payload size,
    and are timed from when they were due.  A nominal phase at
    :attr:`NOMINAL_RPS` carries one debug attach that detaches and one
    that an armed fault rolls back, both mid-phase; their inline steps
    stall the serial virtual host, which is what its tail shows.  Then,
    chaos off, a fixed ladder of rates rising in 5 % steps from
    :attr:`LADDER_START_RPS`.  ``max_rps`` is where the tail first
    crossed :attr:`LIMIT_NS` (or the backlog grew), interpolated between
    the rung below and the rung that missed.  Every rung runs for every
    seed, so all seeds do the same work.
    """

    name = "traffic"
    FUNCTIONS, SHARDS, CAP = 8, 2, 8
    NOMINAL_RPS = 2_000
    #: three quarters of the fleet's capacity, 16 admission slots over
    #: the 3.114 ms a warm request holds one (5,138 rps); 10 rungs of
    #: 5 % reach 5,973 rps, past it
    LADDER_START_RPS = 3_850
    LADDER_STEP = 1.05
    LADDER_RUNGS = 10
    LIMIT_NS = 10 * MSEC
    TAIL_CAP = 99.0
    NOMINAL_PER_SECOND, STEP_PER_SECOND = 150, 250
    SMOKE_NOMINAL, SMOKE_STEP = 200, 300
    TOKEN_CHARS = 16

    def setup(self) -> ServingEnv:
        tb = self.testbed()
        fleet = FleetControlPlane(tb, shards=self.SHARDS, nic=True,
                                  max_inflight_per_shard=self.CAP)
        plane = TrafficPlane(tb, fleet)
        names = [f"fn-{i}" for i in range(self.FUNCTIONS)]
        for i, name in enumerate(names):
            fleet.deploy(name, _traffic_handler(i))
        fleet.start_autoscalers(tb.scheduler)
        client = NetClient(tb, TrafficPlane.REQUEST_TIMEOUT_NS)

        def invoke(req: Request):
            def leg(shard, instance):
                loop.enter_exec(req, shard.index, instance.instance_id)
                nic = instance.hypervisor.nics.get("net0")
                if nic is None:
                    raise ValueError(f"{instance.instance_id} has no NIC")
                result = yield from client.call(nic.mac, req.name, req.payload)
                return result
            return fleet.invoke_over_task(req.name, leg)

        loop = OpenLoop(tb, self.probe, invoke, tb.costs.p.faas_cold_start_ns)
        env = ServingEnv(tb, loop, names, plane)
        warm = Outcome()
        now = tb.clock.now
        loop.run((self._request(i, now, n, "warm") for i, n in enumerate(names)),
                 self._collector(loop, warm, record=False))
        if warm.failures:
            raise RuntimeError(f"warm-up failed: {warm.failures[:3]}")
        env.warmup_ops = len(names)
        return env

    def _request(self, index, due, name, tok) -> Request:
        fn = int(name.split("-")[1])
        return Request(index, due, name, {"tok": tok}, {"fn": fn, "echo": tok})

    def _arrivals(self, label: str, start: int, rate: float, n: int, names,
                  first: int = 0):
        """``n`` requests due one every ``1/rate`` after ``start``,
        numbered from ``first``, each to a seeded function with a seeded
        token of :attr:`TOKEN_CHARS` characters for the echo check."""
        rng = rng_for(self.seed, label)
        for k in range(n):
            yield self._request(first + k, start + round((k + 1) * SEC / rate),
                                names[rng.randrange(len(names))],
                                "".join(rng.choices(TOKEN_ALPHABET,
                                                    k=self.TOKEN_CHARS)))

    def run(self, env: ServingEnv) -> Outcome:
        tb, loop = env.testbed, env.loop
        out = Outcome(warmup_ops=env.warmup_ops)
        n_nominal = self.size(self.NOMINAL_PER_SECOND, self.SMOKE_NOMINAL)
        n_step = self.size(self.STEP_PER_SECOND, self.SMOKE_STEP)

        # Nominal phase with the two debug attaches riding mid-load.
        start = tb.clock.now + MSEC
        span_ns = int(n_nominal / self.NOMINAL_RPS * SEC)
        # The probe stops the attach-step timers while a leg is
        # suspended, so requests served meanwhile are not charged to it.
        legs = [
            tb.scheduler.spawn(self.probe.task(env.plane.debug_attach_task(
                at_ns=start + span_ns // 3)), label="bench:attach"),
            tb.scheduler.spawn(self.probe.task(env.plane.debug_attach_task(
                at_ns=start + 2 * span_ns // 3, rollback=True)),
                label="bench:attach-rollback"),
        ]
        loop.run(self._arrivals("traffic:nominal", start, self.NOMINAL_RPS,
                                n_nominal, env.names),
                 self._collector(loop, out, record=True))
        tb.scheduler.run(*legs)
        log = env.plane.attach_log
        if (log.count("attached") != 1 or log.count("detached") != 1
                or sum(e.startswith("rolled-back") for e in log) != 1):
            out.failures.append(f"debug attaches: {log}")

        # Rate ladder, chaos off.
        last_ok, max_rps = (0.0, 0), None
        for step in range(self.LADDER_RUNGS):
            rate = self.LADDER_START_RPS * self.LADDER_STEP ** step
            rung = Outcome()
            first = n_nominal + step * n_step
            marks = (first + n_step // 2 - 1, first + n_step - 1)
            backlog = loop.run(
                self._arrivals(f"traffic:ladder:{step}", tb.clock.now + MSEC,
                               rate, n_step, env.names, first),
                self._collector(loop, rung, record=True), marks=marks,
            )
            out.attempted += rung.attempted
            out.failures.extend(rung.failures)
            rung.latencies.sort()
            try:
                p_tail = tail(rung.latencies, cap=99.0)[1]
            except ValueError:          # too few requests succeeded
                p_tail = math.inf
            # A backlog within the fleet's admission slots is requests
            # in service, not a queue that grows.
            growing = backlog[marks[1]] > backlog[marks[0]] + self.SHARDS * self.CAP
            ok = not rung.failures and p_tail <= self.LIMIT_NS and not growing
            out.notes.setdefault("ladder", []).append(
                (round(rate), round(ns_to_ms(p_tail), 3), backlog[marks[0]],
                 backlog[marks[1]], "ok" if ok else "miss")
            )
            if max_rps is not None:
                continue
            if ok:
                last_ok = (rate, p_tail)
                continue
            lo_rate, lo_tail = last_ok
            if self.LIMIT_NS < p_tail < math.inf:
                frac = (self.LIMIT_NS - lo_tail) / (p_tail - lo_tail)
                max_rps = lo_rate + (rate - lo_rate) * frac
            else:
                max_rps = lo_rate
        if max_rps is None:
            out.failures.append("rate ladder never missed the limit")
            max_rps = last_ok[0]
        elif not last_ok[0]:
            out.failures.append("rate ladder missed the limit on its first rung")
        out.virt_ops_per_s = max_rps
        return out


# ---------------------------------------------------------------------------
# fleet: hundreds of microVMs behind a snapshot pool
# ---------------------------------------------------------------------------

class FleetWorkload(ServingWorkload):
    """Zipf-popular functions on a sharded fleet with the snapshot pool.

    Invocations arrive open-loop (Poisson, :attr:`RATE`) through
    ``FleetControlPlane.invoke_task``, the platform's own serving path.
    Idle functions are scaled down after the platform's idle timeout,
    so the long tail of unpopular functions is served by pool restores.
    """

    name = "fleet"
    FUNCTIONS, SHARDS, CAP = 512, 8, 8
    SMOKE_FUNCTIONS, SMOKE_SHARDS = 16, 2
    RATE, SMOKE_RATE = 5_000, 1_250
    ZIPF_S = 1.0
    TAIL_CAP = 99.9
    OPS_PER_SECOND = 2_500
    SMOKE_OPS = 2_000

    def setup(self) -> ServingEnv:
        functions = self.SMOKE_FUNCTIONS if self.smoke else self.FUNCTIONS
        shards = self.SMOKE_SHARDS if self.smoke else self.SHARDS
        tb = self.testbed()
        fleet = FleetControlPlane(tb, shards=shards, snapshot_pool=True,
                                  max_inflight_per_shard=self.CAP)
        # After the warm-up every function has a pool snapshot, so a
        # request landing on a new instance was served by a restore.
        loop = OpenLoop(tb, self.probe,
                        lambda req: fleet.invoke_task(req.name, req.payload),
                        tb.costs.p.faas_snapshot_restore_ns)
        names = [f"fn-{i}" for i in range(functions)]
        for i, name in enumerate(names):
            fleet.deploy(name, self._handler(i, fleet.shard_for(name), loop))
        fleet.start_autoscalers(tb.scheduler)
        env = ServingEnv(tb, loop, names)
        warm = Outcome()
        now = tb.clock.now
        loop.run((self._request(i, now, names, i, i) for i in range(functions)),
                 self._collector(loop, warm, record=False))
        if warm.failures:
            raise RuntimeError(f"warm-up failed: {warm.failures[:3]}")
        env.warmup_ops = len(names)
        return env

    @staticmethod
    def _handler(index: int, shard, loop: OpenLoop) -> Callable[[dict], dict]:
        """Function ``index``'s handler.  It reads which instance serves
        it from the platform's own log line for this invocation (the
        ``invoke`` line written just before the handler runs)."""
        logs = shard.platform.logs
        prefix = f"invoke fn-{index} "

        def handler(payload: dict) -> dict:
            line = logs[-1]
            if not line.message.startswith(prefix):
                raise ValueError(f"no invoke log line for fn-{index}")
            loop.enter_exec(loop.live[payload["rid"]], shard.index,
                            line.instance_id)
            return {"fn": index, "y": payload["x"] * 3 + index}

        return handler

    @staticmethod
    def _request(index: int, due: int, names, k: int, x: int) -> Request:
        return Request(index, due, names[k], {"rid": index, "x": x},
                       {"fn": k, "y": x * 3 + k})

    def _arrivals(self, start: int, n: int, names):
        rng = rng_for(self.seed, "fleet")
        rate = self.SMOKE_RATE if self.smoke else self.RATE
        cum = list(itertools.accumulate(
            1.0 / (k + 1) ** self.ZIPF_S for k in range(len(names))
        ))
        due = start
        for i in range(n):
            due += max(1, int(rng.expovariate(rate) * SEC))
            k = bisect.bisect(cum, rng.random() * cum[-1])
            yield self._request(i, due, names, k, rng.randrange(1 << 30))

    def run(self, env: ServingEnv) -> Outcome:
        tb, loop = env.testbed, env.loop
        out = Outcome(warmup_ops=env.warmup_ops)
        n = self.size(self.OPS_PER_SECOND, self.SMOKE_OPS)
        start = tb.clock.now + MSEC
        sink = self._collector(loop, out, record=True)
        last = [start]

        def track_end(req):
            sink(req)
            last[0] = max(last[0], req.t_done)

        loop.run(self._arrivals(start, n, env.names), track_end)
        window = last[0] - start
        out.virt_ops_per_s = len(out.latencies) / (window / SEC) if window else 0.0
        out.notes["offered_rps"] = self.SMOKE_RATE if self.smoke else self.RATE
        return out


WORKLOADS = {
    w.name: w for w in (AttachWorkload, BlkWorkload, TrafficWorkload,
                        FleetWorkload)
}
