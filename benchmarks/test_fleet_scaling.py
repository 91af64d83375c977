"""Fleet scaling: concurrent VMs x interleaved attaches on the scheduler.

The discrete-event scheduler lets one simulation host a *fleet*: every
attached VM's virtqueues drain as a cooperative task and new attach
pipelines interleave with the running I/O at step granularity.  This
sweep measures what that buys and what it costs, on one shared virtual
timeline:

* aggregate fleet IOPS stays roughly flat as the fleet grows — the
  virtual host is a serial resource, so N VMs split it N ways and
  per-VM throughput falls accordingly (the density/latency trade);
* attach latency *stretches* with fleet size: the pipeline's steps now
  wait their turn between everyone else's queue servicing — the cost of
  attaching to a busy host, visible only with real interleaving;
* the Fig. 5 single-VM ordering is untouched: qemu-blk still beats
  vmsh-blk at depth 1, fleet machinery or not.
"""

import gc
import time

from conftest import write_report

from repro.bench.harness import make_env
from repro.bench.workloads.fio import FioJob, run_fio_blockdev
from repro.testbed import Testbed
from repro.units import KiB, MiB, SEC, SECTOR_SIZE
from repro.usecases.fleet import FleetControlPlane

SEED = 0x564D5348
FLEET_SIZES = (1, 2, 4, 8)
ATTACH_COUNTS = (1, 2)
SECTORS = 128                # per-VM: 128 writes + 128 reads, iodepth 4
FIO_BYTES = 1 * MiB

# Control-plane sweep (PR 8): one warm microVM per function, driven by
# per-function sequential invocation loops through sharded admission.
PLANE_FLEET_SIZES = (8, 64, 256, 1024)
PLANE_MAX_INFLIGHT = 8       # admission cap per shard
PLANE_VMS_PER_SHARD = 64     # shard count = ceil(fleet / this)


def _fleet_io(disk, fill, sectors):
    payload = bytes([fill & 0xFF]) * SECTOR_SIZE
    yield from disk.write_sectors_queued_task(
        [(i, payload) for i in range(sectors)]
    )
    data = yield from disk.read_sectors_queued_task(
        [(i, 1) for i in range(sectors)]
    )
    assert b"".join(data) == payload * sectors
    return len(data)


def fleet_point(fleet_size: int, attaches: int, sectors: int = SECTORS) -> dict:
    """One sweep point: a fleet of I/O VMs + N interleaved attaches."""
    tb = Testbed(seed=SEED)
    io_hvs = [tb.launch_qemu() for _ in range(fleet_size)]
    target_hvs = [tb.launch_qemu() for _ in range(attaches)]
    sessions = []
    for hv in io_hvs:
        session = tb.vmsh().attach(hv.pid)
        session.start_service(tb.scheduler)
        hv.guest.vmsh_block.set_iodepth(4)
        sessions.append(session)

    gc.collect()
    gc.freeze()                 # same GC regime as plane_point
    wall0 = time.perf_counter()
    t0 = tb.clock.now
    events0 = tb.scheduler.events_run
    io_done_ns = []
    attach_done_ns = []
    io_tasks = []
    for n, hv in enumerate(io_hvs):
        task = tb.scheduler.spawn(
            _fleet_io(hv.guest.vmsh_block, 0x10 + n, sectors),
            label=f"io-{n}",
        )
        task.add_done_callback(lambda _w: io_done_ns.append(tb.clock.now - t0))
        io_tasks.append(task)
    attach_tasks = []
    for n, hv in enumerate(target_hvs):
        task = tb.scheduler.spawn(
            tb.vmsh().attach_task(hv.pid), label=f"attach-{n}"
        )
        task.add_done_callback(
            lambda _w: attach_done_ns.append(tb.clock.now - t0)
        )
        attach_tasks.append(task)
    tb.scheduler.run(*io_tasks, *attach_tasks)
    wall_s = time.perf_counter() - wall0
    gc.unfreeze()
    elapsed_ns = tb.clock.now - t0

    for session in sessions:
        session.detach()
    io_ops = fleet_size * sectors * 2           # one op per sector, R+W
    io_window_ns = max(io_done_ns)              # when the fleet's I/O drained
    return {
        "fleet_size": fleet_size,
        "attaches": attaches,
        "elapsed_ns": elapsed_ns,
        "io_ops": io_ops,
        "io_window_ns": io_window_ns,
        "aggregate_iops": io_ops / io_window_ns * 1e9,
        "per_vm_iops": io_ops / fleet_size / io_window_ns * 1e9,
        "io_ops_per_s_wall": io_ops / wall_s,
        "attach_latency_ns_mean": sum(attach_done_ns) / len(attach_done_ns),
        "attach_latency_ns_max": max(attach_done_ns),
        "events_dispatched": tb.scheduler.events_run - events0,
    }


def fleet_sweep() -> dict:
    return {
        (fleet, attaches): fleet_point(fleet, attaches)
        for fleet in FLEET_SIZES
        for attaches in ATTACH_COUNTS
    }


def fig5_qd1_rows() -> dict:
    """Single-VM depth-1 baselines guarding the Fig. 5 ordering."""
    rows = {}
    for env_name in ("qemu-blk", "vmsh-blk-ioregionfd"):
        measurement = run_fio_blockdev(
            make_env(env_name, disk_size=32 * MiB),
            FioJob(block_size=4 * KiB, total_bytes=FIO_BYTES, pattern="seq",
                   direction="read", iodepth=1, name=f"{env_name}-qd1"),
        )
        rows[env_name] = {
            "iops": measurement.value,
            "latency_ns_per_req": measurement.elapsed_ns
            / measurement.detail["ops"],
        }
    return rows


def test_fleet_scaling(benchmark, results_dir):
    def run():
        return fleet_sweep(), fig5_qd1_rows()

    sweep, fig5 = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Fleet scaling: concurrent VMs x interleaved attaches",
        "(vmsh-blk queued I/O via per-session service tasks, iodepth 4)",
        "",
        f"{'fleet':>5}  {'attaches':>8}  {'agg IOPS':>10}  {'per-VM IOPS':>11}  "
        f"{'attach mean ms':>14}  {'events':>8}",
    ]
    for (fleet, attaches), row in sorted(sweep.items()):
        lines.append(
            f"{fleet:>5}  {attaches:>8}  {row['aggregate_iops']:>10.0f}  "
            f"{row['per_vm_iops']:>11.0f}  "
            f"{row['attach_latency_ns_mean'] / 1e6:>14.3f}  "
            f"{row['events_dispatched']:>8}"
        )
    contention = (sweep[(8, 2)]["attach_latency_ns_mean"]
                  / sweep[(8, 1)]["attach_latency_ns_mean"])
    lines += [
        "",
        f"attach-latency contention, 2 vs 1 attaches at fleet 8: "
        f"{contention:.2f}x",
        f"Fig. 5 qd1 ordering: qemu-blk {fig5['qemu-blk']['iops']:.0f} IOPS "
        f"vs vmsh-blk {fig5['vmsh-blk-ioregionfd']['iops']:.0f} IOPS",
    ]
    write_report(results_dir, "fleet_scaling", lines)

    # Per-VM throughput falls as the fleet splits the (serial) virtual
    # host — strictly monotone across the sweep.
    for attaches in ATTACH_COUNTS:
        per_vm = [sweep[(f, attaches)]["per_vm_iops"] for f in FLEET_SIZES]
        assert per_vm == sorted(per_vm, reverse=True)
    # The fixed attach cost amortises as the fleet grows, so aggregate
    # throughput rises with fleet size even on a serial virtual host.
    for attaches in ATTACH_COUNTS:
        agg = [sweep[(f, attaches)]["aggregate_iops"] for f in FLEET_SIZES]
        assert agg == sorted(agg)
    # Two attach pipelines contend: each one's steps wait out the
    # other's (and the fleet's I/O), so latency nearly doubles.
    for fleet in FLEET_SIZES:
        assert (sweep[(fleet, 2)]["attach_latency_ns_mean"]
                > 1.5 * sweep[(fleet, 1)]["attach_latency_ns_mean"])
        assert (sweep[(fleet, 2)]["elapsed_ns"]
                > sweep[(fleet, 1)]["elapsed_ns"])
    # Fleet machinery leaves the single-VM story intact (Fig. 5).
    assert fig5["qemu-blk"]["iops"] > fig5["vmsh-blk-ioregionfd"]["iops"]

    benchmark.extra_info["attach_contention_fleet8"] = round(contention, 2)


# -- sharded control plane (PR 8) ---------------------------------------------


def plane_point(
    fleet: int,
    invocations_per_fn: int,
    shards: int = 0,
    optimized: bool = True,
    ready_ring: bool = None,
    seed: int = SEED,
    max_inflight_per_shard: int = PLANE_MAX_INFLIGHT,
    wave_size: int = 8192,
) -> dict:
    """One control-plane sweep point: ``fleet`` functions (one warm
    microVM each), hit by bursts of individual invocation *tasks* —
    every request is its own scheduler task, admitted through the
    per-shard in-flight caps, exactly how a FaaS front end drives the
    plane.  Bursts are submitted round-major (fn-0..fn-N, repeat) in
    waves of ``wave_size`` so the 1M-invocation point stays bounded in
    memory; latency percentiles therefore measure burst queueing under
    admission control, not hand-tuned think times.

    ``optimized=False`` is the ablation bundle: legacy dispatch loop
    (per-event closure checks, per-event metric increments, and the
    O(waitables) completion re-scan in ``run()`` — the term that grows
    with every order of magnitude), full span recording, linear
    warm-instance scans, INFO logging.  With ``ready_ring=False`` both
    modes dispatch the *identical* virtual event sequence, so wall
    time is the only difference; the default optimized bundle also
    flips on the zero-delay ring (FIFO instead of seeded tie-breaks —
    different interleaving, same totals, still deterministic).
    """
    if shards <= 0:
        shards = max(1, (fleet + PLANE_VMS_PER_SHARD - 1) // PLANE_VMS_PER_SHARD)
    if ready_ring is None:
        ready_ring = optimized
    tb = Testbed(seed=seed, obs_level="fleet" if optimized else "full")
    tb.scheduler.fast = optimized
    if ready_ring:
        tb.scheduler.enable_ready_ring()
    plane = FleetControlPlane(
        tb,
        shards=shards,
        max_inflight_per_shard=max_inflight_per_shard,
        log_level="WARN" if optimized else "INFO",
        indexed=optimized,
    )
    names = [f"fn-{n}" for n in range(fleet)]
    for name in names:
        plane.deploy(name, lambda payload: {"ok": payload["n"]})
    plane.start_autoscalers(tb.scheduler, period_ns=SEC)
    sched = tb.scheduler

    # Warm-up burst: one invocation per function cold-boots its microVM
    # *outside* the measured window, so the measurement below is the
    # steady-state hot path (admission + routing + warm invoke) and the
    # events/sec numbers compare hot paths, not Firecracker boot cost.
    plane.record_latency = False
    warm = [
        sched.spawn(plane.invoke_task(name, {"n": -1}), label="warm")
        for name in names
    ]
    sched.run(*warm)
    assert all(t.result() == {"ok": -1} for t in warm)
    plane.record_latency = True
    warm_invocations = plane.total_invocations()
    warm_throttled = plane.total_throttled()

    # Identical GC regime for both ablation arms: the testbed graph
    # (1k VM object trees at the big point) is frozen out of the young
    # generations so collector sweeps don't rescan it every ~700
    # allocations mid-measurement.
    gc.collect()
    gc.freeze()
    wall0 = time.perf_counter()
    t0 = tb.clock.now
    events0 = sched.events_run
    total = fleet * invocations_per_fn
    submitted = 0
    while submitted < total:
        wave = [
            sched.spawn(plane.invoke_task(names[k % fleet], {"n": k}),
                        label="inv")
            for k in range(submitted, min(submitted + wave_size, total))
        ]
        submitted += len(wave)
        sched.run(*wave)
    plane.stop_autoscalers()
    wall_s = time.perf_counter() - wall0
    gc.unfreeze()
    elapsed_ns = tb.clock.now - t0
    events = sched.events_run - events0
    invocations = plane.total_invocations() - warm_invocations
    pct = plane.latency_percentiles()
    return {
        "fleet_size": fleet,
        "shards": shards,
        "invocations": invocations,
        "elapsed_ns": elapsed_ns,
        "virtual_end_ns": tb.clock.now,
        "events_dispatched": events,
        "wall_s": wall_s,
        "events_per_s_wall": events / wall_s,
        "invocations_per_s_wall": invocations / wall_s,
        "virtual_invocations_per_s": invocations / elapsed_ns * 1e9,
        "throttled": plane.total_throttled() - warm_throttled,
        "latency_ns": pct,
        "live_instances": len(plane.live_instances()),
    }


def sched_storm_point(optimized: bool = True, tasks: int = 64,
                      turns: int = 3000, seed: int = SEED) -> dict:
    """Scheduler saturation at fleet-64 concurrency: ``tasks``
    cooperative tasks each yielding ``turns`` times — the pure
    dispatch/observability hot path, no FaaS or I/O work diluting it.

    This isolates exactly what the PR's fast paths buy per event: the
    batched ring dispatch, suppressed turn spans, and batched counter
    flushes versus the legacy loop's per-event closure checks, span
    begin/end pairs and registry increments.  Both arms dispatch the
    same number of events.
    """
    tb = Testbed(seed=seed, obs_level="fleet" if optimized else "full")
    sched = tb.scheduler
    sched.fast = optimized
    if optimized:
        sched.enable_ready_ring()

    def worker():
        for _ in range(turns):
            yield

    handles = [sched.spawn(worker(), label=f"w{n}") for n in range(tasks)]
    gc.collect()
    gc.freeze()
    events0 = sched.events_run
    wall0 = time.perf_counter()
    sched.run(*handles, max_events=50_000_000)
    wall_s = time.perf_counter() - wall0
    gc.unfreeze()
    events = sched.events_run - events0
    return {
        "tasks": tasks,
        "turns": turns,
        "events_dispatched": events,
        "wall_s": wall_s,
        "events_per_s_wall": events / wall_s,
        "ns_per_event": wall_s * 1e9 / events,
    }


def test_plane_scaling(benchmark, results_dir):
    """Sharded control plane at fleet {8, 64}: admission percentiles,
    shard balance, and the optimized/ablation virtual equivalence."""

    def run():
        points = {
            fleet: plane_point(fleet, invocations_per_fn=16)
            for fleet in (8, 64)
        }
        # Equivalence pair: same arm structure, only the knob bundle
        # differs — the ring stays off so the seeded tie-break order
        # (and therefore the exact event sequence) is shared.
        noring = plane_point(8, invocations_per_fn=16, ready_ring=False)
        legacy = plane_point(8, invocations_per_fn=16, optimized=False)
        return points, noring, legacy

    points, noring, legacy = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Sharded control plane: functions x sequential invocation loops",
        f"(admission cap {PLANE_MAX_INFLIGHT}/shard, "
        f"{PLANE_VMS_PER_SHARD} VMs/shard)",
        "",
        f"{'fleet':>5}  {'shards':>6}  {'invocations':>11}  {'throttled':>9}  "
        f"{'p50 ms':>7}  {'p99 ms':>7}  {'events':>8}",
    ]
    for fleet, row in sorted(points.items()):
        lines.append(
            f"{fleet:>5}  {row['shards']:>6}  {row['invocations']:>11}  "
            f"{row['throttled']:>9}  {row['latency_ns']['p50'] / 1e6:>7.1f}  "
            f"{row['latency_ns']['p99'] / 1e6:>7.1f}  "
            f"{row['events_dispatched']:>8}"
        )
    write_report(results_dir, "plane_scaling", lines)

    for row in points.values():
        # Every driver loop finished and every function stayed warm.
        assert row["invocations"] == row["fleet_size"] * 16
        assert row["live_instances"] == row["fleet_size"]
        # Nearest-rank percentiles are ordered by construction; the
        # spread (queueing under the admission cap) must be real.
        p = row["latency_ns"]
        assert p["p50"] <= p["p90"] <= p["p95"] <= p["p99"] <= p["max"]
    # Fleet 64 runs 8x the functions through the same per-shard cap, so
    # admission actually queues and the tail stretches past the median.
    assert points[64]["throttled"] > 0
    assert points[64]["latency_ns"]["p99"] > points[64]["latency_ns"]["p50"]
    # The ablation bundle (legacy loop, full spans, linear scans, INFO
    # logs) must change nothing virtual: same end time, same event
    # sequence length, same recorded latencies.
    assert legacy["virtual_end_ns"] == noring["virtual_end_ns"]
    assert legacy["events_dispatched"] == noring["events_dispatched"]
    assert legacy["latency_ns"] == noring["latency_ns"]
    assert legacy["invocations"] == noring["invocations"]
    # The ready ring reorders zero-delay ties (FIFO instead of seeded
    # draws) but never changes the work done: same invocation count,
    # same warm fleet at the end.
    assert points[8]["invocations"] == noring["invocations"]
    assert points[8]["live_instances"] == noring["live_instances"]

    benchmark.extra_info["plane64_throttled"] = points[64]["throttled"]
