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


def lone_attach_ns() -> int:
    """Virtual latency of one attach task on an idle host (same seed)."""
    tb = Testbed(seed=SEED)
    hv = tb.launch_qemu()
    t0 = tb.clock.now
    tb.scheduler.run(tb.scheduler.spawn(tb.vmsh().attach_task(hv.pid)))
    return tb.clock.now - t0


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
        return fleet_sweep(), fig5_qd1_rows(), lone_attach_ns()

    sweep, fig5, lone_ns = benchmark.pedantic(run, rounds=1, iterations=1)

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
    added_ns = {
        fleet: sweep[(fleet, 2)]["attach_latency_ns_mean"]
        - sweep[(fleet, 1)]["attach_latency_ns_mean"]
        for fleet in FLEET_SIZES
    }
    lines += [
        "",
        f"attach-latency contention, 2 vs 1 attaches at fleet 8: "
        f"{contention:.2f}x",
        f"a second attach adds {min(added_ns.values()) / 1e6:.3f}-"
        f"{max(added_ns.values()) / 1e6:.3f} ms to the mean; "
        f"a lone attach on an idle host takes {lone_ns / 1e6:.3f} ms",
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
    # other's, so a second interleaved attach adds at least half of a
    # lone attach's latency to the mean (the fleet's I/O adds to both).
    for fleet in FLEET_SIZES:
        assert added_ns[fleet] >= 0.5 * lone_ns
        assert (sweep[(fleet, 2)]["elapsed_ns"]
                > sweep[(fleet, 1)]["elapsed_ns"])
    # Fleet machinery leaves the single-VM story intact (Fig. 5).
    assert fig5["qemu-blk"]["iops"] > fig5["vmsh-blk-ioregionfd"]["iops"]

    benchmark.extra_info["attach_contention_fleet8"] = round(contention, 2)


# -- sharded control plane (PR 8) ---------------------------------------------


def plane_point(fleet: int, invocations_per_fn: int) -> dict:
    """One control-plane sweep point: ``fleet`` functions (one warm
    microVM each), hit by one burst of individual invocation *tasks* —
    every request is its own scheduler task, admitted through the
    per-shard in-flight caps, exactly how a FaaS front end drives the
    plane.  The burst is submitted round-major (fn-0..fn-N, repeat), so
    latency percentiles measure burst queueing under admission
    control, not hand-tuned think times.
    """
    shards = max(1, (fleet + PLANE_VMS_PER_SHARD - 1) // PLANE_VMS_PER_SHARD)
    tb = Testbed(seed=SEED)
    plane = FleetControlPlane(
        tb,
        shards=shards,
        max_inflight_per_shard=PLANE_MAX_INFLIGHT,
        log_level="WARN",
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
    warm = [
        sched.spawn(plane.invoke_task(name, {"n": -1}), label="warm")
        for name in names
    ]
    sched.run(*warm)
    assert all(t.result() == {"ok": -1} for t in warm)
    plane.latencies_ns.clear()
    warm_invocations = plane.total_invocations()
    warm_throttled = plane.total_throttled()

    # The testbed graph (1k VM object trees at the big point) is frozen
    # out of the young generations so collector sweeps don't rescan it
    # every ~700 allocations mid-measurement.
    gc.collect()
    gc.freeze()
    wall0 = time.perf_counter()
    t0 = tb.clock.now
    events0 = sched.events_run
    burst = [
        sched.spawn(plane.invoke_task(names[k % fleet], {"n": k}),
                    label="inv")
        for k in range(fleet * invocations_per_fn)
    ]
    sched.run(*burst)
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


def test_plane_scaling(benchmark, results_dir):
    """Sharded control plane at fleet {8, 64}: admission percentiles
    and shard balance."""

    def run():
        return {
            fleet: plane_point(fleet, invocations_per_fn=16)
            for fleet in (8, 64)
        }

    points = benchmark.pedantic(run, rounds=1, iterations=1)

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

    benchmark.extra_info["plane64_throttled"] = points[64]["throttled"]
