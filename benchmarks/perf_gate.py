"""CI perf-regression gate for the fleet hot paths (PR 8).

Re-measures the fleet-64 gate points — the control-plane burst, the
I/O fleet, the pure scheduler dispatch storm and snapshot-pool clones —
and compares them against the committed baseline
(``benchmarks/results/PERF_BASELINE.json``):

* **Deterministic dimensions — exact.**  Virtual results are a pure
  function of the seed: the control-plane burst's event count, virtual
  end time and p99, and the I/O fleet's per-VM IOPS and event count
  must match the baseline bit for bit.  Any drift means the simulated
  execution changed — that is a correctness regression (or an
  intentional change: re-run with ``--update-baseline``).
* **Wall-clock dimension — tolerance band.**  Events-dispatched/sec of
  the optimized control-plane burst and of the dispatch storm, and the
  I/O fleet's requests/sec (its 4,096 queued requests through the
  guest-memory data plane), must stay at or above ``WALL_TOLERANCE`` x
  the baseline machine's rate, and so must the clones/sec of a
  Firecracker snapshot on a host running the gate fleet (a clone loads
  the snapshot's serialized image; a deep copy of the VM graph runs at
  ~0.22x that rate).  The band is wide because CI boxes differ; what
  it catches is the order-of-magnitude slip of accidentally shipping
  the unoptimized path (the ablation bundle runs ~3-6x slower, far
  below the band).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_gate.py
    PYTHONPATH=src python benchmarks/perf_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

BASELINE_PATH = pathlib.Path(__file__).parent / "results" / "PERF_BASELINE.json"

GATE_FLEET = 64          # every gate point runs at fleet 64
PLANE_INVOCATIONS_PER_FN = 64
IO_SECTORS = 32          # per-VM: 32 writes + 32 reads, iodepth 4
WALL_TOLERANCE = 0.35    # optimized events/s >= 35% of baseline rate
CLONES = 256             # clones timed at the clone point


def clone_point(fleet: int, clones: int) -> dict:
    """Snapshot-pool restores: ``clones`` clones of one Firecracker
    snapshot, on a host running ``fleet`` VMs."""
    from repro.testbed import Testbed

    tb = Testbed()
    for _ in range(fleet - 1):
        tb.launch_firecracker(seccomp=False)
    snap = tb.snapshot(tb.launch_firecracker(seccomp=False))
    tb.clone(snap, charge=False)     # warm-up outside the timed loop
    gc.collect()
    gc.freeze()                      # same GC regime as plane_point
    wall0 = time.perf_counter()
    for _ in range(clones):
        tb.clone(snap, charge=False)
    wall_s = time.perf_counter() - wall0
    gc.unfreeze()
    return {"clones_per_s_wall": clones / wall_s}


def measure() -> dict:
    from test_fleet_scaling import fleet_point, plane_point, sched_storm_point

    plane_point(8, 8)    # interpreter warm-up outside the gate numbers
    plane = plane_point(GATE_FLEET, PLANE_INVOCATIONS_PER_FN)
    io = fleet_point(GATE_FLEET, 1, sectors=IO_SECTORS)
    # The pure dispatch storm (PR 8): nothing but the scheduler +
    # observability hot path.  Guarded so a device-model or use-case
    # refactor that leaks per-event work into the dispatch loop shows
    # up here even when the diluted plane point absorbs it.
    storm = sched_storm_point()
    clone = clone_point(GATE_FLEET, CLONES)
    return {
        "gate_fleet": GATE_FLEET,
        "plane_invocations_per_fn": PLANE_INVOCATIONS_PER_FN,
        "io_sectors": IO_SECTORS,
        "deterministic": {
            "plane_events_dispatched": plane["events_dispatched"],
            "plane_virtual_end_ns": plane["virtual_end_ns"],
            "plane_p99_ns": plane["latency_ns"]["p99"],
            "plane_throttled": plane["throttled"],
            "io_per_vm_iops": round(io["per_vm_iops"], 4),
            "io_events_dispatched": io["events_dispatched"],
            "storm_events_dispatched": storm["events_dispatched"],
        },
        "wall": {
            "plane_events_per_s": round(plane["events_per_s_wall"]),
            "storm_events_per_s": round(storm["events_per_s_wall"]),
            "io_ops_per_s": round(io["io_ops_per_s_wall"]),
            "clones_per_s": round(clone["clones_per_s_wall"]),
        },
    }


def compare(current: dict, baseline: dict) -> list:
    problems = []
    for key, want in baseline["deterministic"].items():
        got = current["deterministic"].get(key)
        if got != want:
            problems.append(
                f"deterministic regression: {key} = {got!r}, "
                f"baseline {want!r} (exact match required)"
            )
    for key, base_rate in baseline["wall"].items():
        floor = base_rate * WALL_TOLERANCE
        got_rate = current["wall"].get(key, 0)
        if got_rate < floor:
            problems.append(
                f"wall regression: {key} {got_rate} below "
                f"{WALL_TOLERANCE:.2f}x baseline "
                f"({base_rate} -> floor {floor:.0f}) — did the fast "
                f"paths get disabled?"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="re-measure and overwrite the committed baseline",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=BASELINE_PATH,
        help="baseline path (default: benchmarks/results/PERF_BASELINE.json)",
    )
    args = parser.parse_args(argv)

    current = measure()
    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"perf gate: no baseline at {args.baseline}; "
              "run with --update-baseline first", file=sys.stderr)
        return 2
    baseline = json.loads(args.baseline.read_text())
    problems = compare(current, baseline)
    print(json.dumps(current, indent=2))
    if problems:
        for problem in problems:
            print(f"perf gate FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"perf gate OK: deterministic dimensions exact, "
          f"{current['wall']['plane_events_per_s']} ev/s >= "
          f"{WALL_TOLERANCE:.2f}x baseline "
          f"{baseline['wall']['plane_events_per_s']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
