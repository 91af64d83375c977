"""CI perf-regression gate for the fleet hot paths.

Re-measures the fleet-64 gate points — the control-plane burst, the
I/O fleet, the pure scheduler dispatch storm and snapshot-pool clones —
on the one scheduler configuration every user path runs (the batched
dispatch loop, seeded tie-breaks, every span recorded) and compares
them against the committed baseline
(``benchmarks/results/PERF_BASELINE.json``):

* **Deterministic dimensions — exact.**  Virtual results are a pure
  function of the seed: the control-plane burst's event count, virtual
  end time and p99, and the I/O fleet's per-VM IOPS and event count
  must match the baseline bit for bit.  Any drift means the simulated
  execution changed — that is a correctness regression (or an
  intentional change: re-run with ``--update-baseline``).
* **Wall-clock dimension — tolerance band.**  Events-dispatched/sec of
  the control-plane burst and of the dispatch storm, and the I/O
  fleet's requests/sec (its 4,096 queued requests through the
  guest-memory data plane), must stay at or above ``WALL_TOLERANCE`` x
  the baseline machine's rate, and so must the clones/sec of a
  Firecracker snapshot on a host running the gate fleet (a clone loads
  the snapshot's serialized image; a deep copy of the VM graph runs at
  ~0.22x that rate).  The band is wide because CI boxes differ; what
  it catches is a hot path losing a multiple of its speed, such as
  per-event work leaking into the dispatch loop or clones falling back
  to deep copies.

The gate also runs the dispatch storm on a bare ``Scheduler()`` with no
observability hub and prints both storms' ns/event and their ratio:
what recording every turn costs.  The ratio is printed, not gated.
Next to it the gate prints the median wall time of an in-place
``restore_into`` of a Firecracker VM and of a QEMU VM with an attached
VMSH session, with the size of each captured image; restore is off
every suite workload, so both are printed, not gated.  Last it prints
the median wall time of ``parse_ksymtab`` over a flat buffer holding
the booted v5.10 kernel image, whose pages are mostly zero, and the
same image over a dense fill, with each buffer's count of live
(non-zero) pages; no suite workload parses a dense image, so this line
is where a regression on either side shows.  Printed, not gated.
After it an ``analyse:`` line prints two median wall times: the
attach's analysis, ``find_kernel`` plus ``parse_ksymtab`` through a
fresh gateway on a booted QEMU v5.10 VM, and one
``PhysicalMemory.read`` of a 2 MiB range with every page materialized.
That read copies every page, the dense side of a read that otherwise
copies only the pages memory holds; no suite workload runs it.  Also
printed, not gated.  Last a ``boot:`` line prints the median wall time
of a warm ``Testbed.launch_firecracker()``: the guest boot (kernel
image, page tables, root fs, init) plus the VMM's set-up.  The suite
boots its VMs in set-up, outside every timed phase, so its ``setup_s``
is where a slower boot shows; printed, not gated.

A key measured but missing from the baseline, or in the baseline but
no longer measured, fails the gate too, so no dimension goes unchecked.

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
WALL_TOLERANCE = 0.35    # wall rates >= 35% of the baseline rate
CLONES = 256             # clones timed at the clone point
RESTORES = 21            # restores timed per VM kind (printed only)
PARSES = 21              # ksymtab parses timed per image (printed only)
BOOTS = 21               # warm Firecracker launches timed (printed only)


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


def restore_point(rounds: int = RESTORES) -> dict:
    """Median wall ms of one silent ``restore_into`` and the captured
    image's size in KiB, per VM kind."""
    import statistics

    from repro.core.snapshot import VmSnapshot
    from repro.testbed import Testbed

    medians = {}
    for kind in ("firecracker", "qemu+session"):
        tb = Testbed()
        if kind == "firecracker":
            hv, session = tb.launch_firecracker(seccomp=False), None
        else:
            hv = tb.launch_qemu()
            session = tb.vmsh().attach(hv.pid)
        snap = VmSnapshot.capture(hv, session=session)
        walls = []
        for _ in range(rounds):
            wall0 = time.perf_counter()
            snap.restore_into(hv, session=session)
            walls.append(time.perf_counter() - wall0)
        medians[kind] = (statistics.median(walls) * 1e3, len(snap._image) / 1024)
    return medians


class _FlatGateway:
    """Virtual reads of a kernel image from a flat buffer at ``vbase``."""

    def __init__(self, image: bytes, vbase: int):
        self.image, self.vbase = image, vbase

    def read_virt(self, vaddr: int, length: int) -> bytes:
        return self.image[vaddr - self.vbase : vaddr - self.vbase + length]


def ksymtab_point(rounds: int = PARSES) -> dict:
    """Median wall ms of ``parse_ksymtab`` and the live-page count, for
    the booted v5.10 kernel image and for that image's live pages over
    a dense fill that holds no NUL and no identifier byte."""
    import statistics

    from repro.core.kaslr import KernelLocation
    from repro.core.ksymtab import PAGE_SIZE, parse_ksymtab
    from repro.guestos.version import KernelVersion
    from repro.testbed import Testbed

    hv = Testbed().launch_qemu(guest_version=KernelVersion(5, 10))
    kernel = hv.guest.image
    booted = hv.vm.guest_memory().read(kernel.pbase, kernel.size)
    live = [start for start in range(0, kernel.size, PAGE_SIZE)
            if booted.count(0, start, start + PAGE_SIZE) < PAGE_SIZE]
    dense = bytearray(bytes(range(0x80, 0x100)) * (kernel.size // 128))
    for start in live:
        dense[start : start + PAGE_SIZE] = booted[start : start + PAGE_SIZE]
    location = KernelLocation(kernel.vbase, kernel.vbase + kernel.size)
    points = {}
    for name, image, pages in (("booted", booted, len(live)),
                               ("dense", bytes(dense), kernel.size // PAGE_SIZE)):
        gateway = _FlatGateway(image, kernel.vbase)
        walls = []
        for _ in range(rounds):
            wall0 = time.perf_counter()
            parse_ksymtab(gateway, location)
            walls.append(time.perf_counter() - wall0)
        points[name] = (statistics.median(walls) * 1e3, pages)
    return points


def analyse_point(rounds: int = PARSES) -> dict:
    """Median wall ms of the attach's analysis, ``find_kernel`` plus
    ``parse_ksymtab`` through a fresh gateway each round on a booted
    QEMU v5.10 VM, and of one ``PhysicalMemory.read`` of a 2 MiB range
    whose every page is materialized."""
    import statistics

    from repro.core.gateway import GuestMemoryGateway
    from repro.core.kaslr import find_kernel
    from repro.core.ksymtab import parse_ksymtab
    from repro.guestos.version import KernelVersion
    from repro.host.ebpf import MemslotSnooper
    from repro.mem.physmem import PhysicalMemory
    from repro.testbed import Testbed
    from repro.units import MiB

    tb = Testbed()
    hv = tb.launch_qemu(guest_version=KernelVersion(5, 10))
    vmsh = tb.host.spawn_process("vmsh-gate")
    snooper = MemslotSnooper(tb.host, vmsh)
    snooper.attach()
    tb.host.syscall(hv.process.main_thread, "ioctl", hv.vm_fd, "KVM_CHECK_EXTENSION", "X")
    records = snooper.read_map()
    snooper.detach()
    analyse = []
    for _ in range(rounds):
        gateway = GuestMemoryGateway(tb.host, vmsh.main_thread, hv.pid, records)
        gateway.set_cr3(hv.guest.cr3)
        wall0 = time.perf_counter()
        with gateway.page_tables():
            parse_ksymtab(gateway, find_kernel(gateway))
        analyse.append(time.perf_counter() - wall0)
    memory = PhysicalMemory(4 * MiB)
    memory.write(0, bytes(range(256)) * (2 * MiB // 256))
    dense = []
    for _ in range(rounds):
        wall0 = time.perf_counter()
        memory.read(0, 2 * MiB)
        dense.append(time.perf_counter() - wall0)
    return {"analyse": statistics.median(analyse) * 1e3,
            "dense_read": statistics.median(dense) * 1e3}


def boot_point(rounds: int = BOOTS) -> float:
    """Median wall ms of a warm ``Testbed.launch_firecracker()``."""
    import statistics

    from repro.testbed import Testbed

    tb = Testbed()
    tb.launch_firecracker()             # first-launch imports and caches
    walls = []
    for _ in range(rounds):
        wall0 = time.perf_counter()
        tb.launch_firecracker()
        walls.append(time.perf_counter() - wall0)
    return statistics.median(walls) * 1e3


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
    bare = sched_storm_point(bare=True)
    clone = clone_point(GATE_FLEET, CLONES)
    # Printed, not gated: one pair of wall-clock runs is too noisy to
    # hold a ratio to.
    print(f"dispatch storm: {storm['ns_per_event']:.0f} ns/event with every "
          f"turn recorded, {bare['ns_per_event']:.0f} ns/event with no obs "
          f"(ratio {storm['ns_per_event'] / bare['ns_per_event']:.2f}x)")
    # An image that carries the overlay again shows up as its size.
    restore = restore_point()
    fc_ms, fc_kib = restore["firecracker"]
    qemu_ms, qemu_kib = restore["qemu+session"]
    print(f"restore: median {fc_ms:.2f} ms for a Firecracker VM "
          f"({fc_kib:.0f} KiB image), {qemu_ms:.2f} ms for a QEMU VM with an "
          f"attached session ({qemu_kib:.0f} KiB image)")
    # Printed, not gated: the parse scans live pages only, so a dense
    # image is its slow side.
    parse = ksymtab_point()
    print(f"ksymtab: median parse_ksymtab {parse['booted'][0]:.2f} ms on the "
          f"booted v5.10 image ({parse['booted'][1]} live pages), "
          f"{parse['dense'][0]:.2f} ms on it over a dense fill "
          f"({parse['dense'][1]} live pages)")
    # Printed, not gated: the suite's attach workload times the
    # analysis end to end, and no suite workload reads a dense 2 MiB
    # range, the page-crossing read's slow side.
    analyse = analyse_point()
    print(f"analyse: median find_kernel + parse_ksymtab {analyse['analyse']:.2f} ms "
          f"on a booted v5.10 VM, {analyse['dense_read']:.2f} ms for a 2 MiB "
          f"PhysicalMemory.read with every page materialized")
    # Printed, not gated: the suite times its boots only as set-up.
    print(f"boot: median {boot_point():.2f} ms for a warm "
          f"Testbed.launch_firecracker()")
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
    for dim in ("deterministic", "wall"):
        for key in sorted(current[dim].keys() ^ baseline[dim].keys()):
            side = "baseline" if key in baseline[dim] else "measurement"
            problems.append(
                f"{dim} key {key} is only in the {side} "
                f"(re-run with --update-baseline if intended)"
            )
    measured = current["deterministic"]
    for key, want in baseline["deterministic"].items():
        if key in measured and measured[key] != want:
            problems.append(
                f"deterministic regression: {key} = {measured[key]!r}, "
                f"baseline {want!r} (exact match required)"
            )
    for key, base_rate in baseline["wall"].items():
        floor = base_rate * WALL_TOLERANCE
        got_rate = current["wall"].get(key)
        if got_rate is not None and got_rate < floor:
            problems.append(
                f"wall regression: {key} {got_rate} below "
                f"{WALL_TOLERANCE:.2f}x baseline "
                f"({base_rate} -> floor {floor:.0f})"
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
