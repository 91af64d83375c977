"""Command-line interface: drive the VMSH reproduction from a shell.

Examples::

    python -m repro demo
    python -m repro attach --hypervisor firecracker --no-seccomp -c "ls /"
    python -m repro generality
    python -m repro xfstests --quick
    python -m repro fio
    python -m repro phoronix
    python -m repro console-latency
    python -m repro debloat
    python -m repro snapshot
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.guestos.version import ALL_TESTED_VERSIONS, KernelVersion
from repro.hypervisors import (
    CloudHypervisor,
    Crosvm,
    Firecracker,
    Kvmtool,
    Qemu,
)
from repro.testbed import Testbed

HYPERVISORS = {
    "qemu": Qemu,
    "kvmtool": Kvmtool,
    "firecracker": Firecracker,
    "crosvm": Crosvm,
    "cloud-hypervisor": CloudHypervisor,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VMSH (EuroSys'22) reproduction on a simulated KVM stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="attach a shell to a QEMU guest")

    p_attach = sub.add_parser("attach", help="attach VMSH to a chosen hypervisor")
    p_attach.add_argument("--hypervisor", choices=sorted(HYPERVISORS), default="qemu")
    p_attach.add_argument("--kernel", default="v5.10", help="guest kernel (e.g. v4.19)")
    p_attach.add_argument("--transport", choices=("mmio", "pci", "auto"), default="mmio")
    p_attach.add_argument("--mmio-mode", choices=("auto", "ioregionfd", "wrap_syscall"),
                          default="auto")
    p_attach.add_argument("--no-seccomp", action="store_true",
                          help="disable Firecracker's seccomp filter")
    p_attach.add_argument("--seccomp-aware", action="store_true",
                          help="use the thread-picking injection heuristic")
    p_attach.add_argument("-c", "--commands", action="append", default=[],
                          help="command(s) to run on the console")

    p_trace = sub.add_parser(
        "trace",
        help="dump a Perfetto trace of an observed fleet run "
             "(load the file in ui.perfetto.dev)",
    )
    p_trace.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                         help="master seed (default: the repo's pinned seed)")
    p_trace.add_argument("--fleet", type=int, default=8,
                         help="number of VMs to launch (default 8)")
    p_trace.add_argument("--out", default="vmsh-trace.json",
                         help="output path (default vmsh-trace.json)")
    p_trace.add_argument("--validate", action="store_true",
                         help="check the output against the trace-event "
                              "schema; non-zero exit on problems")

    p_metrics = sub.add_parser(
        "metrics", help="dump the metrics registry of an observed fleet run"
    )
    p_metrics.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                           help="master seed (default: the repo's pinned seed)")
    p_metrics.add_argument("--fleet", type=int, default=8,
                           help="number of VMs to launch (default 8)")
    p_metrics.add_argument("--format", choices=("prom", "json"), default="prom",
                           help="Prometheus text or JSON snapshot")
    p_metrics.add_argument("--out", default=None,
                           help="output path (default: stdout)")

    sub.add_parser("generality", help="Table 1: hypervisor + kernel matrix")
    p_xfs = sub.add_parser("xfstests", help="E1: run the xfstests comparison")
    p_xfs.add_argument("--quick", action="store_true", help="every 8th test only")
    sub.add_parser("fio", help="E5: fio across device configurations")
    sub.add_parser("phoronix", help="E4: the Phoronix Disk suite comparison")
    sub.add_parser("console-latency", help="E6: console round-trip latency")
    sub.add_parser("debloat", help="E7: top-40 Docker image de-bloat")
    p_snap = sub.add_parser(
        "snapshot",
        help="snapshot-pool cold starts + VM capture/clone/migrate demo",
    )
    p_snap.add_argument(
        "--cycles", type=int, default=8,
        help="scale-to-zero churn cycles (default 8)",
    )

    p_traffic = sub.add_parser(
        "traffic",
        help="end-to-end serverless traffic over vmsh-net "
             "(fleet serving requests through the fabric, with chaos)",
    )
    p_traffic.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                           help="master seed (default: the repo's pinned seed)")
    p_traffic.add_argument("--functions", type=int, default=8,
                           help="functions to deploy (default 8)")
    p_traffic.add_argument("--shards", type=int, default=2,
                           help="control-plane shards (default 2)")
    p_traffic.add_argument("--requests", type=int, default=160,
                           help="requests to issue (default 160)")
    p_traffic.add_argument("--mode", choices=("open", "closed"), default="open",
                           help="open-loop paced or closed-loop workers")
    p_traffic.add_argument("--drop-rate", type=float, default=0.0,
                           help="fabric frame drop probability")
    p_traffic.add_argument("--no-chaos", action="store_true",
                           help="skip the mid-traffic attach / rollback / "
                                "noisy-neighbor legs")

    p_record = sub.add_parser(
        "record", help="record a full run to a replayable trace file"
    )
    p_record.add_argument("--scenario", choices=("fleet", "attach", "traffic"),
                          default="fleet")
    p_record.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                          help="master seed (default: the repo's pinned seed)")
    p_record.add_argument("--fleet", type=int, default=8,
                          help="fleet size for the fleet scenario")
    p_record.add_argument("--snapshot-mid-attach", action="store_true",
                          help="splice a snapshot/restore between two "
                               "ATTACH_STEPS (fleet scenario)")
    p_record.add_argument("--case", default=None,
                          help="JSON case file for the attach scenario")
    p_record.add_argument("--out", default="vmsh-run.json",
                          help="output recording (default vmsh-run.json)")

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a recording and cross-check it event by event",
    )
    p_replay.add_argument("recording", help="path to a recorded run")
    p_replay.add_argument("--until", type=int, default=None, metavar="EVENT",
                          help="stop at event N of the recorded span "
                               "stream and dump the span/metrics state "
                               "instead of comparing to the end")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided fuzzing of the attach pipeline "
             "(or --replay DIR to re-run a saved corpus)",
    )
    p_fuzz.add_argument("--cases", type=int, default=200,
                        help="number of cases to run (default 200)")
    p_fuzz.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="master seed (default: the repo's pinned seed)")
    p_fuzz.add_argument("--corpus-dir", default=None,
                        help="save shrunk failing cases here")
    p_fuzz.add_argument("--time-box", type=float, default=None, metavar="SEC",
                        help="stop after this much wall-clock time")
    p_fuzz.add_argument("--plant-bug", action="store_true",
                        help="arm the seeded invariant violation the smoke "
                             "job must rediscover")
    p_fuzz.add_argument("--require-planted", action="store_true",
                        help="exit non-zero unless the planted bug was "
                             "found AND no organic violations appeared")
    p_fuzz.add_argument("--replay", default=None, metavar="DIR",
                        help="replay every corpus entry in DIR instead of "
                             "fuzzing; exit non-zero if any fails to "
                             "reproduce")

    args = parser.parse_args(argv)
    handler = globals()[f"_cmd_{args.command.replace('-', '_')}"]
    return handler(args)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_demo(args: argparse.Namespace) -> int:
    testbed = Testbed()
    hv = testbed.launch_qemu()
    session = testbed.vmsh().attach(hv.pid)
    report = session.report
    print(f"attached to {hv.NAME} (pid {hv.pid})")
    print(f"  kernel {report.kernel_version} at {report.kernel_vbase:#x}, "
          f"ksymtab {report.ksymtab_layout}, dispatch {report.mmio_mode}")
    for command in ("ls /", "cat /var/lib/vmsh/etc/hostname", "ps"):
        result = session.console.run_command(command)
        print(f"$ {command}")
        for line in result.output.splitlines():
            print(f"  {line}")
    return 0


def _cmd_attach(args: argparse.Namespace) -> int:
    testbed = Testbed()
    cls = HYPERVISORS[args.hypervisor]
    kwargs = {}
    if cls is Firecracker:
        kwargs["seccomp"] = not args.no_seccomp
        if args.seccomp_aware:
            kwargs["vmsh_seccomp_profile"] = True
    try:
        version = KernelVersion.parse(args.kernel)
    except ValueError as exc:
        print(f"error: {exc} (expected e.g. v5.10)", file=sys.stderr)
        return 2
    hv = testbed.launch(cls, guest_version=version, **kwargs)
    try:
        session = testbed.vmsh().attach(
            hv.pid,
            mmio_mode=args.mmio_mode,
            transport=args.transport,
            seccomp_aware=args.seccomp_aware,
        )
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"attach failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report = session.report
    print(f"attached: kernel {report.kernel_version}, ksymtab {report.ksymtab_layout}, "
          f"transport {report.transport}, dispatch {report.mmio_mode}, "
          f"{report.attach_ns / 1e6:.2f} ms virtual")
    for command in args.commands or ["ls /"]:
        result = session.console.run_command(command)
        print(f"$ {command}")
        for line in result.output.splitlines():
            print(f"  {line}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.bench.fleet_obs import run_observed_fleet
    from repro.obs.export import validate_trace_events

    tb = run_observed_fleet(seed=args.seed, fleet_size=args.fleet)
    payload = tb.obs.perfetto_json()
    out = pathlib.Path(args.out)
    out.write_text(payload)
    recorder = tb.obs.spans
    print(f"wrote {out} ({len(payload)} bytes, {len(recorder)} spans "
          f"on {len(recorder.tracks())} tracks)")
    print("open it at https://ui.perfetto.dev (Open trace file)")
    if args.validate:
        problems = validate_trace_events(json.loads(payload))
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
        print("trace-event schema: ok")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.bench.fleet_obs import run_observed_fleet

    tb = run_observed_fleet(seed=args.seed, fleet_size=args.fleet)
    if args.format == "json":
        payload = tb.obs.metrics_json()
    else:
        payload = tb.obs.prometheus()
    if args.out is None:
        sys.stdout.write(payload)
    else:
        import pathlib

        out = pathlib.Path(args.out)
        out.write_text(payload)
        print(f"wrote {out} ({len(payload)} bytes, "
              f"{len(tb.obs.metrics_snapshot())} series)")
    return 0


def _cmd_generality(args: argparse.Namespace) -> int:
    from repro.errors import HypervisorNotSupportedError, SeccompViolationError

    print("hypervisors (Table 1):")
    for name, cls in sorted(HYPERVISORS.items()):
        testbed = Testbed()
        kwargs = {"seccomp": False} if cls is Firecracker else {}
        hv = testbed.launch(cls, **kwargs)
        try:
            testbed.vmsh().attach(hv.pid)
            print(f"  {name:18s} supported")
        except HypervisorNotSupportedError as exc:
            print(f"  {name:18s} unsupported ({exc})")
        except SeccompViolationError as exc:
            print(f"  {name:18s} blocked by seccomp ({exc})")
    print("kernels:")
    for version in ALL_TESTED_VERSIONS:
        testbed = Testbed()
        hv = testbed.launch_qemu(guest_version=version)
        session = testbed.vmsh().attach(hv.pid)
        print(f"  {str(version):8s} ksymtab={session.report.ksymtab_layout}")
    return 0


def _cmd_xfstests(args: argparse.Namespace) -> int:
    from repro.bench.xfstests_env import compare_environments

    results = compare_environments(quick=args.quick)
    for kind, res in results.items():
        passed, failed, skipped = res.counts
        print(f"{kind:10s} passed={passed} failed={failed} skipped={skipped} "
              f"{res.failed_ids()}")
    return 0


def _cmd_fio(args: argparse.Namespace) -> int:
    from repro.bench.harness import ENV_NAMES, make_env
    from repro.bench.workloads.fio import iops_job, run_fio, throughput_job
    from repro.units import MiB

    print(f"{'config':30s} {'tput MB/s':>10} {'IOPS':>10}")
    for name in ENV_NAMES:
        env = make_env(name, disk_size=256 * MiB)
        tput = run_fio(env, throughput_job("read"))
        env.drop_caches()
        iops = run_fio(env, iops_job("read"))
        print(f"{name:30s} {tput.value:10.1f} {iops.detail['iops']:10.0f}")
    return 0


def _cmd_phoronix(args: argparse.Namespace) -> int:
    from repro.bench.workloads.phoronix import average_slowdown, run_phoronix

    rows = run_phoronix()
    for row in sorted(rows, key=lambda r: -r.relative):
        print(f"{row.name:40s} {row.relative:5.2f}x")
    mean, std = average_slowdown(rows)
    print(f"\naverage {mean:.2f}x +- {std:.2f}  (paper: 1.5x +- 0.6)")
    return 0


def _cmd_console_latency(args: argparse.Namespace) -> int:
    from repro.bench.latency import run_console_comparison

    for result in run_console_comparison():
        print(f"{result.seat:14s} {result.mean_ms:6.3f} ms")
    return 0


def _cmd_debloat(args: argparse.Namespace) -> int:
    from repro.image.debloat import debloat_top40, summarize

    results = debloat_top40(Testbed())
    for r in sorted(results, key=lambda r: r.reduction):
        print(f"{r.image:14s} -{r.reduction * 100:5.1f}%  "
              f"({r.size_before >> 20} -> {r.size_after >> 20} MB)")
    stats = summarize(results)
    print(f"\nmean {stats['mean_reduction'] * 100:.1f}%  <10%: {stats['below_10pct']}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.units import MSEC, SEC
    from repro.usecases.serverless import VHivePlatform

    tb = Testbed()
    platform = VHivePlatform(tb, snapshot_pool=True)
    platform.deploy("resize", lambda p: {"ok": p["width"] * 2})
    latencies = []
    for cycle in range(args.cycles):
        t0 = tb.clock.now
        platform.invoke("resize", {"width": cycle})
        latencies.append(tb.clock.now - t0)
        tb.clock.advance(3 * SEC)
        platform.scale_down()
    hits, misses = tb.costs.count("faas_pool_hit"), tb.costs.count("faas_pool_miss")
    print(f"{'cycle':>5}  {'latency':>10}  path")
    for cycle, ns in enumerate(latencies):
        path = "cold boot + bake" if cycle == 0 else "pool restore"
        print(f"{cycle:>5}  {ns / MSEC:>8.2f}ms  {path}")
    steady = sum(latencies[1:]) / max(len(latencies) - 1, 1)
    print(f"\npool hit rate {hits}/{hits + misses}; steady-state "
          f"{steady / MSEC:.2f} ms vs {tb.costs.p.faas_cold_start_ns / MSEC:.0f} ms "
          f"cold start ({tb.costs.p.faas_cold_start_ns / steady:.1f}x)")

    hv = tb.launch_qemu()
    snap = tb.snapshot(hv)
    clone = tb.clone(snap)
    result = tb.migrate(clone)
    print(f"\nVM layer: captured pid {hv.pid} ({snap.pages} pages), "
          f"cloned to pid {clone.pid}, migrated to "
          f"pid {result.dest_pid} on host #{len(tb.hosts)}")
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from repro.units import MSEC
    from repro.usecases.traffic import run_traffic

    chaos = () if args.no_chaos else ("attach", "rollback", "noisy")
    tb, plane = run_traffic(
        seed=args.seed,
        functions=args.functions,
        shards=args.shards,
        requests=args.requests,
        mode=args.mode,
        drop_rate=args.drop_rate,
        chaos=chaos,
    )
    s = plane.summary()
    lat = s["latency_ns"]
    print(f"{s['requests']} requests over vmsh-net "
          f"({args.mode} loop, {args.shards} shards, "
          f"{s['servers']} guest servers)")
    print(f"  completed {s['completed']}  timeouts {s['timeouts']}")
    print(f"  latency p50 {lat['p50'] / MSEC:.2f} ms  "
          f"p99 {lat['p99'] / MSEC:.2f} ms  "
          f"p999 {lat['p999'] / MSEC:.2f} ms")
    print(f"  fabric: {s['fabric_delivered']} frames delivered, "
          f"{s['fabric_dropped']} dropped; "
          f"{s['junk_frames']} junk, {s['flood_frames']} flood")
    if s["attach_log"]:
        print(f"  chaos: {', '.join(s['attach_log'])}")
    print(f"  virtual time {s['end_ns'] / MSEC:.1f} ms")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.replay.recording import RunRecorder
    from repro.replay.scenarios import run_scenario

    if args.scenario == "fleet":
        params = {
            "seed": args.seed,
            "fleet_size": args.fleet,
            "snapshot_mid_attach": args.snapshot_mid_attach,
        }
    elif args.scenario == "traffic":
        params = {"seed": args.seed}
    else:
        if args.case is None:
            print("error: --scenario attach needs --case FILE", file=sys.stderr)
            return 2
        params = {"case": json.loads(pathlib.Path(args.case).read_text())}
    recorder = RunRecorder(args.scenario, params)
    result = run_scenario(args.scenario, params, on_testbed=recorder.attach)
    recording = recorder.finish(outcome=result.outcome)
    out = recording.save(args.out)
    print(f"wrote {out} ({len(recording.events)} span stream events, "
          f"clock end {recording.clock_end_ns} ns, "
          f"{recording.sched_turns} scheduler turns, "
          f"outcome {recording.outcome})")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.replay.recording import Recording
    from repro.replay.replayer import Replayer

    recording = Recording.load(args.recording)
    report = Replayer().replay(recording, until=args.until)
    if args.until is not None:
        if report.dump is None:
            print("replay ended before reaching the requested event",
                  file=sys.stderr)
            return 1
        dump = report.dump
        print(f"stopped at recorded event {dump['stopped_at']} "
              f"(t={dump['time_ns']}ns, scheduler turn {dump['sched_turn']})")
        print(f"open spans: {', '.join(dump['open_spans']) or 'none'}")
        print(f"open attach steps: {', '.join(dump['open_steps']) or 'none'}")
        print("recent events:")
        for event in dump["recent_events"]:
            print(f"  {event}")
        print("metrics:")
        print(json.dumps(dump["metrics"], indent=1, sort_keys=True))
        return 0
    if report.matched:
        print(f"replay matched: {report.events_checked} span stream events "
              f"identical, clock end {recording.clock_end_ns} ns, "
              f"{recording.sched_turns} scheduler turns "
              f"(outcome {report.outcome})")
        return 0
    print(report.divergence.describe(), file=sys.stderr)
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.replay.corpus import load_entries, replay_entry
    from repro.replay.fuzzer import AttachFuzzer
    from repro.sim import rng as simrng

    if args.replay is not None:
        entries = load_entries(args.replay)
        if not entries:
            print(f"no corpus entries under {args.replay}", file=sys.stderr)
            return 1
        failed = 0
        for path, entry in entries:
            verdict = replay_entry(entry)
            status = "reproduced" if verdict["reproduced"] else "LOST"
            print(f"{path.name}: {status} "
                  f"(expected {verdict['expected']}, "
                  f"observed {verdict['observed']})")
            if not verdict["reproduced"]:
                failed += 1
        print(f"{len(entries) - failed}/{len(entries)} entries reproduced")
        return 1 if failed else 0

    seed = simrng.MASTER_SEED if args.seed is None else args.seed
    fuzzer = AttachFuzzer(
        master_seed=seed,
        corpus_dir=args.corpus_dir,
        plant_bug=args.plant_bug,
        log=print,
    )
    report = fuzzer.run(args.cases, time_box_s=args.time_box)
    print(f"{report.cases_run} cases in {report.elapsed_s:.1f}s "
          f"({report.cases_per_s:.1f}/s), "
          f"{len(report.coverage)} coverage keys, "
          f"{report.interesting} coverage-novel cases, "
          f"{len(report.failures)} violations")
    for failure in report.failures:
        print(f"  {failure.describe()}")
        if failure.corpus_path:
            print(f"    saved: {failure.corpus_path}")
    organic = [f for f in report.failures if not f.requires_plant]
    if args.require_planted:
        if not report.found_planted:
            print("FAIL: the planted invariant violation was not rediscovered",
                  file=sys.stderr)
            return 1
        if organic:
            print("FAIL: organic (non-planted) violations found",
                  file=sys.stderr)
            return 1
        return 0
    return 1 if organic else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
