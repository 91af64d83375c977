"""One benchmark for the VMSH reproduction: four workloads, two clocks.

Usage, from the root of the repository::

    python3 benchmarks/suite/run.py [--workload W] [--seed S]
                                    [--seconds N] [--trace [0|1]] [--smoke]

Each workload runs in a fresh child process, one at a time, with
``PYTHONHASHSEED=0``.  The child builds the workload's environment
several times (``setup_s`` is the median; once under ``--trace 1``,
which reports no set-up time), freezes the garbage collector, then
runs the timed phase and checks every output.

Two clocks are reported.  *Virtual* metrics (``virt_*``) are the
modelled system's time: a pure function of the seed.  *Host* metrics
are how fast the simulator itself runs.  ``--trace 1`` runs the
workload untraced, then again traced, and prints the per-layer metrics
plus the tracing overhead; end-to-end numbers always come from the
untraced run, and the two runs must agree on every virtual number.

Every metric is printed by name with its unit and sample count; the
last line of standard output is one JSON object.  The exit status is
non-zero when an output check failed or a metric named in
``BENCHMARK.json`` was not produced.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 0x564D5348  # "VMSH"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 600


# ---------------------------------------------------------------------------
# child: one workload in this process
# ---------------------------------------------------------------------------

def _child(args) -> int:
    sys.path[:0] = [SRC, HERE]
    from measure import (
        HostMeter, counter_totals, delta, ns_to_ms, percentile, ratio, tail,
    )
    from tracing import LAYERS, UNCLAIMED, VIRT_METHODS, NullProbe, TraceProbe
    from workloads import WORKLOADS

    from repro.core.vmsh import ATTACH_STEPS

    probe = TraceProbe() if args.traced else NullProbe()
    workload = WORKLOADS[args.child](args.seed, args.seconds, args.smoke, probe)

    rescale = not args.traced
    setups = []
    env = None
    for _ in range(args.setups):
        env = None
        workload.testbeds = []
        gc.collect()
        with HostMeter(rescale) as meter:
            env = workload.setup()
        setups.append(meter)
    gc.collect()
    gc.freeze()

    testbeds = workload.testbeds
    registries = [tb.obs.metrics for tb in testbeds]
    counts0 = counter_totals(registries)
    clocks0 = sum(tb.clock.now for tb in testbeds)
    dropped0 = sum(tb.obs.spans.dropped_spans for tb in testbeds)
    with probe.timed(), HostMeter(rescale) as meter:
        outcome = workload.run(env)
    counts = delta(counter_totals(registries), counts0)
    virtual_ns = sum(tb.clock.now for tb in testbeds) - clocks0

    failures = list(outcome.failures)
    ops = max(1, outcome.attempted)
    lat = sorted(outcome.latencies)
    result = {
        "workload": args.child, "seed": args.seed, "traced": args.traced,
        "attempted": outcome.attempted, "warmup_ops": outcome.warmup_ops,
        "samples": len(lat), "notes": outcome.notes,
        "setup_runs_s": [m.scaled_s for m in setups],
        "setup_wall_s": [m.wall_s for m in setups],
        "timed_s": meter.scaled_s, "timed_wall_s": meter.wall_s,
        "counts": counts,
    }
    metrics = {}
    try:
        tail_p, tail_ns = tail(lat, cap=workload.TAIL_CAP)
        metrics["virt_mean_ms"] = ns_to_ms(sum(lat) / len(lat))
        metrics["virt_tail_ms"] = ns_to_ms(tail_ns)
        result["tail_percentile"] = tail_p
        result["p50_ms"] = ns_to_ms(percentile(lat, 50))
    except ValueError as exc:
        failures.append(f"latency percentiles: {exc}")
    if outcome.virt_ops_per_s > 0:
        metrics["virt_ops_per_s"] = outcome.virt_ops_per_s
    metrics["host_ops_per_s"] = outcome.attempted / meter.scaled_s
    metrics["setup_s"] = statistics.median(m.scaled_s for m in setups)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Per-layer numbers that are pure functions of the seed: counts and
    # ratios from registry deltas, latency parts, workload details.
    c = counts.get
    layer = {
        "kvm.vmexits_per_op": c("kvm.vmexits", 0) / ops,
        "host.syscalls_per_op": c("host.syscalls", 0) / ops,
        "host.ptrace_stops_per_op": c("costs.ptrace_stop", 0) / ops,
        "virtio.kick_suppressed_ratio": ratio(
            c("costs.kick_suppressed", 0),
            c("costs.kicks", 0) + c("costs.kick_suppressed", 0)),
        # completions that raised no interrupt of their own (coalesced
        # into a batch interrupt or suppressed by EVENT_IDX)
        "virtio.irq_suppressed_ratio": ratio(
            c("vring.used_entries", 0) - c("vring.interrupts_delivered", 0),
            c("vring.used_entries", 0)),
        "virtio.sg_segments_per_call": ratio(
            c("attach.device.segments", 0), c("attach.device.calls", 0)),
        "core.tlb_hit_ratio": ratio(
            c("attach.gateway.tlb_hits", 0),
            c("attach.gateway.tlb_hits", 0) + c("attach.gateway.tlb_misses", 0)),
        "sim.sched.events_per_op": c("sched.events_dispatched", 0) / ops,
        "sim.netfab.frames_per_op": c("netfab.frames", 0) / ops,
        "usecases.throttled_ratio": ratio(
            c("fleet.throttled", 0), c("fleet.invocations", 0)),
        "usecases.restore_ratio": ratio(
            c("costs.faas_snapshot_restore", 0), c("fleet.invocations", 0)),
        "obs.spans_dropped": sum(tb.obs.spans.dropped_spans for tb in testbeds)
        - dropped0,
        "loadgen.lag_p99_ms": 0.0,
        "attach.cmd_p50_ms": 0.0,
        "blk.iops_qd1": 0.0, "blk.iops_qd8": 0.0, "blk.seq_mib_s": 0.0,
        "blk.window_depth_mean": 0.0,
    }
    if outcome.lags:
        lags = sorted(outcome.lags)
        layer["loadgen.lag_p99_ms"] = ns_to_ms(tail(lags, cap=99.0)[1])
    requests = len(outcome.latencies) if outcome.parts else 0
    for part in ("lag", "admission", "coldstart", "route", "exec"):
        layer[f"req.{part}_ms"] = ns_to_ms(
            ratio(outcome.parts.get(part, 0), requests)
        )
    layer.update(outcome.detail)

    if args.traced:
        rollup = probe.layer_rollup(os.path.join(SRC, "repro") + os.sep)
        for name in LAYERS:
            layer[f"{name}.host_self_ms"] = rollup[name]["host_self_ms"]
            layer[f"{name}.calls"] = rollup[name]["calls"]
        events = c("sched.events_dispatched", 0)
        layer["sim.sched.host_ns_per_event"] = ratio(
            rollup["sim.sched"]["host_self_ms"] * 1e6, events)
        for method in VIRT_METHODS + UNCLAIMED:
            layer[f"virt.{method}_ms"] = ns_to_ms(probe.virt.get(method, 0))
        unlisted = {k: v for k, v in probe.virt.items()
                    if k not in VIRT_METHODS + UNCLAIMED and v}
        if unlisted:
            result["notes"]["unlisted_virt_ns"] = unlisted
        if probe.virt_total() != virtual_ns:
            failures.append(
                f"virtual attribution: parts sum to "
                f"{probe.virt_total()} ns, clocks advanced {virtual_ns} ns"
            )
        for step in ATTACH_STEPS:
            virt_ns, host_ns = probe.steps.get(step, (0, 0))
            layer[f"attach.{step}.virt_ms"] = ns_to_ms(virt_ns)
            layer[f"attach.{step}.host_ms"] = ns_to_ms(host_ns)
        path = os.path.join(OUT, f"{args.child}-{args.seed:#x}.trace.json")
        problems = probe.export(path)
        failures.extend(f"trace export: {p}" for p in problems[:5])
        result["trace_file"] = os.path.relpath(path, ROOT)
        result["trace_spans_dropped"] = probe.spans_dropped

    result.update(failed=len(failures), failures=failures[:20],
                  metrics=metrics, layer=layer)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent: run children, check, print
# ---------------------------------------------------------------------------

#: metrics that are pure functions of the seed: traced and untraced
#: runs must report them identically
VIRTUAL = ("virt_mean_ms", "virt_tail_ms", "virt_ops_per_s")


def _run_child(workload: str, args, traced: bool) -> dict:
    # A --trace 1 run reports no set-up time, so its children build once.
    setups = 1 if args.trace else SETUP_REPEATS
    cmd = [sys.executable, os.path.abspath(__file__), "--child", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setups", str(setups)]
    if traced:
        cmd.append("--traced")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} child exited with {proc.returncode}"
            + (" (traced)" if traced else "")
        )
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(workload: str, untraced: dict, traced, spec: dict):
    """Print one workload's metrics; returns (metrics, problems)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    n = untraced["samples"]
    print(f"# {workload}: seed {untraced['seed']:#x}, "
          f"{untraced['attempted']} timed ops, "
          f"{untraced['warmup_ops']} warm-up ops excluded, "
          f"set-ups {[round(s, 3) for s in untraced['setup_runs_s']]} s")
    for key, value in sorted(untraced["notes"].items()):
        print(f"#   {key}: {value}")
    if "p50_ms" in untraced:
        print(f"#   p50: {untraced['p50_ms']:.6g} ms (n={n}, virtual)")
    detail = {
        "virt_mean_ms": f"mean, n={n}, virtual",
        "virt_tail_ms": f"p{untraced.get('tail_percentile', 0):g}, n={n}, virtual",
        "virt_ops_per_s": "virtual",
        "host_ops_per_s": f"n={untraced['attempted']}, host",
        "setup_s": f"median of {len(untraced['setup_runs_s'])}, host",
        "peak_rss_mib": "child ru_maxrss, host",
    }
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in untraced["metrics"]:
            print(f"{workload:8s} {name:34s} {_fmt(untraced['metrics'][name]):>14s} "
                  f"{m['unit']:8s} ({detail.get(name, '')})")
    problems = [f"{workload}: {f}" for f in untraced["failures"]]
    if traced is None:
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = untraced["metrics"]
    else:
        problems += [f"{workload} (traced): {f}" for f in traced["failures"]]
        for key in VIRTUAL:
            if untraced["metrics"].get(key) != traced["metrics"].get(key):
                problems.append(f"{workload}: traced {key} differs from untraced")
        if untraced["counts"] != traced["counts"]:
            problems.append(f"{workload}: traced registry counts differ")
        for key, value in untraced["layer"].items():
            if traced["layer"].get(key) != value:
                problems.append(f"{workload}: traced {key} differs from untraced")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = dict(traced["layer"])
        metrics["trace.overhead_ratio"] = (traced["timed_wall_s"]
                                           / untraced["timed_wall_s"])
        print(f"# {workload}: spans in {traced.get('trace_file')} "
              f"({traced.get('trace_spans_dropped', 0)} dropped)")
        for name in wanted:
            if name in metrics:
                print(f"{workload:8s} {name:34s} {_fmt(metrics[name]):>14s} "
                      f"{units[name]}")
    missing = [name for name in wanted if name not in metrics]
    problems += [f"{workload}: metric {name} was not produced" for name in missing]
    return {k: {"value": metrics[k], "unit": units[k]}
            for k in wanted if k in metrics}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test; not comparable")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setups", type=int, default=SETUP_REPEATS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; pick one of {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    selected = [args.workload] if args.workload else names

    results, problems, attempted, failed = {}, [], 0, 0
    for workload in selected:
        try:
            untraced = _run_child(workload, args, traced=False)
            traced = _run_child(workload, args, traced=True) if args.trace else None
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for run in (untraced, traced):
            if run is not None:
                attempted += run["attempted"]
                failed += run["failed"]
        metrics, found = _report(workload, untraced, traced, spec)
        problems += found
        if len(selected) == 1:
            results = metrics
        else:
            results.update({f"{workload}.{k}": v for k, v in metrics.items()})
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
