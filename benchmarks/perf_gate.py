"""CI perf-regression gate: the benchmark suite's four workloads.

Runs ``python3 benchmarks/suite/run.py --seconds 3`` once, untraced, at
the suite's default seed, and compares its result line (the last line
of its output) with the committed baseline
(``benchmarks/results/PERF_BASELINE.json``):

* **Deterministic keys, exact.**  ``virt_mean_ms``, ``virt_tail_ms``
  and ``virt_ops_per_s`` of every workload are a pure function of the
  seed.  Any drift means the simulated execution changed: a correctness
  regression, or an intended change (re-run with ``--update-baseline``).
* **Wall keys, in band.**  ``host_ops_per_s`` of every workload must
  stay at or above ``WALL_TOLERANCE`` x the baseline machine's rate.
  The band is wide because CI boxes differ; what it catches is a hot
  path losing a multiple of its speed.

A suite run that exits non-zero or reports ``correct: false`` fails the
gate, and so does a key present on one side only.

Run from the repo root::

    python benchmarks/perf_gate.py
    python benchmarks/perf_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).parent
SUITE = HERE / "suite" / "run.py"
BASELINE_PATH = HERE / "results" / "PERF_BASELINE.json"

SUITE_SECONDS = 3
WALL_TOLERANCE = 0.35    # wall rates >= 35% of the baseline rate
DETERMINISTIC = ("virt_mean_ms", "virt_tail_ms", "virt_ops_per_s")
WALL = ("host_ops_per_s",)


class SuiteFailure(RuntimeError):
    """The suite run the gate measures failed."""


def read_suite(returncode: int, stdout: str) -> dict:
    """Split a multi-workload suite run's result line into the gate's
    deterministic and wall keys (``<workload>.<metric>``)."""
    if returncode != 0:
        raise SuiteFailure(f"the suite exited with {returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SuiteFailure("the suite reported correct: false")
    report = {"deterministic": {}, "wall": {}}
    for key, metric in result["metrics"].items():
        name = key.rpartition(".")[2]
        if name in DETERMINISTIC:
            report["deterministic"][key] = metric["value"]
        elif name in WALL:
            report["wall"][key] = round(metric["value"], 1)
    return report


def measure() -> dict:
    proc = subprocess.run(
        [sys.executable, str(SUITE), "--seconds", str(SUITE_SECONDS)],
        stdout=subprocess.PIPE, text=True,
    )
    print(proc.stdout, end="")
    return read_suite(proc.returncode, proc.stdout)


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

    try:
        current = measure()
    except SuiteFailure as exc:
        print(f"perf gate FAIL: {exc}", file=sys.stderr)
        return 1
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
    print(f"perf gate OK: {len(current['deterministic'])} deterministic keys "
          f"exact, {len(current['wall'])} wall keys >= {WALL_TOLERANCE:.2f}x "
          f"baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
