#!/usr/bin/env bash
# Tier-1 gate: byte-compile, full test suite (chaos suite included, on
# a pinned master seed so fault schedules are replayable), then the
# copy-path ablations that guard the guest-memory fast path.  Run from
# anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

python -m compileall -q src

# Pin the chaos-suite seed ("VMSH"): identical fault schedules and
# traces on every run.  Override to explore other schedules.
export VMSH_CHAOS_SEED="${VMSH_CHAOS_SEED:-0x564D5348}"

PYTHONPATH=src python -m pytest -x -q

PYTHONPATH=src python -m pytest -q \
    benchmarks/test_ablation_copy_path.py \
    benchmarks/test_ablation_sg_batching.py \
    benchmarks/test_ablation_event_idx.py \
    benchmarks/test_ablation_snapshot.py \
    benchmarks/test_fleet_scaling.py

# Arch-matrix leg (PR 9): the riscv64 attach integration suite plus the
# E2/E3 generality matrix across {x86_64, arm64, riscv64 Sv39/Sv48}.
PYTHONPATH=src python -m pytest -q \
    tests/integration/test_riscv64.py \
    benchmarks/test_e2_e3_generality.py

# Machine-readable numbers per PR -> benchmarks/results/BENCH_PR<n>.json
# (emit.py takes the PR number; --out overrides the default path).
PYTHONPATH=src python benchmarks/emit.py --pr 3
PYTHONPATH=src python benchmarks/emit.py --pr 4
PYTHONPATH=src python benchmarks/emit.py --pr 5
PYTHONPATH=src python benchmarks/emit.py --pr 6
PYTHONPATH=src python benchmarks/emit.py --pr 7
PYTHONPATH=src python benchmarks/emit.py --pr 8
PYTHONPATH=src python benchmarks/emit.py --pr 9
PYTHONPATH=src python benchmarks/emit.py --pr 10

# Benchmark self-test: every workload of benchmarks/suite/run.py at
# --smoke sizes, traced and untraced (~1 min).
python3 -m pytest -q benchmarks/suite/test_suite.py

# Perf-regression gate: fleet-64 control-plane + I/O points against
# the committed baseline (deterministic dims exact, wall in-band).
PYTHONPATH=src python benchmarks/perf_gate.py

# Observability exports: the Perfetto trace of the canonical observed
# fleet run must pass the trace-event schema check.
PYTHONPATH=src python -m repro trace --out benchmarks/results/fleet-trace.json --validate

# Fuzz smoke on the pinned seed: ~200 time-boxed cases must rediscover
# the planted invariant violation (and find nothing organic), and every
# committed corpus entry must still replay-fail deterministically.
PYTHONPATH=src python -m repro fuzz --cases 200 --time-box 120 \
    --seed "$VMSH_CHAOS_SEED" --plant-bug --require-planted \
    --corpus-dir "$(mktemp -d)"
PYTHONPATH=src python -m repro fuzz --replay tests/corpus
