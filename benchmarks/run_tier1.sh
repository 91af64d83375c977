#!/usr/bin/env bash
# Tier-1 gate, the one list of checks CI runs: byte-compile, the full
# test suite (chaos suite included, on a pinned master seed so fault
# schedules are replayable), the restore oracles on bytecode of another
# hash seed, the suite's replay and second-seed checks, the
# ablation and arch-matrix benchmarks, the benchmark self-test, the
# perf gate, the Perfetto export, the fuzz smoke, the CLI
# record/replay round trips, the examples and the src/ line count.  Run
# from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

python -m compileall -q src

# Pin the chaos-suite seed ("VMSH"): identical fault schedules and
# traces on every run.  Override to explore other schedules.
export VMSH_CHAOS_SEED="${VMSH_CHAOS_SEED:-0x564D5348}"

PYTHONPATH=src python -m pytest -x -q

# Hash-seed leg: bytecode compiled under one hash seed, run under two
# others.  A frozenset constant is marshalled in its compile-time order,
# and a restore must give back the graph it captured whichever order
# that is.  The tests above ran on bytecode of one seed only.
PYTHONHASHSEED=1 python -m compileall -q -f src
for seed in 4 9; do
    PYTHONHASHSEED=$seed PYTHONPATH=src python -m pytest -q \
        tests/props/test_prop_restore.py
done

# Chaos replay check: the same seed again must give the same schedules.
PYTHONPATH=src python -m pytest -q tests/chaos

# Determinism must hold for any seed, not just the default: a second
# master seed explores a different (still bit-reproducible)
# interleaving of the same fleet, snapshot and traffic scenarios, and
# forms different batches of guest driver buffers.
VMSH_CHAOS_SEED=0x1CEB00DA PYTHONPATH=src python -m pytest -q \
    tests/chaos/test_fleet_determinism.py tests/chaos/test_determinism.py \
    tests/chaos/test_snapshot_determinism.py \
    tests/chaos/test_traffic_determinism.py \
    tests/chaos/test_driver_buffers.py

PYTHONPATH=src python -m pytest -q \
    benchmarks/test_ablation_copy_path.py \
    benchmarks/test_ablation_event_idx.py \
    benchmarks/test_ablation_snapshot.py \
    benchmarks/test_fleet_scaling.py

# Arch-matrix leg: the riscv64 attach integration suite, the
# page-table engine against the per-ISA walkers it replaced on hostile
# tables, plus the E2/E3 generality matrix across {x86_64, arm64,
# riscv64 Sv39/Sv48}.
PYTHONPATH=src python -m pytest -q \
    tests/integration/test_riscv64.py \
    tests/props/test_prop_walker_parity.py \
    tests/props/test_prop_walker_differential.py \
    benchmarks/test_e2_e3_generality.py

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

# Record/replay round trips through the CLI: the traffic composite and
# the fleet scenario with a snapshot taken mid-attach.
recordings="$(mktemp -d)"
PYTHONPATH=src python -m repro record --scenario traffic \
    --out "$recordings/traffic.json"
PYTHONPATH=src python -m repro replay "$recordings/traffic.json"
PYTHONPATH=src python -m repro record --scenario fleet \
    --snapshot-mid-attach --out "$recordings/fleet.json"
PYTHONPATH=src python -m repro replay "$recordings/fleet.json"

# The examples document the synchronous entry points (attach,
# run_command, exec, invoke, debug_shell, watch): each must run clean.
for example in examples/*.py; do
    PYTHONPATH=src python "$example" > /dev/null
done

# Source size, tracked like a benchmark: src/ lines of code, comment,
# docstring and blank.
python benchmarks/src_lines.py
