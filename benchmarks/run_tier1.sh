#!/usr/bin/env bash
# Tier-1 gate, the one list of checks CI runs: byte-compile, the full
# test suite (chaos suite included, on a pinned master seed so fault
# schedules are replayable), the restore oracles on bytecode of another
# hash seed, the suite's replay and second-seed checks, the ablation,
# paper-experiment and arch-matrix benchmarks (whose reports must
# regenerate byte-identical), the benchmark self-test, the perf gate,
# the Perfetto export, the fuzz smoke, the CLI record/replay round
# trips, the examples, the export digests and the src/ line count
# (which must also come out byte-identical; a committed report that no
# leg rewrites fails too).  Run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

# The temporary directories this run makes: the reports' copy, the fuzz
# smoke's corpus and the recordings.  Each is named before any leg runs,
# so the trap holds under ``set -u`` whichever leg fails, and the trap
# removes them however the run ends.
reports="" corpus="" recordings=""
trap 'rm -rf -- "$reports" "$corpus" "$recordings"' EXIT

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

# The next three legs rewrite the reports under benchmarks/results/,
# and the export and line-count legs near the end rewrite exports.txt
# and src_lines.txt there; each must come out byte-identical to the
# one it replaces (checked after the line count).  A report no leg
# rewrites is stale however it reads: each must end up newer than the
# stamp.
reports="$(mktemp -d)"
cp benchmarks/results/*.txt "$reports/"
touch "$reports/stamp"

PYTHONPATH=src python -m pytest -q \
    benchmarks/test_ablation_copy_path.py \
    benchmarks/test_ablation_event_idx.py \
    benchmarks/test_ablation_snapshot.py \
    benchmarks/test_fleet_scaling.py

# Paper-experiment leg: E1 and E4-E10 (§6.1, §6.3-§6.5, Figures 5-8)
# run the guest fs, page cache, native disk, host file, 9p, tty and pts
# cost paths and rewrite their reports under benchmarks/results/.
PYTHONPATH=src python -m pytest -q \
    benchmarks/test_e1_xfstests.py \
    benchmarks/test_e4_phoronix.py \
    benchmarks/test_e5_fio.py \
    benchmarks/test_e6_console.py \
    benchmarks/test_e7_debloat.py \
    benchmarks/test_e8_e10_usecases.py

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

# Perf-regression gate: one untraced run of the suite's four workloads
# at --seconds 3 against the committed baseline (the 12 virt_* keys
# exact, the 4 host_ops_per_s keys in band; ~10 s on a 2-core box).
python benchmarks/perf_gate.py

# Observability exports: the Perfetto trace of the canonical observed
# fleet run must pass the trace-event schema check.
PYTHONPATH=src python -m repro trace --out benchmarks/results/fleet-trace.json --validate

# Fuzz smoke on the pinned seed: ~200 time-boxed cases must rediscover
# the planted invariant violation (and find nothing organic), and every
# committed corpus entry must still replay-fail deterministically.
corpus="$(mktemp -d)"
PYTHONPATH=src python -m repro fuzz --cases 200 --time-box 120 \
    --seed "$VMSH_CHAOS_SEED" --plant-bug --require-planted \
    --corpus-dir "$corpus"
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
    PYTHONPATH=src python "$example"
done > "$recordings/examples.txt"

# Export digests: "<name> <bytes> <sha256>" for the metrics dump, the
# Perfetto trace above, the two CLI recordings and the examples'
# concatenated stdout.  The check below then holds every export
# byte-identical; a change that moves one on purpose commits the
# regenerated file and says why.
PYTHONPATH=src python -m repro metrics --format json > "$recordings/metrics.json"
for export in "$recordings/metrics.json" benchmarks/results/fleet-trace.json \
        "$recordings/traffic.json" "$recordings/fleet.json" \
        "$recordings/examples.txt"; do
    echo "$(basename "$export") $(wc -c < "$export" | tr -d ' ') $(sha256sum < "$export" | cut -d' ' -f1)"
done > benchmarks/results/exports.txt

# Source size, tracked like a report: src/ lines of code, comment,
# docstring and blank.  A change to src/ commits the new counts.
python benchmarks/src_lines.py > benchmarks/results/src_lines.txt

changed=0
for report in "$reports"/*.txt; do
    name="benchmarks/results/$(basename "$report")"
    if ! diff -u "$report" "$name"; then
        echo "tier-1: $name did not regenerate byte-identical" >&2
        changed=1
    fi
done
for name in benchmarks/results/*.txt; do
    if ! [ "$name" -nt "$reports/stamp" ]; then
        echo "tier-1: $name is committed but no leg rewrote it" >&2
        changed=1
    fi
done
[ "$changed" = 0 ]
