"""The perf gate (``benchmarks/perf_gate.py``): its reading of a suite run
and its baseline comparison."""

import importlib.util
import json
import pathlib

import pytest

GATE_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf_gate.py"


@pytest.fixture
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(deterministic, wall):
    return {"deterministic": deterministic, "wall": wall}


def test_compare_holds_deterministic_exact_and_wall_in_band(gate):
    baseline = report({"events": 10}, {"events_per_s": 1000})
    assert gate.compare(report({"events": 10}, {"events_per_s": 400}),
                        baseline) == []
    problems = gate.compare(report({"events": 11}, {"events_per_s": 300}),
                            baseline)
    assert [p.split(":")[0] for p in problems] == [
        "deterministic regression", "wall regression",
    ]


def test_compare_fails_on_a_key_present_on_one_side_only(gate):
    baseline = report({"events": 10}, {"events_per_s": 1000})
    problems = gate.compare(report({"events": 10, "spans": 3}, {}), baseline)
    assert problems == [
        "deterministic key spans is only in the measurement "
        "(re-run with --update-baseline if intended)",
        "wall key events_per_s is only in the baseline "
        "(re-run with --update-baseline if intended)",
    ]


#: the metrics of one ``benchmarks/suite/run.py --seconds 3`` run at the
#: suite's default seed: (value, unit) per ``<workload>.<metric>``
RECORDED = {
    "attach.virt_mean_ms": (1.7037724230769231, "ms"),
    "attach.virt_tail_ms": (2.205943, "ms"),
    "attach.virt_ops_per_s": (377.94184297786893, "1/s"),
    "attach.host_ops_per_s": (125.32576992710422, "1/s"),
    "attach.setup_s": (0.031029292372847298, "s"),
    "attach.peak_rss_mib": (47.5546875, "MiB"),
    "blk.virt_mean_ms": (0.07550565964912281, "ms"),
    "blk.virt_tail_ms": (0.140692, "ms"),
    "blk.virt_ops_per_s": (27025.419917952106, "1/s"),
    "blk.host_ops_per_s": (4395.475688583339, "1/s"),
    "blk.setup_s": (0.011957312126419022, "s"),
    "blk.peak_rss_mib": (92.859375, "MiB"),
    "traffic.virt_mean_ms": (3.1178960844444448, "ms"),
    "traffic.virt_tail_ms": (3.114379, "ms"),
    "traffic.virt_ops_per_s": (5076.651836156008, "1/s"),
    "traffic.host_ops_per_s": (1944.336880946154, "1/s"),
    "traffic.setup_s": (0.018268952634974397, "s"),
    "traffic.peak_rss_mib": (47.94140625, "MiB"),
    "fleet.virt_mean_ms": (4.1167030612, "ms"),
    "fleet.virt_tail_ms": (21.0, "ms"),
    "fleet.virt_ops_per_s": (5052.030352024444, "1/s"),
    "fleet.host_ops_per_s": (12107.63930741639, "1/s"),
    "fleet.setup_s": (0.8809603702900926, "s"),
    "fleet.peak_rss_mib": (116.28515625, "MiB"),
}


def suite_stdout(correct=True):
    """The suite's output: metric lines, then its one-line JSON result."""
    result = {"correct": correct, "attempted": 28476, "failed": 0,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in RECORDED.items()}}
    return "fleet    host_ops_per_s  12107.6 1/s\n" + json.dumps(result) + "\n"


def test_a_recorded_result_splits_into_deterministic_and_wall_keys(gate):
    current = gate.read_suite(0, suite_stdout())
    workloads = ("attach", "blk", "traffic", "fleet")
    assert sorted(current["deterministic"]) == sorted(
        f"{w}.{m}" for w in workloads
        for m in ("virt_mean_ms", "virt_tail_ms", "virt_ops_per_s")
    )
    for key, value in current["deterministic"].items():
        assert value == RECORDED[key][0]
    assert current["wall"] == {
        "attach.host_ops_per_s": 125.3, "blk.host_ops_per_s": 4395.5,
        "traffic.host_ops_per_s": 1944.3, "fleet.host_ops_per_s": 12107.6,
    }
    assert gate.compare(current, current) == []


def test_a_failed_suite_run_fails_the_gate(gate):
    with pytest.raises(gate.SuiteFailure, match="correct: false"):
        gate.read_suite(0, suite_stdout(correct=False))
    for stdout in ("", suite_stdout()):     # a crash prints no result
        with pytest.raises(gate.SuiteFailure, match="exited with 1"):
            gate.read_suite(1, stdout)
