"""The perf gate's baseline comparison (``benchmarks/perf_gate.py``)."""

import importlib.util
import pathlib
import sys

import pytest

GATE_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf_gate.py"


@pytest.fixture
def gate(monkeypatch):
    # The gate puts benchmarks/ on sys.path when imported; keep that
    # out of the rest of the session.
    monkeypatch.setattr(sys, "path", list(sys.path))
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
