"""Self-test of the benchmark at ``--smoke`` scale (about a minute).

Run from the repository root::

    python3 -m pytest -q benchmarks/suite/test_suite.py

Per workload: a ``--trace 1`` run, which runs the workload untraced and
then traced with the same seed and fails unless both report identical
virtual metrics and registry counts (two same-seed runs agree, and
tracing does not perturb the simulation); then an untraced run with a
second seed.  Both must pass every output check and print every
``BENCHMARK.json`` metric with its unit.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    return result, "\n".join(lines[:-1])


def _check_metrics(result, text, kind):
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert f" {name} " in text and units[name] in text


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    traced, text = _run("--workload", workload, "--seed", "7", "--trace", "1")
    _check_metrics(traced, text, "per_layer")
    other, text = _run("--workload", workload, "--seed", "8")
    _check_metrics(other, text, "end_to_end")
    for metric in other["metrics"].values():
        assert metric["value"] > 0
