"""Record/replay of the end-to-end traffic scenario.

The traffic plane layers the net fabric, guest NIC servers and three
chaos legs on top of the fleet — the recordable surface is the same:
a pinned-seed run records once, re-records byte-identically, replays
byte-for-byte, and a perturbed recording pins the correct first
divergence.
"""

import copy

import pytest

from repro.replay.recording import Recording, RunRecorder
from repro.replay.replayer import Replayer
from repro.replay.scenarios import run_scenario

from .conftest import MASTER_SEED

TRAFFIC_PARAMS = {"seed": MASTER_SEED, "requests": 96}


def _record_traffic():
    recorder = RunRecorder("traffic", TRAFFIC_PARAMS)
    result = run_scenario("traffic", TRAFFIC_PARAMS,
                          on_testbed=recorder.attach)
    return recorder.finish(outcome=result.outcome), result


@pytest.fixture(scope="module")
def recorded():
    return _record_traffic()


def test_traffic_run_records_and_serves(recorded):
    recording, result = recorded
    assert recording.scenario == "traffic"
    assert recording.master_seed == MASTER_SEED
    assert recording.events, "a traffic run records its span stream"
    assert result.extra["completed"] == result.extra["requests"] == 96
    assert result.extra["servers"] >= 8
    # the chaos legs ran: one clean attach/detach and one rollback
    assert "attached" in result.extra["attach_log"]
    assert any(e.startswith("rolled-back:")
               for e in result.extra["attach_log"])


def test_traffic_recording_twice_is_byte_identical(recorded):
    recording, _ = recorded
    again, again_result = _record_traffic()
    assert again.events == recording.events
    assert again.clock_end_ns == recording.clock_end_ns
    assert again.to_json() == recording.to_json()


def test_traffic_replay_matches_byte_for_byte(recorded, tmp_path):
    recording, _ = recorded
    loaded = Recording.load(recording.save(tmp_path / "traffic.json"))
    report = Replayer().replay(loaded)
    assert report.matched, report.divergence and report.divergence.describe()
    assert report.events_checked == len(recording.events)
    assert report.outcome == "ok"


def test_perturbed_traffic_recording_pins_first_divergence(recorded):
    recording, _ = recorded
    index = len(recording.events) // 2
    bad = copy.deepcopy(recording)
    bad.events[index] = [bad.events[index][0], "tampered", "tampered", None]
    report = Replayer().replay(bad)
    assert not report.matched
    assert report.divergence.kind == "mismatch"
    assert report.divergence.index == index
    assert report.divergence.live == recording.events[index]
