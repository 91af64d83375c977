"""Record/replay round-trip property (PR 7 acceptance).

An 8-VM fleet run — including a mid-fleet rollback (phase 2's doomed
attach) and a snapshot/restore spliced mid-attach — records to a
trace file, and replaying that file regenerates the identical span
stream byte for byte and ends in the recorded state.  A perturbed
recording must pin the *correct* first divergence, and ``until`` must
drop into the span/metrics dump.
"""

import copy

import pytest

from repro.replay.recording import Recording, RunRecorder
from repro.replay.replayer import Replayer
from repro.replay.scenarios import run_scenario

from .conftest import MASTER_SEED

FLEET_PARAMS = {
    "seed": MASTER_SEED,
    "fleet_size": 8,
    "snapshot_mid_attach": True,
}


def _record_fleet():
    recorder = RunRecorder("fleet", FLEET_PARAMS)
    result = run_scenario("fleet", FLEET_PARAMS, on_testbed=recorder.attach)
    return recorder.finish(outcome=result.outcome)


@pytest.fixture(scope="module")
def recording():
    return _record_fleet()


def test_fleet_run_records_all_determinants(recording):
    assert recording.scenario == "fleet"
    assert recording.master_seed == MASTER_SEED
    assert recording.events, "a fleet run records its span stream"
    assert recording.fault_plan == [], "plan disarmed by run end"
    assert recording.clock_end_ns > 0
    assert recording.sched_turns > 0
    assert recording.cost_params["ptrace_stop_ns"] > 0
    # the spliced snapshot/restore and the rollback both left a mark
    names = {event[5] for event in recording.events}
    assert "txn.rollback" in names


def test_recording_twice_is_byte_identical(recording):
    again = _record_fleet()
    assert again.events == recording.events
    assert again.clock_end_ns == recording.clock_end_ns
    assert again.sched_turns == recording.sched_turns
    assert again.to_json() == recording.to_json()


def test_replay_matches_byte_for_byte(recording, tmp_path):
    loaded = Recording.load(recording.save(tmp_path / "run.json"))
    report = Replayer().replay(loaded)
    assert report.matched, report.divergence and report.divergence.describe()
    assert report.events_checked == len(recording.events)
    assert report.outcome == "ok"


@pytest.mark.parametrize("index_frac", [0.25, 0.5, 0.9])
def test_perturbed_recording_pins_first_divergence(recording, index_frac):
    index = int(len(recording.events) * index_frac)
    bad = copy.deepcopy(recording)
    bad.events[index] = [bad.events[index][0], "tampered", "tampered", None]
    report = Replayer().replay(bad)
    assert not report.matched
    assert report.divergence.kind == "mismatch"
    assert report.divergence.index == index
    assert report.divergence.live == recording.events[index]
    assert report.divergence.time_ns >= 0
    assert report.divergence.sched_turn >= 0


def test_truncated_recording_reports_extra_events(recording):
    bad = copy.deepcopy(recording)
    bad.events = bad.events[:100]
    report = Replayer().replay(bad)
    assert not report.matched
    assert report.divergence.kind == "extra"
    assert report.divergence.index == 100


def test_padded_recording_reports_missing_events(recording):
    bad = copy.deepcopy(recording)
    bad.events = bad.events + [[bad.clock_end_ns, "ghost", "ghost", None]]
    report = Replayer().replay(bad)
    assert not report.matched
    assert report.divergence.kind == "missing"
    assert report.divergence.index == len(recording.events)


def test_end_state_mismatch_fails_replay(recording):
    # The stream alone can match while the run ends elsewhere; the
    # recorded final clock is part of what a replay must reproduce.
    bad = copy.deepcopy(recording)
    bad.clock_end_ns += 1
    report = Replayer().replay(bad)
    assert not report.matched
    assert report.divergence.kind == "end"
    assert report.divergence.index == len(recording.events)
    assert report.divergence.recorded == [bad.clock_end_ns,
                                          recording.sched_turns]
    assert report.divergence.live == [recording.clock_end_ns,
                                      recording.sched_turns]
    assert "end state" in report.divergence.describe()


def test_until_stops_into_state_dump(recording):
    # Phase 1's two attach tasks interleave from stream event ~100 to
    # ~300 (the VM launches and the neighbour's attach come first).
    report = Replayer().replay(recording, until=150)
    assert report.stopped_at == 150
    dump = report.dump
    assert dump["stopped_at"] == 150
    assert dump["time_ns"] > 0
    assert dump["recent_events"], "dump carries the recent event window"
    assert isinstance(dump["metrics"], dict) and dump["metrics"]
    # replay up to an event inside phase 1 stops with attaches open
    assert any("attach" in span for span in dump["open_spans"])


def test_divergence_context_names_open_attach_steps(recording):
    # find an event emitted while an attach.step span is open: the
    # step openings themselves qualify
    index = next(
        i for i, event in enumerate(recording.events)
        if event[1] == "open" and event[5] == "attach.step" and i > 10
    )
    bad = copy.deepcopy(recording)
    bad.events[index] = [bad.events[index][0], "txn", "tampered", None]
    report = Replayer().replay(bad)
    assert report.divergence.index == index
    assert report.divergence.open_steps, (
        "a txn step divergence happens inside an open attach.step span"
    )
