"""Unit coverage for the record/replay machinery.

Recording format round trips, the recorder's tap on the span stream,
coverage extraction, the attach-case harness, and the corpus entry
format.
"""

import json

import pytest

from repro.errors import RecordingError
from repro.obs.spans import Span
from repro.replay.corpus import CorpusEntry, case_digest, save_entry
from repro.replay.coverage import coverage_keys
from repro.replay.recording import (
    Recording,
    RunRecorder,
    encode_event,
    jsonable,
)
from repro.replay.scenarios import AttachCase, run_attach_case
from repro.testbed import Testbed


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def test_jsonable_canonicalises_non_json_types():
    assert jsonable((1, 2)) == [1, 2]
    assert jsonable({1: "a"}) == {"1": "a"}
    assert jsonable(b"\xde\xad") == {"__bytes__": "dead"}
    assert jsonable({"nested": {2, 1}}) == {"nested": ["1", "2"]}
    assert json.dumps(jsonable(object())).startswith('"<object')


def test_encode_event_shape():
    span = Span(3, 1, "name", "track", 7, {"k": (1,)})
    assert encode_event("open", span) == [7, "open", 3, 1, "track", "name",
                                          {"k": [1]}]
    span.end_ns = 9
    assert encode_event("close", span)[:2] == [9, "close"]


# ---------------------------------------------------------------------------
# Recording format
# ---------------------------------------------------------------------------

def _tiny_recording():
    return Recording(
        scenario="attach",
        params={"case": AttachCase().to_json()},
        master_seed=7,
        cost_params={"x": 1},
        events=[[0, "instant", 1, None, "t", "a", {}],
                [1, "open", 2, None, "t", "b", {"e": 2}]],
        outcome="ok",
    )


def test_recording_round_trips(tmp_path):
    rec = _tiny_recording()
    path = rec.save(tmp_path / "run.json")
    loaded = Recording.load(path)
    assert loaded.events == rec.events
    assert loaded.master_seed == rec.master_seed
    assert loaded.params == rec.params


def test_recording_rejects_wrong_format():
    with pytest.raises(RecordingError, match="not a run recording"):
        Recording.from_json(json.dumps({"format": "nope"}))


def test_recording_rejects_future_version():
    doc = json.loads(_tiny_recording().to_json())
    doc["version"] = 99
    with pytest.raises(RecordingError, match="version"):
        Recording.from_json(json.dumps(doc))


def test_recording_refuses_version_1():
    # Version 1 taped a different event stream, and version 2 names a
    # cost constant this build no longer has; neither can be replayed.
    for version in (1, 2):
        doc = json.loads(_tiny_recording().to_json())
        doc["version"] = version
        with pytest.raises(RecordingError,
                           match=f"version {version} unsupported"):
            Recording.from_json(json.dumps(doc))


def test_recording_detects_truncation_and_tampering():
    doc = json.loads(_tiny_recording().to_json())
    truncated = dict(doc)
    truncated["events"] = doc["events"][:1]
    with pytest.raises(RecordingError, match="truncated"):
        Recording.from_json(json.dumps(truncated))
    tampered = json.loads(_tiny_recording().to_json())
    tampered["events"][0][1] = "tampered"
    with pytest.raises(RecordingError, match="digest"):
        Recording.from_json(json.dumps(tampered))


# ---------------------------------------------------------------------------
# The recorder's tap on the span stream
# ---------------------------------------------------------------------------

def test_recorder_tapes_each_event_as_it_happens():
    tb = Testbed()
    recorder = RunRecorder("attach", {})
    recorder.attach(tb)
    span = tb.obs.spans.begin("work", track="t", n=1)
    tb.clock.advance(5)
    tb.obs.spans.end(span, status="ok")
    recording = recorder.finish()
    opened, closed = recording.events
    # The open keeps the attributes it had when it happened, not the
    # ones the close merged in later.
    assert opened == [0, "open", span.sid, None, "t", "work", {"n": 1}]
    assert closed == [5, "close", span.sid, None, "t", "work",
                      {"n": 1, "status": "ok"}]
    assert tb.obs.spans.sinks == []            # finish() untaps the stream
    with pytest.raises(RecordingError, match="never attached"):
        recorder.finish()


def test_emit_deep_copies_mutable_detail_when_recorded():
    # A recorded stream must never see history rewritten by an emitter
    # mutating its detail after the fact: the recorder encodes each
    # event into fresh JSON-native containers as it happens.
    tb = Testbed()
    recorder = RunRecorder("attach", {})
    recorder.attach(tb)
    payload = {"inner": [1, 2]}
    tb.obs.instant("t.e", track="t", data=payload)
    payload["inner"].append(3)
    (event,) = recorder.finish().events
    assert event[6] == {"data": {"inner": [1, 2]}}


def test_emit_skips_copy_on_unobserved_fast_path():
    # The stream keeps the caller's detail as is: an instant is one
    # Span and a list append, and only a sink pays for encoding.
    tb = Testbed()
    payload = {"inner": [1, 2]}
    span = tb.obs.instant("t.e", track="t", data=payload)
    assert span.attrs["data"] is payload


def test_recorder_captures_seed_costs_and_events():
    recorder = RunRecorder("attach", {"case": AttachCase(seed=99).to_json()})
    result = run_attach_case(AttachCase(seed=99), on_testbed=recorder.attach)
    recording = recorder.finish(outcome=result.outcome)
    assert recording.master_seed == 99
    assert recording.events, "a traced attach emits events"
    assert recording.clock_end_ns > 0
    assert "ptrace_stop_ns" in recording.cost_params


# ---------------------------------------------------------------------------
# Coverage extraction
# ---------------------------------------------------------------------------

def test_coverage_distinguishes_outcomes_and_steps():
    ok = run_attach_case(AttachCase())
    failed = run_attach_case(
        AttachCase(specs=({"site": "attach.hijack", "kind": "permanent"},))
    )
    assert "outcome:attached" in ok.coverage
    assert "step:hijack:ok" in ok.coverage
    assert "outcome:failed:PermanentFaultError" in failed.coverage
    assert "step:hijack:failed" in failed.coverage
    assert any(k.startswith("rollback:") for k in failed.coverage)
    assert any(k.startswith("undo:") for k in failed.coverage)


def test_coverage_normalises_instance_numbers():
    result = run_attach_case(
        AttachCase(specs=({"site": "attach.hijack", "kind": "permanent"},))
    )
    for key in result.coverage:
        if key.startswith("undo:"):
            assert not any(ch.isdigit() for ch in key), key


# ---------------------------------------------------------------------------
# Corpus entries
# ---------------------------------------------------------------------------

def test_corpus_entry_round_trips(tmp_path):
    entry = CorpusEntry(
        case=AttachCase(seed=5, specs=({"site": "attach.hijack"},)),
        violations=["state-leak:vmsh_fds"],
        requires_plant=True,
        found_by="test",
    )
    path = save_entry(entry, tmp_path)
    assert path.name == f"case-{case_digest(entry.case)}.json"
    loaded = CorpusEntry.from_json(path.read_text())
    assert loaded.case == entry.case
    assert loaded.violations == entry.violations
    assert loaded.requires_plant is True


def test_corpus_entry_rejects_wrong_format():
    with pytest.raises(RecordingError, match="not a corpus entry"):
        CorpusEntry.from_json(json.dumps({"format": "zzz"}))


def test_case_digest_is_stable_and_distinct():
    a = AttachCase(seed=1)
    assert case_digest(a) == case_digest(AttachCase(seed=1))
    assert case_digest(a) != case_digest(AttachCase(seed=2))
