"""Record/replay of full runs + coverage-guided fuzzing (PR 7).

Three mechanisms built on the deterministic substrate:

* :mod:`~repro.replay.recording` — a :class:`RunRecorder` serializes
  everything that determines a run (master seed, cost-model params,
  fault plan, scheduler tiebreak seed, the full span stream of opens,
  closes and instants, the final clock and scheduler turn count) into
  a versioned JSON trace file.
* :mod:`~repro.replay.replayer` — re-executes a recording and
  cross-checks the live span stream against the recorded one
  event-by-event, then the end state; the first divergence is reported
  with the virtual timestamp, open ``attach.step`` spans and scheduler
  turn where the histories split.  ``--until N`` stops at stream event
  N and drops into the span/metrics dump (time-travel debugging).
* :mod:`~repro.replay.fuzzer` — a generative :class:`AttachFuzzer`
  mutates seeds, fault schedules, quirk combinations and virtio driver
  behaviour, guided by coverage extracted from the obs spine; every
  invariant violation is shrunk to a minimal plan and saved to a
  corpus directory CI replays as regression tests.
"""

from repro.replay.corpus import load_entries, replay_entry, save_entry
from repro.replay.fuzzer import AttachFuzzer, FuzzReport
from repro.replay.invariants import diff_fingerprints, state_fingerprint
from repro.replay.recording import Recording, RunRecorder
from repro.replay.replayer import Divergence, ReplayReport, Replayer
from repro.replay.scenarios import AttachCase, run_attach_case, run_scenario
from repro.replay.shrinker import shrink

__all__ = [
    "AttachCase",
    "AttachFuzzer",
    "Divergence",
    "FuzzReport",
    "Recording",
    "ReplayReport",
    "Replayer",
    "RunRecorder",
    "diff_fingerprints",
    "load_entries",
    "replay_entry",
    "run_attach_case",
    "run_scenario",
    "save_entry",
    "shrink",
    "state_fingerprint",
]
