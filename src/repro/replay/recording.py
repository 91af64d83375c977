"""Versioned JSON run recordings.

A recording holds everything that determines a run on the
deterministic substrate: the scenario name and its parameters, the
master seed (which also derives every scheduler tiebreak stream), the
cost-model constants, the armed fault plan, and the complete span
stream — every span open and close and every instant the testbed's
:class:`~repro.obs.spans.SpanRecorder` saw, retained or past
``max_spans`` — plus the run's end state (final virtual clock and
scheduler turns).  Replaying the scenario from those inputs must
regenerate the identical stream and end state; the replayer
cross-checks both.

Events are stored in a canonical JSON-native encoding
(:func:`encode_event`) so equality is well-defined across a
save/load round trip: tuples become lists, dict keys become strings,
bytes become hex, and anything non-JSON falls back to ``repr``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import RecordingError
from repro.obs.spans import Span

FORMAT = "vmsh-run-recording"
VERSION = 3


def jsonable(value: Any) -> Any:
    """Canonical JSON-native form of an arbitrary detail value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(v) for v in value)
    return repr(value)


def encode_event(kind: str, span: Span) -> List[Any]:
    """One stream event, ``[time_ns, kind, sid, parent_sid, track, name,
    attrs]``, in canonical JSON form.

    ``kind`` is ``"open"``, ``"close"`` or ``"instant"``; a close is
    timed at the span's end and carries its attributes as merged at
    close, an open or instant at its start.
    """
    time_ns = span.end_ns if kind == "close" else span.start_ns
    return [time_ns, kind, span.sid, span.parent_sid, span.track, span.name,
            jsonable(span.attrs)]


def events_digest(events: List[Any]) -> str:
    payload = json.dumps(events, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Recording:
    """One serialized run; the unit the replayer consumes."""

    scenario: str
    params: Dict[str, Any]
    master_seed: int
    cost_params: Dict[str, int]
    events: List[Any] = field(default_factory=list)
    fault_plan: List[Dict[str, Any]] = field(default_factory=list)
    outcome: str = "ok"
    clock_end_ns: int = 0
    sched_turns: int = 0

    def to_json(self) -> str:
        doc = {
            "format": FORMAT,
            "version": VERSION,
            "scenario": self.scenario,
            "params": self.params,
            "master_seed": self.master_seed,
            "cost_params": self.cost_params,
            "fault_plan": self.fault_plan,
            "outcome": self.outcome,
            "clock_end_ns": self.clock_end_ns,
            "sched_turns": self.sched_turns,
            "event_count": len(self.events),
            "events_digest": events_digest(self.events),
            "events": self.events,
        }
        return json.dumps(doc, indent=1, sort_keys=False)

    @classmethod
    def from_json(cls, payload: str) -> "Recording":
        doc = json.loads(payload)
        if doc.get("format") != FORMAT:
            raise RecordingError(
                f"not a run recording (format={doc.get('format')!r})"
            )
        if doc.get("version") != VERSION:
            raise RecordingError(
                f"recording version {doc.get('version')!r} unsupported "
                f"(this build reads version {VERSION})"
            )
        events = doc["events"]
        if doc.get("event_count") != len(events):
            raise RecordingError(
                f"recording is truncated: header says {doc.get('event_count')} "
                f"events, file holds {len(events)}"
            )
        if doc.get("events_digest") != events_digest(events):
            raise RecordingError("recording event stream fails its digest")
        return cls(
            scenario=doc["scenario"],
            params=doc["params"],
            master_seed=doc["master_seed"],
            cost_params=doc["cost_params"],
            events=events,
            fault_plan=doc.get("fault_plan", []),
            outcome=doc.get("outcome", "ok"),
            clock_end_ns=doc.get("clock_end_ns", 0),
            sched_turns=doc.get("sched_turns", 0),
        )

    def save(self, path) -> Path:
        out = Path(path)
        out.write_text(self.to_json())
        return out

    @classmethod
    def load(cls, path) -> "Recording":
        return cls.from_json(Path(path).read_text())


class RunRecorder:
    """Captures one scenario run into a :class:`Recording`.

    Hand :meth:`attach` to the scenario runner's ``on_testbed`` hook;
    the recorder taps the testbed's span stream through a sink, which
    sees every span whether or not the recorder retains it.
    """

    def __init__(self, scenario: str, params: Optional[Dict[str, Any]] = None):
        self.scenario = scenario
        self.params = dict(params or {})
        self._events: List[Any] = []
        self._testbed: Any = None

    def _sink(self, kind: str, span: Span) -> None:
        self._events.append(encode_event(kind, span))

    # -- wiring ------------------------------------------------------------

    def attach(self, tb: Any) -> None:
        """Tap the testbed's span stream (the ``on_testbed`` callback)."""
        if self._testbed is not None:
            raise RecordingError("recorder is already attached to a run")
        self._testbed = tb
        tb.obs.spans.sinks.append(self._sink)

    # -- result ------------------------------------------------------------

    def finish(self, outcome: str = "ok") -> Recording:
        """Detach from the stream and build the recording."""
        tb = self._testbed
        if tb is None:
            raise RecordingError("recorder was never attached to a testbed")
        tb.obs.spans.sinks.remove(self._sink)
        self._testbed = None
        plan = tb.host.faults._plan
        return Recording(
            scenario=self.scenario,
            params=self.params,
            master_seed=tb._seed,
            cost_params={k: v for k, v in asdict(tb.costs.p).items()},
            events=self._events,
            fault_plan=[asdict(s) for s in plan.specs] if plan else [],
            outcome=outcome,
            clock_end_ns=tb.clock.now,
            sched_turns=tb.scheduler.events_run,
        )
