"""Replay a recording and cross-check the live span stream.

The comparator is a span-stream sink that checks each live open,
close and instant against the recorded stream *as it happens*.  It
latches the first divergence instead of raising: an exception thrown
from inside a scheduler task would be swallowed by the task machinery
(tasks catch ``BaseException`` and finish errored), silently changing
the very run being compared.  Latching keeps the replay byte-faithful
and still pins the exact divergence point — virtual timestamp,
scheduler turn and whichever ``attach.step`` spans were open when the
streams split.  A run whose stream matches must also end where the
recording ended: same final virtual clock, same scheduler turn count.

``--until N`` stops at recorded event index ``N``: the comparator
latches a state dump (clock, open spans, metrics snapshot, recent
events) and then aborts the scenario best-effort with a
``BaseException`` the task machinery can't convert into a normal
failure path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import RecordingError
from repro.obs.spans import Span
from repro.replay.recording import Recording, encode_event


class ReplayStop(BaseException):
    """Raised (once) to abort a replay at ``--until``; deliberately a
    ``BaseException`` so ordinary handlers don't eat it."""


@dataclass
class Divergence:
    """The first point where live and recorded runs disagree."""

    index: int                  # recorded event index of the mismatch
    recorded: Optional[List[Any]]   # None when the live run emitted extra
    live: Optional[List[Any]]       # None when live ended short
    time_ns: int                # virtual clock at detection
    sched_turn: int             # scheduler events_run at detection
    open_steps: List[str]       # open attach.step spans, "track:step"
    kind: str                   # "mismatch" | "missing" | "extra" | "end"

    def describe(self) -> str:
        steps = ", ".join(self.open_steps) or "none"
        what = "first divergence"
        if self.kind == "end":
            what = "end state [clock end ns, scheduler turns] differs"
        lines = [
            f"{what} at event {self.index} "
            f"(t={self.time_ns}ns, scheduler turn {self.sched_turn})",
            f"  open attach steps: {steps}",
        ]
        if self.kind == "missing":
            lines.append(f"  recorded: {self.recorded}")
            lines.append("  live:     <stream ended>")
        elif self.kind == "extra":
            lines.append("  recorded: <stream ended>")
            lines.append(f"  live:     {self.live}")
        else:
            lines.append(f"  recorded: {self.recorded}")
            lines.append(f"  live:     {self.live}")
        return "\n".join(lines)


@dataclass
class ReplayReport:
    matched: bool
    events_checked: int
    divergence: Optional[Divergence] = None
    outcome: str = ""
    stopped_at: Optional[int] = None
    dump: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)


class _Comparator:
    """Span-stream sink: live events vs the recorded stream, latching."""

    def __init__(self, tb: Any, recorded: List[Any], until: Optional[int]):
        self._tb = tb
        self._recorded = recorded
        self._until = until
        self._recent: deque = deque(maxlen=10)
        self.cursor = 0
        self.divergence: Optional[Divergence] = None
        self.dump: Optional[Dict[str, Any]] = None

    # -- context capture ---------------------------------------------------

    def _open_steps(self) -> List[str]:
        return [
            f"{span.track}:{span.attrs.get('step')}"
            for span in self._tb.obs.spans.open_spans()
            if span.name == "attach.step"
        ]

    def _latch(self, kind: str, recorded, live) -> None:
        if self.divergence is not None:
            return
        self.divergence = Divergence(
            index=self.cursor,
            recorded=recorded,
            live=live,
            time_ns=self._tb.clock.now,
            sched_turn=self._tb.scheduler.events_run,
            open_steps=self._open_steps(),
            kind=kind,
        )

    def _latch_dump(self) -> None:
        tb = self._tb
        self.dump = {
            "stopped_at": self.cursor,
            "time_ns": tb.clock.now,
            "sched_turn": tb.scheduler.events_run,
            "open_spans": [
                f"{span.track}:{span.name}" for span in tb.obs.spans.open_spans()
            ],
            "open_steps": self._open_steps(),
            "metrics": tb.obs.metrics.snapshot(),
            "recent_events": list(self._recent),
        }

    # -- the sink ----------------------------------------------------------

    def __call__(self, kind: str, span: Span) -> None:
        if self._until is not None and self.cursor >= self._until:
            if self.dump is None:
                self._latch_dump()
                raise ReplayStop()
            return
        live = encode_event(kind, span)
        self._recent.append(live)
        if self.cursor >= len(self._recorded):
            self._latch("extra", None, live)
        elif live != self._recorded[self.cursor]:
            self._latch("mismatch", self._recorded[self.cursor], live)
        self.cursor += 1

    def finish_checks(self, recording: Recording) -> None:
        """Post-run: the live stream must not end short, and the run
        must end at the recorded clock and scheduler turn."""
        if self.divergence is not None or self._until is not None:
            return
        if self.cursor < len(self._recorded):
            self._latch("missing", self._recorded[self.cursor], None)
            return
        live = [self._tb.clock.now, self._tb.scheduler.events_run]
        recorded = [recording.clock_end_ns, recording.sched_turns]
        if live != recorded:
            self._latch("end", recorded, live)


class Replayer:
    """Re-execute a :class:`Recording` and cross-check it live."""

    def replay(
        self, recording: Recording, until: Optional[int] = None
    ) -> ReplayReport:
        from repro.replay.scenarios import run_scenario
        from repro.sim.costs import CostParams

        comparator: List[_Comparator] = []

        def on_testbed(tb: Any) -> None:
            cmp_ = _Comparator(tb, recording.events, until)
            comparator.append(cmp_)
            tb.obs.spans.sinks.append(cmp_)

        outcome = ""
        try:
            result = run_scenario(
                recording.scenario,
                recording.params,
                on_testbed=on_testbed,
                cost_params=CostParams(**recording.cost_params),
            )
            outcome = result.outcome
        except ReplayStop:
            outcome = "stopped"
        except Exception as err:  # noqa: BLE001 - surfaced via report
            if until is not None and comparator and comparator[0].dump:
                # the one-shot abort surfaced as a downstream failure
                outcome = "stopped"
            else:
                raise
            del err
        if not comparator:
            raise RecordingError("scenario never built a testbed")
        cmp_ = comparator[0]
        cmp_.finish_checks(recording)
        return ReplayReport(
            matched=cmp_.divergence is None,
            events_checked=cmp_.cursor,
            divergence=cmp_.divergence,
            outcome=outcome,
            stopped_at=until if cmp_.dump is not None else None,
            dump=cmp_.dump,
        )
