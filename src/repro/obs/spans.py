"""Nested, virtual-clock-timed spans with parent/child IDs.

A :class:`Span` is a named scope over virtual time: attach steps,
queued-I/O windows, scheduler task turns, rollback unwinds.  Spans are
grouped into *tracks* — one per logical timeline (an attach attempt, a
device, a scheduler task) — and nest per-track: ``begin`` parents the
new span under the track's innermost open span.

Tracks exist because context-manager nesting breaks down in a
discrete-event simulator: a cooperative attach task yields mid-step
while another task's spans open and close, so a single global stack
would interleave unrelated scopes.  Each call site names its track
explicitly and cross-yield scopes use the ``begin``/``end`` pair
instead of the ``span`` context manager.

The recorder is the program's one event stream.  Every open, close
and instant also goes to the recorder's :attr:`SpanRecorder.sinks` as
it happens — run recordings and replay comparators tap the stream
there (DESIGN.md §14), Perfetto export and fuzz coverage read the
retained spans afterwards.

Scheduler task turns (``sched.turn``, one per turn of every task) are
most of the stream, so the recorder keeps each as a fixed-width row of
ints instead of a :class:`Span` (:meth:`SpanRecorder.open_turn`).
Readers and sinks never see a row: ``spans``, ``find``,
``open_spans`` and the sinks get :class:`Span` objects built from it,
identical to the ones a ``begin``/``end`` pair would have made.

Determinism contract: span IDs come from a per-recorder sequence
counter, timestamps from the injected virtual clock, and attribute
dicts preserve call-site insertion order — two same-seed runs produce
identical span lists, byte for byte once exported.
"""

from __future__ import annotations

import struct
from array import array
from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional

#: the name of a scheduler task turn's span
TURN = "sched.turn"

#: one turn row: sid, start ns, end ns (-1 while open), turn number,
#: track id, outcome code (0 for none)
_ROW = struct.Struct("6q")
_WIDTH = 6


class Span:
    __slots__ = ("sid", "parent_sid", "name", "track", "start_ns", "end_ns", "attrs")

    def __init__(
        self,
        sid: int,
        parent_sid: Optional[int],
        name: str,
        track: str,
        start_ns: int,
        attrs: Dict[str, object],
    ) -> None:
        self.sid = sid
        self.parent_sid = parent_sid
        self.name = name
        self.track = track
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs

    @property
    def duration_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # debugging aid, not part of any export
        dur = "open" if self.end_ns is None else f"{self.duration_ns}ns"
        return f"<Span #{self.sid} {self.track}/{self.name} @{self.start_ns} {dur}>"


def _turn_span(sid: int, parent_sid: Optional[int], track: str, start_ns: int,
               end_ns: Optional[int], turn: int,
               outcome: Optional[str]) -> Span:
    attrs: Dict[str, object] = {"turn": turn}
    if outcome is not None:
        attrs["outcome"] = outcome
    span = Span(sid, parent_sid, TURN, track, start_ns, attrs)
    span.end_ns = end_ns
    return span


class _OpenTurn:
    """A task turn in progress: its stand-in on its track's stack.

    It carries the turn's ``sid``, so a span begun on the track during
    the turn parents under it.  The recorder reuses one for turn after
    turn; only a turn opened while another is open gets a new one.
    """

    __slots__ = ("sid", "parent_sid", "track", "start_ns", "turn", "row", "stack")

    def as_span(self, end_ns: Optional[int] = None,
                outcome: Optional[str] = None) -> Span:
        return _turn_span(self.sid, self.parent_sid, self.track, self.start_ns,
                          end_ns, self.turn, outcome)


class SpanRecorder:
    """Records spans against a virtual clock, one nesting stack per track.

    ``max_spans`` bounds memory on long fleet runs: once full, new spans
    are counted in ``dropped_spans`` and not retained (recorded history
    is never evicted, so positional references into ``spans`` stay
    valid).  Sinks still see every span, retained or not.
    """

    def __init__(self, clock, max_spans: int = 250_000) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.dropped_spans = 0
        #: live consumers of the stream: ``sink(kind, span)`` runs at
        #: every open (``"open"``), close (``"close"``) and instant
        #: (``"instant"``); a sink's exception propagates to the caller.
        self.sinks: List[Callable[[str, Span], None]] = []
        self._stacks: Dict[str, List[object]] = {}
        #: the id the next span gets: a cursor over the stream
        self.next_sid = 1
        #: retained spans, turn rows included
        self._kept = 0
        #: retained spans other than turns, in sid order
        self._spans: List[Span] = []
        #: retained turns, ``_WIDTH`` ints a row, in sid order
        self._rows = array("q")
        self._track_ids: Dict[str, int] = {}
        self._track_names: List[str] = []
        #: outcome code -> the turn's ``outcome`` attribute
        self._outcomes: List[Optional[str]] = [None, "return"]
        #: sid -> parent of the rare turn opened under an open span
        self._turn_parents: Dict[int, int] = {}
        self._idle_turn: Optional[_OpenTurn] = _OpenTurn()

    # -- core lifecycle ----------------------------------------------------

    def begin(self, name: str, /, track: str = "main", **attrs: object) -> Span:
        """Open a span; nests under the track's innermost open span."""
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1].sid if stack else None
        span = Span(self.next_sid, parent, name, track, self.clock.now, attrs)
        self.next_sid += 1
        if self._kept < self.max_spans:
            self._kept += 1
            self._spans.append(span)
        else:
            self.dropped_spans += 1
        stack.append(span)
        for sink in self.sinks:
            sink("open", span)
        return span

    def end(self, span: Span, **attrs: object) -> Span:
        """Close a span (idempotent); extra attrs merge in at close."""
        if span.end_ns is None:
            span.end_ns = self.clock.now
        if attrs:
            span.attrs.update(attrs)
        self._pop(self._stacks.get(span.track), span)
        for sink in self.sinks:
            sink("close", span)
        return span

    @staticmethod
    def _pop(stack: Optional[List[object]], entry: object) -> None:
        if stack and entry in stack:
            # Tolerate out-of-order closes (a fault unwinding through
            # several open scopes): drop the entry and anything opened
            # above it that its owner abandoned.
            while stack[-1] is not entry:
                stack.pop()
            stack.pop()

    @contextmanager
    def span(self, name: str, /, track: str = "main",
             **attrs: object) -> Iterator[Span]:
        """Context-managed span for scopes that stay within one task turn."""
        s = self.begin(name, track, **attrs)
        try:
            yield s
        except BaseException as exc:
            self.end(s, status=type(exc).__name__)
            raise
        else:
            self.end(s)

    def instant(self, name: str, /, track: str = "main", **attrs: object) -> Span:
        """Zero-duration marker (fault injections, retries, VM launches),
        parented like a span opened on ``track`` now."""
        stack = self._stacks.get(track)
        parent = stack[-1].sid if stack else None
        span = Span(self.next_sid, parent, name, track, self.clock.now, attrs)
        span.end_ns = span.start_ns
        self.next_sid += 1
        if self._kept < self.max_spans:
            self._kept += 1
            self._spans.append(span)
        else:
            self.dropped_spans += 1
        for sink in self.sinks:
            sink("instant", span)
        return span

    # -- task turns --------------------------------------------------------

    def open_turn(self, track: str, turn: int) -> _OpenTurn:
        """Open task turn number ``turn`` on ``track``.

        The same span as ``begin("sched.turn", track, turn=turn)`` —
        same sid, parenting, retention and sinks — kept as a row.  Pass
        the returned handle to :meth:`close_turn`.
        """
        mark = self._idle_turn or _OpenTurn()
        self._idle_turn = None
        sid = mark.sid = self.next_sid
        self.next_sid = sid + 1
        # the clock's field, not its property: this runs every turn
        start = mark.start_ns = self.clock._now
        mark.track = track
        mark.turn = turn
        stack = mark.stack = self._stacks.get(track)
        if stack is None:
            stack = mark.stack = self._stacks[track] = []
        parent = mark.parent_sid = stack[-1].sid if stack else None
        if self._kept < self.max_spans:
            self._kept += 1
            tid = self._track_ids.get(track)
            if tid is None:
                tid = self._track_ids[track] = len(self._track_names)
                self._track_names.append(track)
            rows = self._rows
            mark.row = len(rows)
            rows.frombytes(_ROW.pack(sid, start, -1, turn, tid, 0))
            if parent is not None:
                self._turn_parents[sid] = parent
        else:
            mark.row = -1
            self.dropped_spans += 1
        stack.append(mark)
        if self.sinks:
            span = mark.as_span()
            for sink in self.sinks:
                sink("open", span)
        return mark

    def close_turn(self, mark: _OpenTurn, outcome: Optional[str] = None) -> None:
        """Close a turn :meth:`open_turn` opened; ``outcome``, if given,
        becomes the span's ``outcome`` attribute."""
        end = self.clock._now
        row = mark.row
        if row >= 0:
            rows = self._rows
            rows[row + 2] = end
            if outcome is not None:
                if outcome not in self._outcomes:
                    self._outcomes.append(outcome)
                rows[row + 5] = self._outcomes.index(outcome)
        stack = mark.stack
        if stack and stack[-1] is mark:
            stack.pop()
        else:
            self._pop(stack, mark)
        if self.sinks:
            span = mark.as_span(end, outcome)
            for sink in self.sinks:
                sink("close", span)
        self._idle_turn = mark

    # -- introspection -----------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Every retained span and instant in sid order, turns built
        from their rows."""
        names, outcomes = self._track_names, self._outcomes
        parents, rows = self._turn_parents, self._rows
        turns = [
            _turn_span(sid, parents.get(sid), names[tid], start,
                       end if end >= 0 else None, turn, outcomes[code])
            for sid, start, end, turn, tid, code in zip(
                *(rows[i::_WIDTH] for i in range(_WIDTH)))
        ]
        return sorted(self._spans + turns, key=attrgetter("sid"))

    def open_spans(self) -> List[Span]:
        return [
            s.as_span() if type(s) is _OpenTurn else s
            for stack in self._stacks.values()
            for s in stack
        ]

    def find(self, name: Optional[str] = None, track: Optional[str] = None) -> List[Span]:
        pool = self._spans if name is not None and name != TURN else self.spans
        return [
            s
            for s in pool
            if (name is None or s.name == name)
            and (track is None or s.track == track)
        ]

    def tracks(self) -> List[str]:
        """Track names in first-use order (stable across same-seed runs)."""
        first: Dict[str, int] = {}
        for s in self._spans:
            first.setdefault(s.track, s.sid)
        rows, names = self._rows, self._track_names
        for sid, tid in zip(rows[0::_WIDTH], rows[4::_WIDTH]):
            if first.setdefault(names[tid], sid) > sid:
                first[names[tid]] = sid
        return sorted(first, key=first.__getitem__)

    def __len__(self) -> int:
        return self._kept
