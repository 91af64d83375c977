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

Determinism contract: span IDs come from a per-recorder sequence
counter, timestamps from the injected virtual clock, and attribute
dicts preserve call-site insertion order — two same-seed runs produce
identical span lists, byte for byte once exported.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


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
        self.spans: List[Span] = []
        self.dropped_spans = 0
        #: live consumers of the stream: ``sink(kind, span)`` runs at
        #: every open (``"open"``), close (``"close"``) and instant
        #: (``"instant"``); a sink's exception propagates to the caller.
        self.sinks: List[Callable[[str, Span], None]] = []
        self._stacks: Dict[str, List[Span]] = {}
        #: the id the next span gets: a cursor over the stream
        self.next_sid = 1

    # -- core lifecycle ----------------------------------------------------

    def begin(self, name: str, /, track: str = "main", **attrs: object) -> Span:
        """Open a span; nests under the track's innermost open span."""
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1].sid if stack else None
        span = Span(self.next_sid, parent, name, track, self.clock.now, attrs)
        self.next_sid += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
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
        stack = self._stacks.get(span.track)
        if stack and span in stack:
            # Tolerate out-of-order closes (a fault unwinding through
            # several open scopes): drop the span and anything opened
            # above it that its owner abandoned.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        for sink in self.sinks:
            sink("close", span)
        return span

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
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped_spans += 1
        for sink in self.sinks:
            sink("instant", span)
        return span

    # -- introspection -----------------------------------------------------

    def open_spans(self) -> List[Span]:
        return [s for stack in self._stacks.values() for s in stack]

    def find(self, name: Optional[str] = None, track: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if (name is None or s.name == name)
            and (track is None or s.track == track)
        ]

    def tracks(self) -> List[str]:
        """Track names in first-use order (stable across same-seed runs)."""
        seen: Dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.track, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.spans)

    def reset(self) -> None:
        self.spans.clear()
        self._stacks.clear()
        self.dropped_spans = 0
        self.next_sid = 1

