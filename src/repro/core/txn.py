"""Transactional attach: pipeline steps with compensating actions.

The paper's safety argument (§4, §6.2) is that a failed attach must
leave the hypervisor and guest exactly as they were — VMSH mutates a
*running* production VM, so "mostly cleaned up" is not a state.  This
module provides the mechanism: an :class:`AttachTransaction` collects
compensating actions (close this injected fd, delete that memslot,
restore those vCPU registers...) on a LIFO undo stack as the pipeline
makes each change.  On failure :meth:`rollback` unwinds the stack in
reverse order; on success :meth:`commit` discards it and only the
changes an attached session legitimately owns remain, each tracked by
the session for detach.

Undo actions run with fault injection suspended — the chaos plan that
failed the attach must not also be able to fail the cleanup — and a
failing undo action is recorded and skipped rather than masking the
original error or aborting the remaining unwind.

Every step, undo and rollback is a span on the transaction's track and
a commit is a ``txn.commit`` instant, so the span stream alone tells
which step died and what the unwind undid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional


@dataclass
class UndoEntry:
    """One compensating action on the undo stack."""

    label: str
    action: Callable[[], None]
    discharged: bool = False


@dataclass
class UndoFailure:
    """Record of an undo action that itself raised during rollback."""

    label: str
    error: BaseException


class AttachTransaction:
    """Undo stack + step bookkeeping for one ``Vmsh._attach_once_gen`` run."""

    def __init__(
        self,
        host: Any,
        label: str = "attach",
        track: Optional[str] = None,
    ):
        self.host = host
        self.label = label
        self.obs = host.obs
        #: span track the step spans land on — the attach pipeline
        #: passes its per-attempt track so steps nest under the attempt
        #: span; standalone transactions get their own track.
        self.track = track if track is not None else f"txn:{label}"
        self._step_span: Any = None
        self._undo: List[UndoEntry] = []
        self.steps_completed: List[str] = []
        self.current_step: Optional[str] = None
        self.undo_failures: List[UndoFailure] = []
        self.finished = False

    # -- pipeline steps -------------------------------------------------------

    def step(self, name: str, **detail: Any) -> None:
        """Enter pipeline step ``name``.

        Opens an ``attach.step`` span and gives the fault plan its
        per-step injection site (``attach.<name>``) *before* any of the
        step's work runs — fail-before semantics, so a fault here means
        the step never started.
        """
        if self.current_step is not None:
            self.steps_completed.append(self.current_step)
        self.current_step = name
        if self._step_span is not None:
            self.obs.spans.end(self._step_span, status="ok")
        # Open before the fault check: an injected fault leaves this
        # span open, and rollback closes it with the failure — the
        # stream then shows exactly which step died.
        self._step_span = self.obs.spans.begin(
            "attach.step", track=self.track, step=name, txn=self.label, **detail
        )
        self.host.faults.check(f"attach.{name}")

    # -- the undo stack -------------------------------------------------------

    def push(self, label: str, action: Callable[[], None]) -> UndoEntry:
        """Register a compensating action for a change just made.

        Returns the entry so the caller can :meth:`discharge` it if the
        resource is later released through the normal path (e.g. an
        injected fd that is closed again before the pipeline ends).
        """
        entry = UndoEntry(label=label, action=action)
        self._undo.append(entry)
        return entry

    def discharge(self, entry: UndoEntry) -> None:
        """Mark ``entry`` as no longer needed (resource already released)."""
        entry.discharged = True

    @property
    def depth(self) -> int:
        return sum(1 for e in self._undo if not e.discharged)

    # -- outcomes -------------------------------------------------------------

    def commit(self) -> None:
        """Attach succeeded: drop the undo stack, changes are now owned."""
        if self.current_step is not None:
            self.steps_completed.append(self.current_step)
            self.current_step = None
        self._undo.clear()
        self.finished = True
        if self._step_span is not None:
            self.obs.spans.end(self._step_span, status="ok")
            self._step_span = None
        self.obs.metrics.scope("txn").counter("commits").inc()
        self.obs.instant(
            "txn.commit", track="txn", txn=self.label,
            steps=len(self.steps_completed),
        )

    def rollback(self) -> None:
        """Attach failed: unwind every live undo entry, newest first.

        Runs under ``host.faults.suspended()`` so the armed chaos plan
        cannot fail the compensating actions it provoked.  Undo errors
        are collected in :attr:`undo_failures`; the unwind always visits
        every entry and never raises.
        """
        failed_step = self.current_step
        self.current_step = None
        spans = self.obs.spans
        if self._step_span is not None:
            spans.end(self._step_span, status="failed")
            self._step_span = None
        rollback_span = spans.begin(
            "txn.rollback", track=self.track, txn=self.label,
            failed_step=failed_step, undone=len(self.steps_completed),
        )
        self.obs.metrics.scope("txn").counter("rollbacks").inc()
        with self.host.faults.suspended():
            while self._undo:
                entry = self._undo.pop()
                if entry.discharged:
                    continue
                undo_span = spans.begin(
                    "txn.undo", track=self.track, txn=self.label,
                    action=entry.label,
                )
                try:
                    entry.action()
                    spans.end(undo_span, status="ok")
                except Exception as err:  # noqa: BLE001 - must not mask cause
                    spans.end(undo_span, status=type(err).__name__)
                    self.undo_failures.append(
                        UndoFailure(label=entry.label, error=err)
                    )
        self.finished = True
        spans.end(rollback_span, undo_failures=len(self.undo_failures))
