"""Minimise a failing :class:`AttachCase` to its essence.

Delta-debugging specialised to the case shape: the search space is
small and structured (a handful of fault specs, one abuse knob, a
retry count), so a greedy fixpoint pass beats generic ddmin here.
Order of attack, cheapest wins first:

1. drop the virtio abuse (if the violation survives without it)
2. remove fault specs one at a time, to a fixpoint — a multi-fault
   plan shrinks to only the specs the failure actually needs
3. normalise surviving specs: ``occurrence``/``count`` down to 1
4. retries down to 0

``check(case)`` must return True iff the candidate still reproduces
the original violation.  Every candidate the shrinker tries is a pure
function of its JSON form, so the minimal case replays across
processes by construction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.replay.scenarios import AttachCase

#: Candidate runs one shrink may spend.
MAX_ATTEMPTS = 64


def shrink(
    case: AttachCase,
    check: Callable[[AttachCase], bool],
) -> AttachCase:
    """Smallest case (by the order above) for which ``check`` holds."""
    attempts = 0

    def tryout(candidate: AttachCase) -> bool:
        nonlocal attempts
        if attempts >= MAX_ATTEMPTS:
            return False
        attempts += 1
        try:
            return check(candidate)
        except Exception:  # noqa: BLE001 - a crashing candidate isn't smaller
            return False

    if case.virtio_abuse is not None:
        candidate = replace(case, virtio_abuse=None)
        if tryout(candidate):
            case = candidate

    # Removal and normalisation interact: slimming a spec's occurrence
    # to 1 can make a *different* spec redundant (an inert
    # occurrence=3 fault that never fired was keeping a noise spec
    # alive as the actual failure trigger).  Iterate both passes to a
    # joint fixpoint.
    changed_any = True
    while changed_any and attempts < MAX_ATTEMPTS:
        changed_any = False

        shrunk = True
        while shrunk and len(case.specs) > 0:
            shrunk = False
            for i in range(len(case.specs)):
                candidate = replace(
                    case, specs=case.specs[:i] + case.specs[i + 1:]
                )
                if tryout(candidate):
                    case = candidate
                    shrunk = True
                    changed_any = True
                    break   # indices moved; restart the sweep

        for i, spec in enumerate(case.specs):
            slimmed = dict(spec)
            changed = False
            if slimmed.get("occurrence", 1) > 1:
                slimmed["occurrence"] = 1
                changed = True
            if slimmed.get("count", 1) > 1:
                slimmed["count"] = 1
                changed = True
            if changed:
                candidate = replace(
                    case,
                    specs=case.specs[:i] + (slimmed,) + case.specs[i + 1:],
                )
                if tryout(candidate):
                    case = candidate
                    changed_any = True

    if case.retries > 0:
        candidate = replace(case, retries=0)
        if tryout(candidate):
            case = candidate

    return case
