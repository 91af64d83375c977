"""The fuzz corpus: shrunk failing cases CI replays forever.

Each entry is one JSON file, named by the digest of its canonical
case encoding so re-finding the same minimal case is idempotent.  An
entry records the case, the violations it produced, and whether the
seeded bug flag (``requires_plant``) must be armed to reproduce —
regressions found organically replay with the flag off.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import RecordingError
from repro.replay.scenarios import AttachCase, CaseResult, run_attach_case

ENTRY_FORMAT = "vmsh-fuzz-corpus-entry"
ENTRY_VERSION = 1


def case_digest(case: AttachCase) -> str:
    payload = json.dumps(case.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class CorpusEntry:
    case: AttachCase
    violations: List[str]
    requires_plant: bool = False
    found_by: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": ENTRY_FORMAT,
                "version": ENTRY_VERSION,
                "case": self.case.to_json(),
                "violations": self.violations,
                "requires_plant": self.requires_plant,
                "found_by": self.found_by,
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, payload: str) -> "CorpusEntry":
        doc = json.loads(payload)
        if doc.get("format") != ENTRY_FORMAT:
            raise RecordingError(
                f"not a corpus entry (format={doc.get('format')!r})"
            )
        if doc.get("version") != ENTRY_VERSION:
            raise RecordingError(
                f"corpus entry version {doc.get('version')!r} unsupported"
            )
        return cls(
            case=AttachCase.from_json(doc["case"]),
            violations=list(doc["violations"]),
            requires_plant=doc.get("requires_plant", False),
            found_by=doc.get("found_by", ""),
        )


def save_entry(entry: CorpusEntry, corpus_dir) -> Path:
    out_dir = Path(corpus_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"case-{case_digest(entry.case)}.json"
    path.write_text(entry.to_json())
    return path


def load_entries(corpus_dir) -> List[Tuple[Path, CorpusEntry]]:
    out_dir = Path(corpus_dir)
    entries = []
    for path in sorted(out_dir.glob("case-*.json")):
        entries.append((path, CorpusEntry.from_json(path.read_text())))
    return entries


def replay_entry(
    entry: CorpusEntry, plant_bug: Optional[bool] = None
) -> Dict[str, Any]:
    """Re-run a corpus entry; reproduced == its violations recur.

    ``plant_bug`` defaults to the entry's own ``requires_plant`` so a
    seeded-bug entry replays with the bug armed and an organic entry
    replays against the honest pipeline.
    """
    armed = entry.requires_plant if plant_bug is None else plant_bug
    result: CaseResult = run_attach_case(entry.case, plant_bug=armed)
    reproduced = all(v in result.violations for v in entry.violations)
    return {
        "reproduced": reproduced,
        "expected": list(entry.violations),
        "observed": list(result.violations),
        "outcome": result.outcome,
    }
