"""Exporters: Prometheus text, JSON metric snapshots, Perfetto traces.

All three renderings are pure functions of registry/recorder state with
fully sorted or first-use-ordered output, so same-seed runs export
byte-identical artifacts — the determinism contract the chaos suite
asserts (``tests/chaos/test_obs_determinism.py``).

The Perfetto export targets the Chrome trace-event JSON object format
(``{"traceEvents": [...]}``) with complete ("X") events, which both
``chrome://tracing`` and https://ui.perfetto.dev load directly.  Virtual
nanoseconds map onto trace microseconds (``ts = ns / 1000``); each span
track becomes a named thread so nested attach steps render as a flame
under their attach attempt.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

TRACE_PID = 1  # one simulated "process" per testbed


# -- metrics -----------------------------------------------------------------


def metrics_json(registry: MetricsRegistry) -> str:
    """Canonical JSON snapshot: sorted keys, 2-space indent, newline."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2) + "\n"


def _prom_name(subsystem: str, name: str) -> str:
    flat = "_".join(p for p in (subsystem.replace(".", "_"), name) if p)
    return "vmsh_" + _PROM_SANITIZE.sub("_", flat)


def _prom_labels(labels, extra: str = "") -> str:
    parts = [f'{_PROM_SANITIZE.sub("_", k)}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format, deterministically ordered.

    Histograms render cumulative ``_bucket`` series over the exact
    observed values (plus ``+Inf``), with ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    seen_headers: Dict[str, None] = {}
    for (subsystem, name, labels), metric in registry.walk():
        pname = _prom_name(subsystem, name)
        if pname not in seen_headers:
            seen_headers[pname] = None
            lines.append(f"# TYPE {pname} {metric.kind}")
        if metric.kind == "histogram":
            cumulative = 0
            for value, count in sorted(metric.samples.items()):
                cumulative += count
                le = 'le="%s"' % value
                lines.append(
                    f"{pname}_bucket{_prom_labels(labels, le)} {cumulative}"
                )
            inf = 'le="+Inf"'
            lines.append(
                f"{pname}_bucket{_prom_labels(labels, inf)} {metric.count}"
            )
            lines.append(f"{pname}_sum{_prom_labels(labels)} {metric.sum}")
            lines.append(f"{pname}_count{_prom_labels(labels)} {metric.count}")
        else:
            lines.append(f"{pname}{_prom_labels(labels)} {metric.value}")
    return "\n".join(lines) + "\n"


# -- spans / Perfetto --------------------------------------------------------


def perfetto_trace(recorder: SpanRecorder) -> dict:
    """Chrome trace-event object for the recorded spans.

    Tracks map to threads of one synthetic process; thread ids follow
    first-use order so the layout is stable across same-seed runs.
    Spans still open at export time are rendered up to the current
    virtual clock with ``"open": true``.
    """
    events: List[dict] = []
    tids = {track: tid for tid, track in enumerate(recorder.tracks(), start=1)}
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    now = recorder.clock.now
    for span in recorder.spans:
        end = span.end_ns if span.end_ns is not None else now
        args = {k: _jsonable(v) for k, v in span.attrs.items()}
        args["sid"] = span.sid
        if span.parent_sid is not None:
            args["parent_sid"] = span.parent_sid
        if span.end_ns is None:
            args["open"] = True
        events.append(
            {
                "name": span.name,
                "cat": span.track,
                "ph": "X",
                "pid": TRACE_PID,
                "tid": tids[span.track],
                "ts": span.start_ns / 1000,  # trace ts is in microseconds
                "dur": (end - span.start_ns) / 1000,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "virtual",
            "span_count": len(recorder),
            "dropped_spans": recorder.dropped_spans,
        },
    }


def perfetto_json(recorder: SpanRecorder) -> str:
    return json.dumps(perfetto_trace(recorder), sort_keys=True, indent=1) + "\n"


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def validate_trace_events(trace: object) -> List[str]:
    """Structural check against the trace-event JSON object format.

    Returns a list of problems (empty == valid).  Used by the CLI and
    CI to guarantee the artifact loads in ui.perfetto.dev before it is
    uploaded.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["top level must be a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ['missing or non-array "traceEvents"']
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ev.get("name"), str):
            problems.append(f'{where}: missing string "name"')
        if not isinstance(ph, str) or not ph:
            problems.append(f'{where}: missing phase "ph"')
            continue
        if not isinstance(ev.get("pid"), int):
            problems.append(f'{where}: missing integer "pid"')
        if ph == "M":
            if not isinstance(ev.get("args"), dict):
                problems.append(f'{where}: metadata event without "args"')
            continue
        if ph == "X":
            for field in ("ts", "dur"):
                v = ev.get(field)
                if not isinstance(v, (int, float)) or v < 0:
                    problems.append(
                        f'{where}: "X" event needs non-negative "{field}"'
                    )
            if not isinstance(ev.get("tid"), int):
                problems.append(f'{where}: missing integer "tid"')
        else:
            problems.append(f'{where}: unexpected phase {ph!r}')
    return problems
