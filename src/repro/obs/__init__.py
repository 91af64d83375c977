"""Observability spine: spans + metrics + exporters, one hub per testbed.

:class:`Observability` bundles the span recorder and the metrics
registry behind a single object that rides on :class:`~repro.sim.costs.
CostModel` (``costs.obs``) — the one dependency already threaded
through every layer (devices, transports, KVM, guest kernels) — so any
code that can charge a cost can also open a span, mark an instant or
bump a metric without new plumbing.  ``Testbed`` creates the root hub;
a standalone ``HostKernel``/``CostModel`` creates a private one, so
instrumentation never needs a None-check on the hot path.  The span
recorder's spans and instants are the program's one event stream:
Perfetto export, fuzz coverage, run recordings and replay all read it.

See DESIGN.md §12 for the span/metric model and the determinism
contract (same seed => byte-identical exports).
"""

from __future__ import annotations

from typing import Dict

from repro.obs import export as _export
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
]


class Observability:
    """Root observability hub: one metric tree + one span recorder."""

    def __init__(self, clock, max_spans: int = 250_000) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(clock, max_spans=max_spans)
        self._id_counters: Dict[str, int] = {}

    def next_id(self, kind: str) -> int:
        """Per-hub monotonic id stream (attach sessions, gateways...).

        Module-level counters would leak across testbeds inside one
        process and break same-seed byte-identity; these reset with the
        hub, so two fresh same-seed runs mint identical ids.
        """
        n = self._id_counters.get(kind, 0) + 1
        self._id_counters[kind] = n
        return n

    # -- convenience passthroughs -----------------------------------------

    def span(self, name: str, /, track: str = "main", **attrs: object):
        return self.spans.span(name, track, **attrs)

    def instant(self, name: str, /, track: str = "main", **attrs: object) -> Span:
        return self.spans.instant(name, track, **attrs)

    # -- exports -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def metrics_json(self) -> str:
        return _export.metrics_json(self.metrics)

    def prometheus(self) -> str:
        return _export.prometheus_text(self.metrics)

    def perfetto_json(self) -> str:
        return _export.perfetto_json(self.spans)
