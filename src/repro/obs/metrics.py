"""Hierarchical metrics registry: typed Counter/Gauge/Histogram.

Every metric lives in exactly one :class:`MetricsRegistry` tree and is
addressed by ``(subsystem, name, labels)`` — e.g.
``("kvm", "vmexits", (("vm", "1000"),))``.  Subsystems are dot-joined
paths ("virtio.blk"); labels are sorted key/value pairs, so the same
logical metric is always the same object no matter the call site.

The registry is the single source of truth for every counter in the
simulator.  Legacy attribute counters (``CostModel.counters``,
``AccessorStats.reads``, gateway ``tlb_hits``...) are thin shims that
read and write metrics in this tree, so a snapshot here sees everything.

Determinism contract: metrics carry no wall-clock state, iteration in
:meth:`MetricsRegistry.walk` is sorted by full key, and
:meth:`snapshot` returns plain dicts that ``json.dumps`` renders
byte-identically for identical runs.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

LabelPairs = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, str, LabelPairs]


class Counter:
    """Monotonic (by convention) integer counter.

    ``value`` is writable so legacy shims can migrate pre-existing
    totals in (``AccessorStats.bind``) or reset between measurement
    windows (``CostModel.reset_counters``).
    """

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs) -> None:
        self.name = name
        self.labels = labels
        self.value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def sample(self) -> Dict[str, int]:
        return {"value": self.value}


class Gauge:
    """Point-in-time value (fleet size, iodepth, seed...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs) -> None:
        self.name = name
        self.labels = labels
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, n: Union[int, float] = 1) -> None:
        self.value += n

    def dec(self, n: Union[int, float] = 1) -> None:
        self.value -= n

    def sample(self) -> Dict[str, Union[int, float]]:
        return {"value": self.value}


class Histogram:
    """Exact-value histogram: observed value -> occurrence count.

    The simulator observes small discrete values (batch depths, iovec
    segment counts), so exact sample retention is cheaper than bucket
    schemes and keeps shims like ``CostModel.batch_histogram`` lossless.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "samples", "sum", "count")

    def __init__(self, name: str, labels: LabelPairs) -> None:
        self.name = name
        self.labels = labels
        self.samples: Dict[Union[int, float], int] = {}
        self.sum: Union[int, float] = 0
        self.count: int = 0

    def observe(self, value: Union[int, float], n: int = 1) -> None:
        self.samples[value] = self.samples.get(value, 0) + n
        self.sum += value * n
        self.count += n

    def sample(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "samples": {str(k): v for k, v in sorted(self.samples.items())},
        }


Metric = Union[Counter, Gauge, Histogram]

_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A subsystem-scoped view onto a shared metric tree.

    The root registry owns the storage; :meth:`scope` returns child
    views that prepend a subsystem path segment and merge default
    labels.  Metric accessors (``counter``/``gauge``/``histogram``)
    get-or-create, so concurrent layers binding the same key share one
    object.
    """

    __slots__ = ("_store", "subsystem", "_labels", "_handles")

    def __init__(
        self,
        _store: Optional[Dict[MetricKey, Metric]] = None,
        subsystem: str = "",
        labels: LabelPairs = (),
        _handles: Optional[Dict[tuple, Metric]] = None,
    ) -> None:
        self._store = _store if _store is not None else {}
        self.subsystem = subsystem
        self._labels = labels
        # Interned handle cache, shared across every scope view of one
        # tree (like _store): maps a call-site-shaped key — raw label
        # kwargs in call order, *before* str()-normalisation and
        # sorting — straight to the metric object, so the hot path
        # skips the merged-dict build and the sorted-tuple rebuild in
        # ``_key``.  Keyed by (subsystem, view labels, kind, name,
        # kwargs items) so two views that merge to different label
        # sets can never collide.
        self._handles = _handles if _handles is not None else {}

    # -- tree navigation ---------------------------------------------------

    def scope(self, *parts: str, **labels: object) -> "MetricsRegistry":
        """Child view under ``subsystem.part[.part...]`` + extra labels."""
        path = ".".join(p for p in (self.subsystem, *parts) if p)
        merged = dict(self._labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return MetricsRegistry(
            self._store, path, tuple(sorted(merged.items())), self._handles
        )

    # -- metric accessors (get-or-create) ----------------------------------

    def _key(self, name: str, labels: Dict[str, object]) -> MetricKey:
        if labels:
            merged = dict(self._labels)
            merged.update({k: str(v) for k, v in labels.items()})
            pairs: LabelPairs = tuple(sorted(merged.items()))
        else:
            pairs = self._labels
        return (self.subsystem, name, pairs)

    def _get(self, kind: str, name: str, labels: Dict[str, object]) -> Metric:
        try:
            handle = (self.subsystem, self._labels, kind, name,
                      tuple(labels.items()))
            metric = self._handles.get(handle)
        except TypeError:           # unhashable label value: uncached path
            handle = None
            metric = None
        if metric is not None:
            return metric
        key = self._key(name, labels)
        metric = self._store.get(key)
        if metric is None:
            metric = _METRIC_TYPES[kind](name, key[2])
            self._store[key] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {key} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        if handle is not None:
            self._handles[handle] = metric
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get("counter", name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get("gauge", name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get("histogram", name, labels)  # type: ignore[return-value]

    def discard(self, name: str, **labels: object) -> None:
        """Drop a metric from the tree (measurement-window resets).

        Handle-cache entries resolving to the dropped object are purged
        too, from every scope view (the cache is tree-shared) — a stale
        handle would silently resurrect the orphaned object while the
        store grows a fresh one, splitting the counts.
        """
        dead = self._store.pop(self._key(name, labels), None)
        if dead is not None:
            for handle in [h for h, m in self._handles.items() if m is dead]:
                del self._handles[handle]

    # -- introspection / export --------------------------------------------

    def walk(self) -> Iterator[Tuple[MetricKey, Metric]]:
        """All metrics under this scope's subsystem prefix, key-sorted."""
        prefix = self.subsystem
        for key in sorted(self._store):
            subsystem = key[0]
            if prefix and subsystem != prefix and not subsystem.startswith(prefix + "."):
                continue
            yield key, self._store[key]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic plain-dict snapshot, keyed by rendered name.

        Rendered key: ``subsystem.name{label="v",...}`` — stable and
        human-greppable; ``json.dumps(..., sort_keys=True)`` of this is
        byte-identical across same-seed runs.
        """
        out: Dict[str, Dict[str, object]] = {}
        for (subsystem, name, labels), metric in self.walk():
            full = f"{subsystem}.{name}" if subsystem else name
            if labels:
                rendered = ",".join(f'{k}="{v}"' for k, v in labels)
                full = f"{full}{{{rendered}}}"
            entry: Dict[str, object] = {"kind": metric.kind}
            entry.update(metric.sample())
            out[full] = entry
        return out

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())
