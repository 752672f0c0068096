"""Metrics: a dependency-free, thread-safe registry of counters, gauges
and fixed-bucket histograms.

The design mirrors the Prometheus client-library data model, scaled down to
what this reproduction needs:

* A :class:`MetricsRegistry` owns metric *families* created with
  :meth:`~MetricsRegistry.counter`, :meth:`~MetricsRegistry.gauge` and
  :meth:`~MetricsRegistry.histogram`.  A family with label names hands out
  labeled children via :meth:`~MetricFamily.labels`; a family without label
  names is used directly.
* Every value mutation is guarded by a cheap ``enabled`` check so that
  instrumentation sprinkled across the hot paths costs a single attribute
  load and branch when telemetry is off — the zero-cost-when-disabled
  contract the DML latency budget (Fig. 8) depends on.
* Export comes in two shapes: Prometheus text exposition
  (:meth:`~MetricsRegistry.exposition`) for humans and scrapers, and JSON
  snapshot / delta (:meth:`~MetricsRegistry.snapshot`,
  :meth:`~MetricsRegistry.delta`) for the benchmark harness, which brackets
  an experiment with two snapshots and reports the difference.

Metric families are registered once (module import time, typically) and are
process-lived; :meth:`~MetricsRegistry.reset` zeroes the values without
invalidating family references held by instrumented modules.
"""

from __future__ import annotations

import math
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Default latency buckets (seconds); chosen so everything from tens of
#: microseconds (lock waits, hash-chain appends) through sub-millisecond row
#: operations up to multi-second verifications lands in informative buckets.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_string(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Child:
    """Base for one labeled time series; holds the value and its lock."""

    __slots__ = ("_registry", "_lock")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self._lock = threading.Lock()


class CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, registry: "MetricsRegistry") -> None:
        super().__init__(registry)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self, registry: "MetricsRegistry") -> None:
        super().__init__(registry)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class HistogramChild(_Child):
    __slots__ = ("_buckets", "_counts", "_sum", "_count")

    def __init__(
        self, registry: "MetricsRegistry", buckets: Tuple[float, ...]
    ) -> None:
        super().__init__(registry)
        self._buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._lock:
            self._count += 1
            self._sum += value
            for i, bound in enumerate(self._buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def time(self) -> "Timer":
        """Context manager observing its wall-clock duration on exit."""
        return Timer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> Dict[float, int]:
        """Cumulative count per upper bound, Prometheus style (le)."""
        cumulative = 0
        result: Dict[float, int] = {}
        with self._lock:
            for bound, count in zip(self._buckets, self._counts):
                cumulative += count
                result[bound] = cumulative
            result[math.inf] = cumulative + self._counts[-1]
        return result

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._buckets) + 1)
            self._sum = 0.0
            self._count = 0


class Timer:
    """Times a ``with`` block and observes the duration into a histogram.

    The elapsed seconds stay available as :attr:`elapsed`, so callers that
    also need the raw number (the benchmark harness) read the *same*
    measurement the histogram recorded — the two cannot drift apart.
    """

    __slots__ = ("_histogram", "_start", "elapsed")

    def __init__(self, histogram: HistogramChild) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._histogram.observe(self.elapsed)


class MetricFamily:
    """One named metric with zero or more labeled children."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self._registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = tuple(sorted(buckets)) if kind == HISTOGRAM else ()
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> _Child:
        if self.kind == COUNTER:
            return CounterChild(self._registry)
        if self.kind == GAUGE:
            return GaugeChild(self._registry)
        return HistogramChild(self._registry, self.buckets)

    def labels(self, *labelvalues: Any) -> Any:
        """The child time series for the given label values (created lazily)."""
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} label(s), "
                f"got {len(labelvalues)}"
            )
        key = tuple(str(v) for v in labelvalues)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._new_child()
                    self._children[key] = child
        return child

    # Unlabeled convenience: delegate value operations to the sole child.

    def _sole_child(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._sole_child().inc(amount)

    def set(self, value: float) -> None:
        self._sole_child().set(value)

    def observe(self, value: float) -> None:
        self._sole_child().observe(value)

    def time(self) -> Timer:
        return self._sole_child().time()

    @property
    def value(self) -> float:
        return self._sole_child().value

    @property
    def count(self) -> int:
        return self._sole_child().count

    @property
    def sum(self) -> float:
        return self._sole_child().sum

    def bucket_counts(self) -> Dict[float, int]:
        return self._sole_child().bucket_counts()

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        with self._lock:
            return list(self._children.items())

    def _reset(self) -> None:
        for _, child in self.children():
            child._reset()


class MetricsRegistry:
    """Thread-safe registry of metric families with text and JSON export."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        self._handles: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every value; family references held by callers stay valid."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family._reset()

    # ------------------------------------------------------------------
    # Family creation (idempotent by name)
    # ------------------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Iterable[str],
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = MetricFamily(
                self, name, kind, help_text, labelnames, buckets
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> MetricFamily:
        return self._register(name, COUNTER, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> MetricFamily:
        return self._register(name, GAUGE, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, HISTOGRAM, help_text, labelnames, buckets)

    def handles(self, key: str, factory: Callable[["MetricsRegistry"], Any]) -> Any:
        """Memoized per-registry bundle of metric-family handles.

        Instrumented classes resolve their bundle once at construction, so
        the hot path pays an attribute load, not a family lookup by name:

            self._m = OBS.metrics.handles("wal", _wal_metrics)

        ``factory(registry)`` runs at most once per (registry, key); family
        creation itself stays idempotent by name, so bundles resolved against
        the same registry share the underlying time series.
        """
        handle = self._handles.get(key)
        if handle is None:
            with self._lock:
                handle = self._handles.get(key)
            if handle is None:
                built = factory(self)
                with self._lock:
                    handle = self._handles.setdefault(key, built)
        return handle

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------

    def exposition(self) -> str:
        """Render every family in the Prometheus text format (v0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family.children():
                labelstr = _label_string(family.labelnames, labelvalues)
                if family.kind == HISTOGRAM:
                    for bound, count in child.bucket_counts().items():
                        le = _format_value(float(bound))
                        if family.labelnames:
                            bucket_labels = labelstr[:-1] + f',le="{le}"}}'
                        else:
                            bucket_labels = f'{{le="{le}"}}'
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {count}"
                        )
                    lines.append(
                        f"{family.name}_sum{labelstr} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{labelstr} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{labelstr} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # JSON snapshot / delta
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every metric's current values."""
        result: Dict[str, Any] = {}
        for family in self.families():
            samples = []
            for labelvalues, child in family.children():
                labels = dict(zip(family.labelnames, labelvalues))
                if family.kind == HISTOGRAM:
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": {
                                _format_value(float(bound)): count
                                for bound, count in child.bucket_counts().items()
                            },
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            result[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return result

    def delta(self, previous: Dict[str, Any]) -> Dict[str, Any]:
        """Difference between the current state and an earlier snapshot.

        Counters and histogram counts/sums subtract; gauges report their
        current value (a gauge has no meaningful difference).  Samples whose
        delta is all-zero are dropped, so the result shows exactly what an
        experiment did.
        """
        current = self.snapshot()
        result: Dict[str, Any] = {}
        for name, data in current.items():
            prev_samples = {
                _labels_key(s["labels"]): s
                for s in previous.get(name, {}).get("samples", [])
            }
            out_samples = []
            for sample in data["samples"]:
                before = prev_samples.get(_labels_key(sample["labels"]))
                if data["type"] == GAUGE:
                    if sample["value"] != 0:
                        out_samples.append(dict(sample))
                    continue
                if data["type"] == HISTOGRAM:
                    prev_count = before["count"] if before else 0
                    prev_sum = before["sum"] if before else 0.0
                    prev_buckets = before["buckets"] if before else {}
                    count = sample["count"] - prev_count
                    if count == 0:
                        continue
                    out_samples.append(
                        {
                            "labels": sample["labels"],
                            "count": count,
                            "sum": sample["sum"] - prev_sum,
                            "buckets": {
                                le: c - prev_buckets.get(le, 0)
                                for le, c in sample["buckets"].items()
                            },
                        }
                    )
                    continue
                prev_value = before["value"] if before else 0.0
                value = sample["value"] - prev_value
                if value == 0:
                    continue
                out_samples.append({"labels": sample["labels"], "value": value})
            if out_samples:
                result[name] = {
                    "type": data["type"],
                    "help": data["help"],
                    "samples": out_samples,
                }
        return result


def _labels_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))
