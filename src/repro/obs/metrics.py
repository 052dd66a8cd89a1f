"""A zero-dependency metrics registry (counters, gauges, histograms).

The paper's evaluation is entirely about *where time goes* (Figures
9-11: transform vs. matching vs. recommendation handling as workload,
plan and KB size scale), and the ROADMAP's production north star needs
those numbers **exported**, not printed.  This module is the substrate:
a :class:`MetricsRegistry` of named metrics that every layer (engine,
knowledge base, server, client) records into, rendered for scraping by
:mod:`repro.obs.prometheus`.  The engine keeps no second copy: its
``stats()`` dict is a read of its registry series.

Design constraints (this sits next to hot paths):

* **lock-cheap** — one :class:`threading.Lock` per metric, shared by its
  label children; an increment is ``with lock: value += n``.  There is
  no global registry lock on the record path (the registry lock guards
  only metric *creation*).
* **pre-bound label children** — ``metric.labels(...)`` resolves the
  label tuple to a child object once; callers hold the child and the
  per-record cost never includes label hashing:

      shed = registry.counter("x_shed_total", "...", ("route",))
      shed_search = shed.labels("search")      # bind once
      ...
      shed_search.inc()                        # hot path: lock + add

* **fixed-bucket histograms** — bucket upper bounds are immutable after
  creation; an observation is one linear scan over a small tuple (the
  default has 14 buckets) plus the locked update.

Metrics are cumulative, in line with Prometheus semantics: values only
reset when the process (or the registry) does.  :meth:`MetricsRegistry.
collect` returns a point-in-time snapshot taken metric-by-metric (each
under its own lock) — consistent per metric, not across metrics, exactly
the guarantee a scrape gets from any Prometheus client library.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricSample",
    "MetricSnapshot",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds): tuned for query-evaluation
#: latencies from sub-millisecond cache hits to multi-second KB runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name cannot start with a digit: {name!r}")


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not label or not all(c.isalnum() or c == "_" for c in label):
            raise ValueError(f"invalid label name {label!r}")
        if label.startswith("__"):
            raise ValueError(f"label names starting with __ are reserved: {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names: {names!r}")
    return names


class MetricSample:
    """One exported sample: a (suffix, labels, value) triple."""

    __slots__ = ("suffix", "labels", "value")

    def __init__(self, suffix: str, labels: Tuple[Tuple[str, str], ...], value: float):
        self.suffix = suffix
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricSample({self.suffix!r}, {self.labels!r}, {self.value!r})"


class MetricSnapshot:
    """Point-in-time view of one metric family (for exporters)."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help: str, samples: List[MetricSample]):
        self.name = name
        self.kind = kind
        self.help = help
        self.samples = samples


class Metric:
    """Base class: a named family with label children sharing one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        _validate_name(name)
        self.name = name
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            # Pre-bind the single unlabeled child so unlabeled metrics
            # expose the child API directly (inc/observe/... on self).
            self._default = self._make_child(())
            self._children[()] = self._default
        else:
            self._default = None

    # -- child management ----------------------------------------------
    def _make_child(self, values: Tuple[str, ...]):
        raise NotImplementedError

    def labels(self, *values, **kwvalues):
        """The pre-bound child for one label-value combination.

        Accepts positional values (in ``labelnames`` order) or keyword
        values; repeated calls return the same child object.
        """
        if values and kwvalues:
            raise ValueError("pass label values positionally or by name, not both")
        if kwvalues:
            try:
                values = tuple(str(kwvalues.pop(label)) for label in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r} for {self.name}")
            if kwvalues:
                raise ValueError(
                    f"unknown labels {sorted(kwvalues)} for {self.name}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label value(s) "
                f"({', '.join(self.labelnames)}), got {len(values)}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child(values)
                self._children[values] = child
            return child

    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; call .labels(...) first"
            )
        return self._default

    # -- export --------------------------------------------------------
    def snapshot(self) -> MetricSnapshot:
        with self._lock:
            samples: List[MetricSample] = []
            for values in sorted(self._children):
                child = self._children[values]
                label_pairs = tuple(zip(self.labelnames, values))
                samples.extend(child._samples(label_pairs))  # type: ignore[attr-defined]
        return MetricSnapshot(self.name, self.kind, self.help, samples)


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _samples(self, labels):
        return [MetricSample("", labels, self._value)]


class Counter(Metric):
    """A monotonically increasing count (events, errors, cache hits)."""

    kind = "counter"

    def _make_child(self, values):
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _samples(self, labels):
        return [MetricSample("", labels, self._value)]


class Gauge(Metric):
    """A value that can go up and down (in-flight requests, sizes)."""

    kind = "gauge"

    def _make_child(self, values):
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    @property
    def value(self) -> float:
        return self._require_default().value


class _HistogramChild:
    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, buckets: Tuple[float, ...]):
        self._lock = lock
        self._buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = 0
        buckets = self._buckets
        n = len(buckets)
        # Fixed buckets, small n: a linear scan beats bisect overhead.
        while index < n and value > buckets[index]:
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _samples(self, labels):
        samples = []
        cumulative = 0
        for bound, bucket_count in zip(self._buckets, self._counts):
            cumulative += bucket_count
            samples.append(
                MetricSample("_bucket", labels + (("le", _format_bound(bound)),), cumulative)
            )
        cumulative += self._counts[-1]
        samples.append(MetricSample("_bucket", labels + (("le", "+Inf"),), cumulative))
        samples.append(MetricSample("_sum", labels, self._sum))
        samples.append(MetricSample("_count", labels, self._count))
        return samples


def _format_bound(bound: float) -> str:
    if bound == _INF:
        return "+Inf"
    if bound == int(bound):
        return f"{bound:.1f}"
    return repr(bound)


class Histogram(Metric):
    """Fixed-bucket distribution of observations (latencies, sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        ordered = tuple(sorted(float(b) for b in buckets if b != _INF))
        if not ordered:
            raise ValueError("histogram needs at least one finite bucket")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate histogram buckets: {buckets!r}")
        self.buckets = ordered
        super().__init__(name, help, labelnames)

    def _make_child(self, values):
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def count(self) -> int:
        return self._require_default().count

    @property
    def sum(self) -> float:
        return self._require_default().sum


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when one with the same name is already registered — so components
    handed one registry (the server gives its engine, knowledge base
    and store the same one) share series without coordination — and
    raise :class:`ValueError` when the existing registration disagrees
    on type, label names or buckets (a silent mismatch would corrupt
    the export).  There is no process-wide default: a component built
    without a registry records into a private one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- creation ------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if existing.labelnames != _validate_labelnames(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}"
                    )
                if cls is Histogram:
                    wanted = tuple(sorted(float(b) for b in kwargs["buckets"]))
                    if existing.buckets != wanted:  # type: ignore[attr-defined]
                        raise ValueError(
                            f"histogram {name!r} already registered with "
                            f"different buckets"
                        )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # -- introspection -------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def collect(self) -> List[MetricSnapshot]:
        """Per-metric-consistent snapshots, sorted by metric name."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return [metric.snapshot() for metric in metrics]
