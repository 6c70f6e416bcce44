"""Counters, gauges and histograms with per-rank / per-node labels.

A :class:`MetricsRegistry` attaches to a simulator (``sim.metrics``)
the same way the tracer does.  Instrumentation sites ask the registry
for a metric by name + labels and update it:

    sim.metrics.counter("net.msgs", node=3).inc()
    sim.metrics.histogram("ckpt.encode_s").observe(dt)

Metrics are get-or-create: the first call with a given (name, labels)
pair creates the instrument, later calls return the same object.  When
the registry is disabled (the default :data:`NULL_METRICS`), every
accessor returns a shared no-op instrument, so un-instrumented runs
pay one branch per update site.

That lookup sorts its labels on every call, which is fine for a site
reached once per checkpoint or per failure.  A site reached once per
message holds its instrument instead -- ``counter_at`` resolves the
same counter once and is a dict subscript from then on:

    sim.metrics.counter_at["net.msgs", "node", 3].inc()

Like the tracer, this module imports nothing from the rest of
``repro``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
]

LabelSet = Tuple[Tuple[str, Any], ...]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        # ``not >=`` rather than ``<``: NaN must not reach the total.
        if not amount >= 0:
            raise ValueError(f"counters only go up, not by {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """All observed values, with summary statistics on demand.

    Simulated experiments are small enough that keeping the raw values
    beats pre-bucketing: summaries can compute exact percentiles, and
    the paper-figure reports need full distributions anyway.
    """

    __slots__ = ("values",)
    kind = "histogram"

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile (nearest-rank), ``q`` in [0, 100]."""
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        idx = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[idx]

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class _NullInstrument:
    """Accepts updates and drops them (disabled-registry path)."""

    __slots__ = ()
    kind = "null"
    value = 0.0
    values: List[float] = []
    count = 0
    total = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class _CounterTable(dict):
    """``table[name, label, value]`` is ``registry.counter(name,
    **{label: value})``: the registry's own get-or-create on the first
    use of a key -- same instrument, same creation order, same
    snapshot -- and a plain dict hit on every later one."""

    __slots__ = ("_registry",)

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry

    def __missing__(self, key: Tuple[str, str, Any]) -> Counter:
        name, label, value = key
        counter = self._registry.counter(name, **{label: value})
        if counter is not _NULL_INSTRUMENT:  # a disabled registry may wake
            self[key] = counter
        return counter


class MetricsRegistry:
    """Labelled metric store for one simulation."""

    enabled: bool

    def __init__(self, sim=None, enabled: bool = True, attach: bool = True):
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, str, LabelSet], Any] = {}
        #: one-label counters for per-message sites, resolved once:
        #: ``counter_at[name, label, value].inc()``
        self.counter_at: Dict[Tuple[str, str, Any], Counter] = _CounterTable(self)
        if sim is not None and attach:
            sim.metrics = self

    # -- access ------------------------------------------------------------
    @staticmethod
    def _key(kind: str, name: str, labels: Dict[str, Any]) -> Tuple[str, str, LabelSet]:
        return kind, name, tuple(sorted(labels.items()))

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = self._key(cls.kind, name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls()
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- aggregation -------------------------------------------------------
    def merged_histogram(self, name: str) -> Histogram:
        """One histogram combining every label set of ``name``."""
        merged = Histogram()
        for (kind, n, _labels), metric in self._metrics.items():
            if kind == "histogram" and n == name:
                merged.values.extend(metric.values)
        return merged

    def sum_counters(self, name: str) -> float:
        """Total of every label set of counter ``name``."""
        return sum(
            metric.value
            for (kind, n, _labels), metric in self._metrics.items()
            if kind == "counter" and n == name
        )

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic flat dump: ``kind:name{k=v,...} -> snapshot``."""
        out: Dict[str, Any] = {}
        for (kind, name, labels) in sorted(self._metrics, key=repr):
            label_txt = ",".join(f"{k}={v}" for k, v in labels)
            out[f"{kind}:{name}{{{label_txt}}}"] = self._metrics[
                (kind, name, labels)
            ].snapshot()
        return out


class NullMetricsRegistry(MetricsRegistry):
    """The default registry: permanently disabled."""

    def __init__(self) -> None:
        super().__init__(sim=None, enabled=False, attach=False)


#: Shared no-op registry every fresh :class:`Simulator` starts with.
NULL_METRICS = NullMetricsRegistry()
