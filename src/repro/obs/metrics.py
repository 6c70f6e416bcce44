"""Counters, gauges and histograms with per-rank / per-node labels: a
view of the trace.

A :class:`MetricsRegistry` reads the simulator's
:class:`~repro.obs.tracer.Tracer`, so it needs one attached first;
nothing in the runtime writes a metric.  Every read first replays the
events recorded since the previous read, one handler per event name
(the :class:`~repro.obs.tracer.TraceReader` protocol), so a run pays
nothing per message for its metrics, and each metric equals its trace
twin -- ``fmi.recovery_latency_s`` is the ``recovery`` span's ``dur``:

    tracer = Tracer(sim)
    metrics = MetricsRegistry(sim)
    ...
    metrics.sum_counters("net.msgs_sent")
    metrics.histogram("ckpt.checkpoint_s").mean

A registry counts the events recorded after it was built, in the order
they were recorded.  Metrics are get-or-create: the first read or
update of a (name, labels) pair creates the instrument, later ones
return the same object.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import TraceEvent, TraceReader, Tracer

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "percentile"]

LabelSet = Tuple[Tuple[str, Any], ...]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of the sorted ``ordered``, ``q`` in
    [0, 100]: the smallest value with at least ``q`` % of the values at
    or below it (the least one for ``q = 0``; 0.0 when empty)."""
    if not ordered:
        return 0.0
    idx = math.ceil(q / 100.0 * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, idx))]


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
        return percentile(sorted(self.values), q)

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class MetricsRegistry(TraceReader):
    """Labelled metric store for one simulation, read off its trace."""

    EVENTS = (
        "net.recv", "net.drop_dead", "net.drop_stale", "net.drop_dup",
        "net.drop_lseq_dup", "mlog.log", "mlog.gc",
        "mlog.restore", "mlog.replay.done", "ckpt.checkpoint", "ckpt.restore",
        "overlay.notified", "recovery.begin", "recovery", "sched.submit",
        "sched.start", "sched.requeue", "failure.inject", "node.crash",
        "mpi.collective",
    )

    def __init__(self, sim) -> None:
        tracer = sim.tracer
        if not isinstance(tracer, Tracer):
            raise ValueError("MetricsRegistry reads the trace: attach a "
                             "Tracer to the simulator first")
        self._tracer = tracer
        self._seen = len(tracer.events)  # what was recorded before is not ours
        self._metrics: Dict[Tuple[str, str, LabelSet], Any] = {}
        #: job -> its first ``sched.submit`` time; None once it started
        self._submitted: Dict[Any, Optional[float]] = {}

    # -- the trace, read on demand ------------------------------------------
    def _read(self) -> None:
        events = self._tracer.events
        if self._seen < len(events):
            fresh = events[self._seen:]
            self._seen = len(events)
            self.replay(fresh)

    def _get(self, cls, name: str, **labels: Any):
        key = cls.kind, name, tuple(sorted(labels.items()))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls()
        return metric

    # -- access ------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        self._read()
        return self._get(Counter, name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        self._read()
        return self._get(Gauge, name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        self._read()
        return self._get(Histogram, name, **labels)

    # -- aggregation -------------------------------------------------------
    def sum_counters(self, name: str) -> float:
        """Total of every label set of counter ``name``."""
        self._read()
        return sum(
            metric.value
            for (kind, n, _labels), metric in self._metrics.items()
            if kind == "counter" and n == name
        )

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic flat dump: ``kind:name{k=v,...} -> snapshot``."""
        self._read()
        out: Dict[str, Any] = {}
        for (kind, name, labels) in sorted(self._metrics, key=repr):
            label_txt = ",".join(f"{k}={v}" for k, v in labels)
            out[f"{kind}:{name}{{{label_txt}}}"] = self._metrics[
                (kind, name, labels)
            ].snapshot()
        return out

    # -- handlers: one per event name ---------------------------------------
    def _on_net_recv(self, ev: TraceEvent) -> None:
        # A message's one record: its outcome counts per destination
        # node, and the message as sent from its source node -- once,
        # on the record of the copy that is not a duplicate's twin.
        self._get(Counter, ev.name, node=ev.node).inc()
        args = ev.args
        if "dup" not in args:
            node = args["src_node"]
            self._get(Counter, "net.msgs_sent", node=node).inc()
            self._get(Counter, "net.bytes_sent", node=node).inc(args["nbytes"])

    _on_net_drop_dead = _on_net_drop_stale = _on_net_recv
    _on_net_drop_dup = _on_net_drop_lseq_dup = _on_net_recv

    def _on_mlog_log(self, ev: TraceEvent) -> None:
        self._get(Counter, "mlog.logged_msgs").inc()

    def _on_mlog_gc(self, ev: TraceEvent) -> None:
        self._get(Counter, "mlog.gc_entries").inc(ev.args["entries"])

    def _on_mlog_restore(self, ev: TraceEvent) -> None:
        self._get(Histogram, "mlog.restore_latency_s").observe(ev.dur)

    def _on_mlog_replay_done(self, ev: TraceEvent) -> None:
        self._get(Counter, "mlog.replayed_msgs").inc(ev.args["msgs"])
        self._get(Counter, "mlog.replayed_bytes").inc(ev.args["nbytes"])

    def _on_ckpt_checkpoint(self, ev: TraceEvent) -> None:
        self._get(Counter, "ckpt.checkpoints").inc()
        self._get(Histogram, "ckpt.checkpoint_s").observe(ev.dur)

    def _on_ckpt_restore(self, ev: TraceEvent) -> None:
        if ev.args["outcome"] == "restored":  # not a cold start
            self._get(Counter, "ckpt.restores").inc()
            self._get(Histogram, "ckpt.restore_s").observe(ev.dur)

    def _on_overlay_notified(self, ev: TraceEvent) -> None:
        self._get(Histogram, "overlay.notify_hops").observe(ev.args["hop"])

    def _on_recovery_begin(self, ev: TraceEvent) -> None:
        job = ev.args["job"]
        self._get(Counter, "fmi.recoveries", job=job).inc()
        self._get(Gauge, "fmi.epoch", job=job).set(ev.epoch)

    def _on_recovery(self, ev: TraceEvent) -> None:
        self._get(Histogram, "fmi.recovery_latency_s",
                  job=ev.args["job"]).observe(ev.dur)

    def _on_sched_submit(self, ev: TraceEvent) -> None:
        self._submitted.setdefault(ev.args["job"], ev.ts)

    def _on_sched_start(self, ev: TraceEvent) -> None:
        job = ev.args["job"]
        submitted = self._submitted.get(job)
        if submitted is not None:  # the first start: the queue wait
            self._submitted[job] = None
            self._get(Histogram, "sched.wait_s", job=job).observe(
                ev.ts - submitted)

    def _on_sched_requeue(self, ev: TraceEvent) -> None:
        self._get(Counter, "sched.restarts", job=ev.args["job"]).inc()

    def _on_failure_inject(self, ev: TraceEvent) -> None:
        self._get(Counter, "failures.injected", type=ev.args["type"]).inc()

    def _on_node_crash(self, ev: TraceEvent) -> None:
        self._get(Counter, "node.crashes").inc()

    def _on_mpi_collective(self, ev: TraceEvent) -> None:
        self._get(Counter, "mpi.collectives", kind=ev.args["kind"]).inc()
