"""repro.obs -- observability: structured tracing, metrics, exporters.

* :class:`~repro.obs.tracer.Tracer` records typed events (sim-time,
  rank, node, incarnation, epoch) from instrumentation hooks wired
  through the transport, overlay detector, FMI runtime, checkpoint
  engine and failure injectors.  Attach one to a simulator before
  launching a job::

      sim = Simulator()
      tracer = Tracer(sim)            # sim.tracer now records
      metrics = MetricsRegistry(sim)  # reads what the tracer records

* :class:`~repro.obs.metrics.MetricsRegistry` holds labelled counters,
  gauges and histograms, a view of the trace: each read replays the
  events recorded since the last one, and no hook writes a metric.
* :mod:`~repro.obs.export` writes deterministic JSONL (byte-identical
  across replays of a seeded scenario) and Chrome ``trace_event`` JSON.
* :mod:`~repro.obs.summary` turns a trace into the paper's quantities:
  notification-hop distributions, checkpoint-phase times, recovery
  windows.  Its :class:`~repro.obs.summary.TraceSummary` reads through
  :class:`~repro.obs.tracer.TraceReader`, one handler per event name,
  live or replayed (:func:`~repro.obs.summary.summarize`).  Also a CLI:
  ``python -m repro.obs.summary trace.jsonl``.

When nothing is attached, every hook hits the shared no-op
:data:`~repro.obs.tracer.NULL_TRACER`, keeping the un-instrumented
fast path within noise of the un-instrumented build.

(`summary` is imported lazily -- ``from repro.obs import summary`` --
because this package sits below the simulation kernel in the import
graph.)
"""

from repro.obs.export import (
    dumps_jsonl,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "dumps_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
