"""Unit tests for the observability primitives themselves.

The end-to-end contracts (byte-identical replay, model regression,
hop bounds) live in their own files; this one pins the small parts:
tracer recording semantics, the null objects, metric arithmetic,
exporter formats and the summary CLI.
"""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    TraceEvent,
    dumps_jsonl,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import percentile
from repro.obs.summary import main as summary_main
from repro.obs.summary import report, summarize
from repro.simt import Simulator


# ------------------------------------------------------------------- tracer
def test_tracer_attaches_to_simulator():
    sim = Simulator()
    assert sim.tracer is NULL_TRACER  # the zero-overhead default
    tracer = Tracer(sim)
    assert sim.tracer is tracer
    sim.tracer = NULL_TRACER  # detached: the tracer hears nothing more
    sim.tracer.instant("a", "cat")
    assert tracer.events == []


def test_instants_and_spans_record_sim_time():
    sim = Simulator()
    tracer = Tracer(sim)

    def proc():
        tracer.instant("a", "cat", rank=3, hop=2)
        start = sim.now
        yield sim.timeout(1.5)
        tracer.complete("b", "cat", start, node=7, phase="enc")

    sim.spawn(proc())
    sim.run()

    a, b = tracer.events
    assert (a.name, a.ph, a.ts, a.rank, a.args) == ("a", "i", 0.0, 3, {"hop": 2})
    assert a.dur is None and a.end == a.ts
    assert (b.name, b.ph, b.ts, b.dur, b.node) == ("b", "X", 0.0, 1.5, 7)
    assert b.end == 1.5
    assert b.args == {"phase": "enc"}


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.instant("x", "cat", rank=1)
    NULL_TRACER.complete("y", "cat", 0.0)
    assert NULL_TRACER.events == ()


def test_subscribers_see_only_their_name_in_order():
    sim = Simulator()
    tracer = Tracer(sim)
    seen = []

    def once(ev):
        seen.append(("once", ev.name))
        tracer.unsubscribe("a", once)  # mid-dispatch: the next still runs

    def every(ev):
        seen.append(("every", ev.name, ev.ph))

    tracer.subscribe("a", once)
    tracer.subscribe("a", every)
    tracer.instant("a", "test")
    tracer.instant("b", "test")
    tracer.complete("a", "test", start=0.0)
    tracer.unsubscribe("a", every)
    tracer.unsubscribe("a", every)  # no longer subscribed: a no-op
    tracer.instant("a", "test")
    assert seen == [("once", "a"), ("every", "a", "i"), ("every", "a", "X")]
    assert len(tracer.events) == 4


# ------------------------------------------------------------------ metrics
def _registry():
    """A registry on a fresh traced simulator."""
    sim = Simulator()
    Tracer(sim)
    return MetricsRegistry(sim)


def test_counter_gauge_histogram_arithmetic():
    reg = _registry()
    c = reg.counter("msgs", node=1)
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)
    assert reg.counter("msgs", node=1) is c  # get-or-create
    assert reg.counter("msgs", node=2) is not c

    g = reg.gauge("epoch")
    g.set(4)
    g.set(2)
    assert g.snapshot() == 2

    h = reg.histogram("lat")
    for v in [3.0, 1.0, 5.0, 2.0, 4.0]:
        h.observe(v)
    assert h.count == 5
    assert h.total == 15.0
    assert h.mean == 3.0
    assert (h.min, h.max) == (1.0, 5.0)
    assert h.percentile(0) == 1.0
    assert h.percentile(50) == 3.0
    assert h.percentile(100) == 5.0
    # nearest rank: the smallest value with at least q % of the values at
    # or below it, so p50 of [1, 2, 3, 4] is 2; the scheduler's wait
    # percentiles read the same function
    even = reg.histogram("even")
    for v in [4.0, 1.0, 3.0, 2.0]:
        even.observe(v)
    assert [even.percentile(q) for q in (0, 25, 50, 51, 75, 99, 100)] == [
        1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([], 50) == reg.histogram("empty").percentile(50) == 0.0


def test_registry_aggregation_and_snapshot_determinism():
    def build():
        reg = _registry()
        reg.counter("net.msgs", node=2).inc(5)
        reg.counter("net.msgs", node=1).inc(3)
        reg.histogram("hops", node=1).observe(1.0)
        reg.histogram("hops", node=2).observe(3.0)
        reg.gauge("epoch").set(1)
        return reg

    reg = build()
    assert reg.sum_counters("net.msgs") == 8
    snap = reg.snapshot()
    assert snap["counter:net.msgs{node=1}"] == 3
    assert snap["gauge:epoch{}"] == 1
    # Same updates in a fresh registry give the same snapshot, including
    # key order (the replay test's metrics comparison relies on this).
    assert list(snap) == list(build().snapshot())
    assert snap == build().snapshot()


def test_a_registry_needs_a_tracer_to_read():
    sim = Simulator()
    with pytest.raises(ValueError, match="attach a Tracer"):
        MetricsRegistry(sim)
    Tracer(sim)
    assert MetricsRegistry(sim).snapshot() == {}


def test_a_registry_reads_the_trace_recorded_since_it_was_built():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.instant("node.crash", "failure", node=0)
    reg = MetricsRegistry(sim)
    assert reg.snapshot() == {}  # the crash came before the registry
    tracer.instant("node.crash", "failure", node=1)
    # a message's one record counts it as sent from its source node ...
    tracer.instant("net.drop_dead", "net", 1, 3, src=0, src_node=2,
                   nbytes=8.0, tag=0)
    # ... and a duplicate's twin only at its destination
    tracer.instant("net.drop_dup", "net", 1, 3, src=0, src_node=2,
                   nbytes=8.0, tag=0, ctx_epoch=0, dup=True)
    sim.now = 0.5
    tracer.complete("ckpt.restore", "ckpt", 0.25, outcome="cold-start")
    tracer.complete("ckpt.restore", "ckpt", 0.25, outcome="restored")
    assert reg.snapshot() == {
        "counter:ckpt.restores{}": 1.0,
        "counter:net.bytes_sent{node=2}": 8.0,
        "counter:net.drop_dead{node=3}": 1.0,
        "counter:net.drop_dup{node=3}": 1.0,
        "counter:net.msgs_sent{node=2}": 1.0,
        "counter:node.crashes{}": 1.0,
        "histogram:ckpt.restore_s{}": {
            "count": 1.0, "mean": 0.25, "min": 0.25, "max": 0.25,
            "p50": 0.25, "p99": 0.25},
    }
    tracer.instant("node.crash", "failure", node=2)
    assert reg.counter("node.crashes").value == 2.0  # each read catches up


def test_a_registry_counts_macro_collectives_by_kind():
    sim = Simulator()
    tracer = Tracer(sim)
    reg = MetricsRegistry(sim)
    sim.now = 0.5
    for n, kind in enumerate(["allreduce", "barrier", "allreduce"]):
        tracer.complete("mpi.collective", "mpi", 0.25, epoch=0, kind=kind,
                        comm=0, n=n, size=4, nbytes=8.0, job="t0",
                        ctx_epoch=0)
    assert reg.counter("mpi.collectives", kind="allreduce").value == 2.0
    assert reg.counter("mpi.collectives", kind="barrier").value == 1.0
    assert reg.sum_counters("mpi.collectives") == 3.0


# ---------------------------------------------------------------- exporters
def _sample_events():
    return [
        TraceEvent("send", "net", "i", 1.25, rank=2, node=1,
                   args={"nbytes": 64, "dst": 3}),
        TraceEvent("ckpt.encode", "ckpt", "X", 2.0, dur=0.5, rank=0, node=0,
                   incarnation=1, epoch=2),
    ]


def test_jsonl_is_deterministic_and_roundtrips(tmp_path):
    events = _sample_events()
    text = dumps_jsonl(events)
    lines = text.splitlines()
    assert len(lines) == 2
    # Fixed key order and compact separators -> byte-stable output.
    assert lines[0] == (
        '{"ts":1.25,"ph":"i","cat":"net","name":"send","rank":2,"node":1,'
        '"args":{"dst":3,"nbytes":64}}'
    )
    path = str(tmp_path / "t.jsonl")
    assert write_jsonl(events, path) == 2
    back = read_jsonl(path)
    assert dumps_jsonl(back) == text


def test_chrome_trace_mapping():
    doc = to_chrome_trace(_sample_events())
    ev_i, ev_x = doc["traceEvents"]
    assert ev_i["ph"] == "i"
    assert ev_i["ts"] == pytest.approx(1.25e6)  # microseconds
    assert (ev_i["pid"], ev_i["tid"]) == (1, 2)
    assert "dur" not in ev_i
    assert ev_x["dur"] == pytest.approx(0.5e6)
    # Identity labels with no native Chrome field ride in args.
    assert ev_x["args"] == {"incarnation": 1, "epoch": 2}


def test_chrome_trace_file_is_json(tmp_path):
    path = str(tmp_path / "t.json")
    assert write_chrome_trace(_sample_events(), path) == 2
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) == 2


# ------------------------------------------------------------------ summary
def test_notification_summary_counts_hops_and_latency():
    events = [
        TraceEvent("node.crash", "failure", "i", 10.0, node=5),
        TraceEvent("overlay.notified", "overlay", "i", 10.2, rank=1, epoch=1,
                   args={"hop": 1}),
        TraceEvent("overlay.notified", "overlay", "i", 10.25, rank=2, epoch=1,
                   args={"hop": 2}),
        TraceEvent("overlay.notified", "overlay", "i", 10.25, rank=3, epoch=1,
                   args={"hop": 2}),
    ]
    gen1 = summarize(events).notification()[None, 1]
    assert gen1["count"] == 3
    assert gen1["hops"] == {1: 1, 2: 2}
    assert gen1["max_hop"] == 2
    assert gen1["failure_at"] == 10.0
    assert gen1["latency"] == pytest.approx(0.25)


def test_state_dwell_times_use_consecutive_transitions():
    events = [
        TraceEvent("fmi.state", "state", "i", 0.0, rank=0, incarnation=0,
                   args={"state": "H1"}),
        TraceEvent("fmi.state", "state", "i", 1.0, rank=0, incarnation=0,
                   args={"state": "H2"}),
        TraceEvent("fmi.state", "state", "i", 1.5, rank=0, incarnation=0,
                   args={"state": "H3"}),
    ]
    dwell = summarize(events).dwell()
    assert dwell["H1"]["mean"] == pytest.approx(1.0)
    assert dwell["H2"]["mean"] == pytest.approx(0.5)
    assert "H3" not in dwell  # final state has no successor


def test_report_prints_short_durations_nonzero():
    events = [
        TraceEvent("ckpt.checkpoint", "ckpt", "X", 1.0, dur=3e-5, rank=0),
    ]
    text = report(events)
    row = next(line for line in text.splitlines()
               if line.startswith("ckpt.checkpoint"))
    assert row.count("3.000e-05") == 3  # mean, min and max


def test_summary_cli_renders_a_report(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(_sample_events(), path)
    assert summary_main([path]) == 0
    out = capsys.readouterr().out
    assert "trace: 2 events" in out
    assert "Checkpoint / restore phases" in out
    assert summary_main([]) == 2  # usage error
