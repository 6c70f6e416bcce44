"""The run-report machine against the five post-run walks.

:class:`~repro.obs.summary.TraceSummary` reads a trace through one
handler per event name; the five functions it replaced, each a separate
walk over the finished trace, are kept in ``tests/summary_reference.py``.
Hypothesis draws event sequences over every name the summary reads plus
a few nobody reads, with ranks, nodes, epochs and incarnations in small
ranges, ``job`` labels from {none, t0, t1}, the ``state`` / ``hop`` /
``cause`` arguments the summary looks at, span durations, and
non-decreasing timestamps.  Three readings of one drawn trace must agree: the machine
subscribed to a real :class:`~repro.obs.Tracer` while the events are
recorded, the machine replaying the recorded trace (:func:`summarize`),
and the reference walks.  The walks merge tenants, so the per-tenant
quantities (notification and recovery) are compared with the walks run
over each tenant's events: its labelled ones, the crashes of the nodes
its ``fmi.state`` last named, and the unlabelled failure events; the
machine drops the walks' unread ``p50``, which is stripped before
comparing.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.obs.summary import TraceSummary, summarize
from repro.simt import Simulator
from tests import summary_reference as reference

#: every name the summary reads, with the category and phase the
#: runtime gives it
READ = {
    "fmi.state": ("state", "i"), "overlay.notified": ("overlay", "i"),
    "node.crash": ("failure", "i"), "failure.inject": ("failure", "i"),
    "recovery": ("recovery", "X"),
    **{name: ("ckpt", "X") for name in (
        "ckpt.snapshot", "ckpt.encode", "ckpt.parity_store", "ckpt.meta",
        "ckpt.checkpoint", "ckpt.restore", "ckpt.rebuild")},
}
#: names nobody reads: they must change nothing
UNREAD = {"fmi.notify": ("recovery", "i"), "recovery.begin": ("recovery", "i"),
          "ckpt.encode.begin": ("ckpt", "i"), "net.recv": ("net", "i"),
          "mpi.collective": ("mpi", "X")}
NAMES = {**READ, **UNREAD}

SMALL = st.integers(0, 3)  # ranks, epochs, hops
NODES = st.one_of(st.none(), st.integers(0, 2))

#: per name, the arguments its events may carry (each optional)
ARGS = {
    "fmi.state": {"state": st.sampled_from(["H1", "H2", "H3", "done"])},
    "overlay.notified": {"hop": SMALL},
    "recovery": {"cause": st.sampled_from(["task[0]: node-crash",
                                           "task[1]: child rank 1 died"])},
}

#: hypothesis's default is 100 examples; CI's perf-smoke job loads the
#: ``deep`` profile (``tests/conftest.py``), ten times that
_EXAMPLES = 2 * settings.default.max_examples

JOBS = (None, "t0", "t1")


@st.composite
def _traces(draw):
    """A trace over a few of the names, so that the events the summary
    correlates (a failure and the notifications after it; one rank's
    state transitions) meet often."""
    names = sorted(draw(st.lists(st.sampled_from(sorted(NAMES)), min_size=1,
                                 max_size=5, unique=True)))
    trace = []
    for _ in range(draw(st.integers(0, 30))):
        name = draw(st.sampled_from(names))
        args = {}
        for key, values in ARGS.get(name, {}).items():
            if draw(st.booleans()):
                args[key] = draw(values)
        job = draw(st.sampled_from(JOBS))
        if job is not None:
            args["job"] = job
        trace.append((draw(st.sampled_from([0.0, 0.5, 1.0])), name,
                      draw(SMALL), draw(NODES), draw(st.integers(0, 1)),
                      draw(st.one_of(st.none(), SMALL)),
                      draw(st.sampled_from([0.0, 0.25, 2.0])), args))
    return trace


def _record(trace):
    """Record ``trace`` on a real tracer with a machine subscribed;
    returns ``(tracer, machine)``.  A span starts at the current time
    and the clock moves to its end."""
    sim = Simulator()
    tracer = Tracer(sim)
    online = TraceSummary()
    online.subscribe(tracer)
    for gap, name, rank, node, incarnation, epoch, dur, args in trace:
        sim.now += gap
        cat, ph = NAMES[name]
        if ph == "X":
            start = sim.now
            sim.now += dur
            tracer.complete(name, cat, start, rank=rank, node=node,
                            incarnation=incarnation, epoch=epoch, **args)
        else:
            tracer.instant(name, cat, rank=rank, node=node,
                           incarnation=incarnation, epoch=epoch, **args)
    return tracer, online


def _no_p50(dists):
    return {key: {k: v for k, v in d.items() if k != "p50"}
            for key, d in dists.items()}


def _tenant(events, job):
    """``job``'s events and the unlabelled failure events.  A crash
    names no job: it is the job's whose ``fmi.state`` last named its
    node, and unlabelled when none did."""
    owner, mine = {}, []
    for ev in events:
        if ev.name == "fmi.state" and ev.node is not None:
            owner[ev.node] = ev.args.get("job")
        if ev.name == "node.crash":
            keep = owner.get(ev.node) in (None, job)
        elif ev.cat == "failure":
            keep = ev.args.get("job") in (None, job)
        else:
            keep = ev.args.get("job") == job
        if keep:
            mine.append(ev)
    return mine


def _reading(machine):
    """Everything the machine answers, in the walks' shapes: the
    per-tenant quantities keyed by tenant."""
    run = machine.run()
    recoveries = run.pop("recoveries")
    return {
        "notification": {
            job: {gen: entry for (jid, gen), entry in machine.notification().items()
                  if jid == job}
            for job in JOBS},
        "recovery": {
            job: [{k: v for k, v in entry.items() if k != "job"}
                  for entry in recoveries if entry["job"] == job]
            for job in JOBS},
        "checkpoint": machine.checkpoint(),
        "dwell": machine.dwell(),
        "run": run,
    }


def _walked(events):
    run = reference.run_walk(events)
    del run["span"], run["recoveries"]
    return {
        "notification": {job: reference.notification_walk(_tenant(events, job))
                         for job in JOBS},
        "recovery": {job: reference.recovery_walk(_tenant(events, job))
                     for job in JOBS},
        "checkpoint": _no_p50(reference.checkpoint_walk(events)),
        "dwell": _no_p50(reference.dwell_walk(events)),
        "run": run,
    }


#: cases the random draws seldom hit: a tenant with no crash of its own
#: falls back to the unlabelled injection (not to the crash of t1's
#: node), a crash at the very instant of the first notification opens
#: its generation, and a notification with no epoch counts as
#: generation 0
_TIES = [
    (0.0, "fmi.state", 3, 1, 0, 0, 0.0, {"state": "H3", "job": "t1"}),
    (0.0, "failure.inject", 0, None, 0, None, 0.0, {}),
    (0.5, "node.crash", 1, 1, 0, None, 0.0, {}),
    (0.0, "overlay.notified", 2, 0, 0, 1, 0.0, {"hop": 1, "job": "t0"}),
    (0.0, "overlay.notified", 3, 1, 0, None, 0.0, {"hop": 2, "job": "t1"}),
    (0.5, "overlay.notified", 2, 0, 1, 1, 0.0, {"job": "t0"}),
    (0.0, "fmi.state", 0, 0, 0, 0, 0.0, {"state": "H1", "job": "t0"}),
    (0.5, "recovery", 0, None, 0, 1, 0.25, {"cause": "task[0]: node-crash",
                                             "job": "t0"}),
    (0.0, "fmi.state", 0, 0, 0, 1, 0.0, {"state": "H3", "job": "t0"}),
    (0.0, "ckpt.checkpoint", 0, 0, 0, None, 0.0, {}),
]


@settings(max_examples=_EXAMPLES, deadline=None)
@example(trace=_TIES)
@given(trace=_traces())
def test_machine_online_and_replayed_matches_the_five_walks(trace):
    tracer, online = _record(trace)
    replayed = summarize(tracer)
    assert _reading(online) == _reading(replayed) == _walked(tracer.events)
    assert replayed.count == len(tracer.events)
    assert replayed.span == reference.run_walk(tracer.events)["span"]
    merged = [{k: v for k, v in entry.items() if k != "job"}
              for entry in replayed.run()["recoveries"]]
    assert merged == reference.run_walk(tracer.events)["recoveries"]


def test_the_tie_trace_reads_as_intended():
    """The hand-picked trace above exercises what its comment says."""
    tracer, _online = _record(_TIES)
    notified = summarize(tracer).notification()
    assert notified["t0", 1]["failure_at"] == 0.0  # not t1's crash
    assert notified["t0", 1]["latency"] == 1.0
    assert notified["t1", 0]["failure_at"] == 0.5  # the tie opens it
    assert notified["t1", 0]["latency"] == 0.0
    assert list(notified) == [("t0", 1), ("t1", 0)]
