"""The trace-invariant machine against the seven post-run walks.

:class:`~repro.chaos.invariants.TraceInvariants` reads a trace through
one handler per event name; the seven functions it replaced, each a
separate walk over the finished trace, are kept in
``tests/invariants_reference.py``.  Hypothesis draws event sequences
over every name the invariants read plus a few nobody reads, with
ranks, epochs and incarnations in small ranges, ``job`` labels from
{none, t0, t1}, the ``ctx_epoch`` / ``lseq`` / ``reason`` / ``action``
/ ``counters`` arguments the checks look at, and non-decreasing
timestamps.  Three readings of one drawn trace must find the same
multiset of violations: the machine subscribed to a real
:class:`~repro.obs.Tracer` while the events are recorded, the machine
replaying the recorded trace (each invariant's slice of its
``violations()`` held to that invariant's walk), and the reference
walks.  The walks predate the
macro tier's ``mpi.collective`` record, which stands for a delivery to
every rank of the instance: they are fed the same trace with that
name renamed ``net.recv``.  The machine checks ``zero-rollback`` per
tenant, the walk over a whole trace: it is fed each tenant's sub-trace
in turn (each event's node is its rank's, two ranks a node, so that a
restore has a tenant to belong to).  The machine's ``no-split-brain``
and ``zero-rollback`` details name the event's epoch and job as well;
that context is stripped before comparing.
"""

import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.chaos.invariants as machine_mod
from repro.chaos.invariants import TraceInvariants
from repro.obs import Tracer, TraceEvent
from repro.simt import Simulator
from tests import invariants_reference as reference

#: every name the invariants read, with the category the runtime gives it
READ = {
    "net.recv": "net", "mpi.collective": "mpi", "fmi.state": "state",
    "fmi.notify": "recovery", "recovery.begin": "recovery",
    "chaos.inject": "failure", "node.crash": "failure",
    "overlay.suspect": "overlay",
    "overlay.suspect.cleared": "overlay", "overlay.notified": "overlay",
    "mlog.log": "mlog", "mlog.rewind": "mlog", "ckpt.restore.begin": "ckpt",
    "repl.fallback": "repl", "repl.promote": "repl",
    "repl.replica_lost": "repl", "repl.standby.register": "repl",
    "repl.standby.sync": "repl",
}
#: names nobody reads: they must change nothing
UNREAD = {"net.omission": "net", "ckpt.encode.begin": "ckpt",
          "mlog.replay.done": "mlog"}
NAMES = {**READ, **UNREAD}
#: the names each invariant reads together (tenant-isolation last)
GROUPS = [
    ("fmi.state", "fmi.notify"),
    ("net.recv", "mpi.collective"),
    ("fmi.notify", "node.crash", "chaos.inject", "recovery.begin"),
    ("overlay.suspect", "overlay.suspect.cleared"),
    ("mlog.log", "net.recv", "mlog.rewind"),
    ("ckpt.restore.begin", "repl.fallback", "repl.promote",
     "repl.replica_lost", "repl.standby.register", "repl.standby.sync"),
    ("chaos.inject", "recovery.begin", "overlay.notified", "fmi.state",
     "fmi.notify"),
]

SMALL = st.integers(0, 3)  # ranks, epochs, peers
FEW = st.integers(0, 1)  # per-channel message numbers
REASONS = st.sampled_from([
    "node-crash", "cascade:node-crash", "partition:p1",
    "cascade:partition:p1", "cascade:cascade:partition:p2",
    "confirmed:partition:p1",
])
ACTIONS = st.sampled_from([
    "kill rank 1 (process only)", "kill rank 2: already dead",
    "drain slot 1", "drain slot 2: refused (no spare)",
    "kill tenant 0 slot 1 (node 3)", "kill tenant 1 slot 0: already dead",
    "kill slot 0 (node 1)", "heal partition p1",
])

#: per name, the arguments its events may carry (each optional)
ARGS = {
    "net.recv": {"ctx_epoch": SMALL, "lseq": st.tuples(SMALL, SMALL, FEW)},
    "mpi.collective": {"ctx_epoch": SMALL},
    "fmi.notify": {"reason": REASONS},
    "chaos.inject": {"action": ACTIONS},
    "overlay.suspect": {"peer": SMALL},
    "overlay.suspect.cleared": {"peer": SMALL},
    "mlog.log": {"dst": SMALL, "n": FEW},
    "mlog.rewind": {"counters": st.dictionaries(
        SMALL.map(str), FEW, max_size=3)},
}

#: hypothesis's default is 100 examples; CI's perf-smoke job loads the
#: ``deep`` profile (``tests/conftest.py``), ten times that
_EXAMPLES = 3 * settings.default.max_examples


@st.composite
def _traces(draw):
    """A trace over some of the names of one or two invariants plus
    perhaps a name nobody reads, so that the events an invariant
    correlates (a log, a delivery and a rewind of one message; a
    restore and one replication event; a refused drain and a recovery)
    meet often."""
    names = set(draw(st.lists(st.sampled_from(sorted(NAMES)), max_size=1)))
    for group in draw(st.lists(st.sampled_from(GROUPS), min_size=1,
                               max_size=2)):
        names.update(draw(st.lists(st.sampled_from(group), min_size=1,
                                   unique=True)))
    names = sorted(names)
    trace = []
    for _ in range(draw(st.integers(0, 30))):
        name = draw(st.sampled_from(names))
        args = {}
        for key, values in ARGS.get(name, {}).items():
            if draw(st.booleans()):
                args[key] = draw(values)
        job = draw(st.sampled_from([None, "t0", "t1"]))
        if job is not None:
            args["job"] = job
        # The epoch-monotone and stale-delivery checks compare epochs;
        # elsewhere an event may carry none.
        compared = name in ("fmi.state", "fmi.notify", "net.recv",
                            "mpi.collective")
        epoch = draw(SMALL if compared else st.one_of(st.none(), SMALL))
        trace.append((draw(st.sampled_from([0.0, 0.5, 1.0])), name,
                      draw(SMALL), draw(st.integers(0, 1)), epoch, args))
    return trace


_JOBS = [SimpleNamespace(job_id="t0"), SimpleNamespace(job_id="t1")]

#: the context the machine adds to two details: `` (epoch E, job J)``
_CONTEXT = re.compile(r" \((?:epoch \d+)?(?:, )?(?:job t\d)?\)")


def _normalised(violations):
    return Counter(
        (v.invariant, _CONTEXT.sub("", v.detail)) for v in violations
    )


def _record(trace):
    """Record ``trace`` on a real tracer with a machine subscribed;
    returns ``(tracer, machine)``."""
    sim = Simulator()
    tracer = Tracer(sim)
    online = TraceInvariants()
    online.subscribe(tracer)
    for gap, name, rank, incarnation, epoch, args in trace:
        sim.now += gap
        tracer.instant(name, NAMES[name], rank=rank, node=rank // 2,
                       incarnation=incarnation, epoch=epoch, **args)
    return tracer, online


def _zero_rollback_per_tenant(tracer):
    """The reference walk over each tenant's sub-trace: its ``repl.*``
    records, by their ``job``, and the restores on the nodes its ranks
    last reported an ``fmi.state`` from."""
    owner, tenants = {}, {}
    for ev in tracer.events:
        if ev.name == "fmi.state":
            owner[ev.node] = ev.args.get("job")
        elif ev.cat == "repl":
            tenants.setdefault(ev.args.get("job"), []).append(ev)
        elif ev.name == "ckpt.restore.begin":
            tenants.setdefault(owner.get(ev.node), []).append(ev)
    return [violation for events in tenants.values() for violation in
            reference.check_zero_rollback(SimpleNamespace(events=events))]


def _as_delivered(tracer):
    """``tracer``'s events with each ``mpi.collective`` renamed
    ``net.recv``: the trace the reference walks read."""
    return SimpleNamespace(events=[
        TraceEvent("net.recv", ev.cat, ev.ph, ev.ts, ev.dur, ev.rank,
                   ev.node, ev.incarnation, ev.epoch, ev.args)
        if ev.name == "mpi.collective" else ev
        for ev in tracer.events
    ])


#: the reference walk behind each trace invariant, in report order
PAIRS = [
    ("epoch-monotone", reference.check_epoch_monotone),
    ("no-stale-delivery", reference.check_no_stale_delivery),
    ("no-split-brain", reference.check_no_split_brain),
    ("suspicion-resolved", reference.check_suspicion_resolved),
    ("no-orphans", reference.check_no_orphans),
    ("zero-rollback", _zero_rollback_per_tenant),
]


def _slice(violations, invariant):
    return [v for v in violations if v.invariant == invariant]


#: ties the random draws seldom hit: a message logged at the very
#: instant its sender rewinds (not an orphan), a refused drain (not a
#: death), and a restore at the very instant of the fallback (legal)
_TIES = [
    (0.0, "net.recv", 0, 0, 0, {"lseq": (1, 0, 1)}),
    (0.5, "mlog.log", 1, 0, None, {"dst": 0, "n": 1}),
    (0.0, "mlog.rewind", 1, 0, None, {"counters": {"0": 1}}),
    (0.0, "chaos.inject", 0, 0, None,
     {"action": "drain slot 2: refused (no spare)"}),
    (0.5, "recovery.begin", 0, 0, 1, {}),
    (0.5, "repl.fallback", 0, 0, 1, {}),
    (0.0, "ckpt.restore.begin", 1, 0, None, {}),
]


@settings(max_examples=_EXAMPLES, deadline=None)
@example(trace=_TIES)
@given(trace=_traces())
def test_machine_online_and_replayed_matches_the_seven_walks(trace):
    tracer, online = _record(trace)
    replayed = TraceInvariants().replay(tracer.events)
    got_online = online.violations() + online.tenant_isolation(_JOBS)
    got_replayed = replayed.violations() + replayed.tenant_isolation(_JOBS)
    assert got_online == got_replayed

    delivered = _as_delivered(tracer)
    expected = []
    for invariant, walk in PAIRS:
        want = walk(delivered)
        assert _normalised(_slice(got_replayed, invariant)) == _normalised(want)
        expected += want
    expected += reference.check_tenant_isolation(delivered, _JOBS)
    assert _normalised(got_online) == _normalised(expected)
    assert _normalised(
        replayed.tenant_isolation(_JOBS)
    ) == _normalised(reference.check_tenant_isolation(tracer, _JOBS))


def test_the_drawn_traces_can_break_every_invariant():
    """The strategy reaches every trace invariant: each of these hand
    picks, all inside the drawn ranges, breaks one."""
    trace = [
        (0.0, "fmi.state", 1, 0, 2, {"job": "t0"}),
        (0.5, "fmi.state", 1, 0, 1, {"job": "t0"}),
        (0.0, "net.recv", 0, 0, 1, {"ctx_epoch": 3}),
        (0.0, "fmi.notify", 2, 0, 1, {"reason": "partition:p1", "job": "t1"}),
        (0.0, "overlay.suspect", 1, 0, None, {"peer": 2}),
        (0.5, "mlog.log", 1, 0, None, {"dst": 0, "n": 2}),
        (0.5, "net.recv", 0, 0, 0, {"lseq": (1, 0, 2)}),
        (0.5, "mlog.rewind", 1, 0, None, {"counters": {"0": 2}}),
        (0.0, "repl.promote", 0, 0, None, {}),
        (0.5, "ckpt.restore.begin", 3, 0, None, {}),
        (0.0, "recovery.begin", 0, 0, 1, {"job": "t1"}),
    ]
    tracer, online = _record(trace)
    found = {v.invariant for v in online.violations()}
    assert found == set(machine_mod.TRACE_INVARIANTS)
    isolation = online.tenant_isolation(_JOBS)
    assert len(isolation) == 3  # t0 reached epoch 2; t1 recovered, epoch 1
    assert isolation == reference.check_tenant_isolation(tracer, _JOBS)
    expected = []
    for _public, walk in PAIRS:
        expected += walk(tracer)
    assert _normalised(online.violations()) == _normalised(expected)


def test_a_restore_answers_to_its_own_tenant():
    """A co-resident tenant's replication does not make a rollback
    tenant's restore a violation; the restoring tenant's own does."""
    trace = [
        (0.0, "fmi.state", 0, 0, 0, {"job": "t0"}),  # node 0 is t0's
        (0.0, "fmi.state", 2, 0, 0, {"job": "t1"}),  # node 1 is t1's
        (0.5, "repl.promote", 2, 0, None, {"job": "t1"}),
        (0.5, "ckpt.restore.begin", 1, 0, None, {}),
    ]
    tracer, online = _record(trace)
    assert online.violations() == []
    tracer, online = _record(trace + [
        (0.0, "ckpt.restore.begin", 3, 0, None, {})])
    assert [str(v) for v in online.violations()] == [
        "zero-rollback: rank 3 (job t1) began a checkpoint restore at t=1 "
        "although replication never fell back"]
    assert _normalised(online.violations()) == _normalised(
        _zero_rollback_per_tenant(tracer))


@pytest.mark.parametrize(
    "name", sorted(name for name, cat in READ.items() if cat == "repl"))
def test_every_replication_event_marks_a_replicated_run(name):
    # a restore, then (later) the run's one replication event
    tracer, online = _record([
        (0.0, "ckpt.restore.begin", 1, 0, None, {}),
        (0.5, name, 0, 0, None, {}),
    ])
    want = reference.check_zero_rollback(tracer)
    assert len(want) == 1
    assert _normalised(online.violations()) == _normalised(want)


def test_a_macro_collective_completing_in_a_dead_epoch_is_a_stale_delivery():
    sim = Simulator()
    tracer = Tracer(sim)
    sim.now = 0.5
    for ctx_epoch in (0, 1):  # its own epoch, then a newer one
        tracer.complete("mpi.collective", "mpi", 0.25, epoch=0,
                        kind="allreduce", comm=0, n=3, size=4, nbytes=8.0,
                        job="t0", ctx_epoch=ctx_epoch)
    found = TraceInvariants().replay(tracer.events).violations()
    assert [(v.invariant, v.detail) for v in found] == [(
        "no-stale-delivery",
        "rank None received an epoch-0 envelope in an epoch-1 context "
        "at t=0.25")]
