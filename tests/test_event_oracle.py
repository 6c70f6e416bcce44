"""The one-slot callbacks against the list-per-event oracle.

An event keeps a lone callback in its slot (``simt.kernel``); the
classes it replaced, a ``callbacks`` list per event, are kept in
``tests/event_reference.py`` and run on ``tests/kernel_reference.py``'s
:class:`ReferenceSimulator`.  Both sides get the same random process
program: processes that wait on shared events, on timeouts and on each
other (several at once on one event), that register plain callbacks
before and after others wait, and that raise bulk completions; and
timed actions from outside -- succeed, fail, cancel, interrupt, kill,
``callbacks.append`` and bulk completions -- some of them armed before
the processes start, so that they race the bootstrap.  Every callback
and every resume logs ``repr(now)`` and what it saw.  The logs, the
outcome of every process, the clock and ``events_processed`` must be
equal.

The one place the two may part is the bug the slot fixed: a process
that yields a cancelled event crashed the oracle's run with
``AttributeError``; it now fails that process by name.  There the
production log must extend the oracle's, and the process must have
failed so.

The same program runs once more with the shared events built as the
messaging path's per-message records -- a posted receive, a send's
completion and a delayed transfer, each an ``Event`` subclass filled
where it is built -- and must match the plain-``Event`` run exactly.
The wire's arrival is left out on purpose: withdrawn, it still runs its
bytes dry (``test_fabric_receiver_abandoned_transfer_runs_dry``).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.matching import MatchingEngine
from repro.net.transport import _Arrival
from repro.simt import BulkCompletion, Event, Process, Simulator, Timeout
from repro.simt.kernel import _PENDING
from repro.simt.resources import _DelayedStart
from tests import event_reference as ref
from tests.kernel_reference import ReferenceSimulator

EVENTS = 3
#: hypothesis's default is 100 examples; CI's perf-smoke job loads the
#: ``deep`` profile (``tests/conftest.py``), ten times that
_EXAMPLES = 3 * settings.default.max_examples

_DELAY = st.sampled_from([0.0, 0.0, 0.5, 1.0])
_STEP = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("wait"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("timeout"), _DELAY),
    st.tuples(st.just("join"), st.integers(0, 3)),
    st.tuples(st.just("append"), st.integers(0, EVENTS - 1)),
    st.tuples(st.just("bulk"), st.integers(1, 2 ** EVENTS - 1), _DELAY),
)
_PROGRAM = st.lists(st.lists(_STEP, max_size=5), min_size=1, max_size=4)
_ACTION = st.tuples(
    st.sampled_from(["succeed", "succeed", "fail", "cancel", "interrupt",
                     "kill", "append", "bulk"]),
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5]),
    st.integers(0, 7),
    st.booleans(),  # armed before the processes are spawned
)
_ACTIONS = st.lists(_ACTION, max_size=8)
_PRE = st.lists(st.integers(0, EVENTS - 1), max_size=3)

_PRODUCTION = (Simulator, Event, Timeout, BulkCompletion, Process)
_REFERENCE = (ReferenceSimulator, ref.Event, ref.Timeout, ref.BulkCompletion,
              ref.Process)


def _seen(ok, value):
    if ok:
        return ("ok", value)
    return ("err", type(value).__name__, str(value))


def _records(sim):
    """The shared events as per-message records: a receive posted on a
    real engine (which schedules nothing), and a send's completion and
    a delayed transfer filled from a fresh event, as their sites fill
    them."""
    posted = MatchingEngine(sim).post(0, 0, 0)
    records = [posted]
    for cls in (_Arrival, _DelayedStart):
        rec = cls()
        fresh = Event(sim)
        for name in Event.__slots__:
            if name == "_seq":  # written by a push, not by __init__
                continue
            setattr(rec, name, getattr(fresh, name))
        records.append(rec)
    return records


def _drive(classes, program, actions, pre, make_events=None):
    """Run the program on one side; returns the log, each process's
    outcome, ``repr(now)``, ``events_processed`` and, if the run raised,
    the exception.  ``make_events(sim)`` builds the shared events, by
    default ``EVENTS`` of the side's event class."""
    sim_cls, event_cls, timeout_cls, bulk_cls, process_cls = classes
    sim = sim_cls()
    log = []
    events = (make_events(sim) if make_events is not None
              else [event_cls(sim) for _ in range(EVENTS)])
    procs = []

    def logger(tag):
        def cb(evt):
            log.append((repr(sim.now), tag, _seen(evt._ok, evt._value)))
        return cb

    def bulk(mask, delay, tag):
        chosen = [evt for i, evt in enumerate(events) if mask >> i & 1]
        values = [f"{tag}.{i}" for i in range(len(chosen))]
        bulk_cls(sim, delay, chosen, values).callbacks.append(logger(tag))

    def body(me, steps):
        for k, step in enumerate(steps):
            tag = f"p{me}.{k}"
            kind = step[0]
            if kind == "append":
                events[step[1]].callbacks.append(logger(tag))
                continue
            if kind == "bulk":
                bulk(step[1], step[2], tag)
                continue
            if kind == "wait":
                target = events[step[1]]
            elif kind == "timeout":
                target = timeout_cls(sim, step[1], tag)
            else:  # join another process; with none to join, a timeout
                others = [p for i, p in enumerate(procs) if i != me]
                target = (others[step[1] % len(others)] if others
                          else timeout_cls(sim, 0.5, tag))
            try:
                value = yield target
            except Exception as exc:
                log.append((repr(sim.now), tag, _seen(False, exc)))
            else:
                log.append((repr(sim.now), tag, _seen(True, value)))
        return f"p{me} done"

    def act(kind, which, n):
        tag = f"a{n}"
        evt = events[which % EVENTS]
        proc = procs[which % len(procs)]
        if kind == "succeed":
            if not evt.triggered:
                evt.succeed(tag)
        elif kind == "fail":
            if not evt.triggered:
                evt.fail(ValueError(tag))
        elif kind == "cancel":
            evt.cancel()
        elif kind == "interrupt":
            proc.interrupt(tag)
        elif kind == "kill":
            proc.kill(tag)
        elif kind == "append":
            if evt.callbacks is not None:
                evt.callbacks.append(logger(tag))
        else:
            bulk(which or 1, 0.5, tag)

    def arm(n, action):
        kind, when, which, _early = action
        timer = timeout_cls(sim, when)
        timer.callbacks.append(lambda _t: act(kind, which, n))

    for i in pre:
        events[i].callbacks.append(logger(f"pre{i}"))
    for n, action in enumerate(actions):
        if action[3]:
            arm(n, action)
    for me, steps in enumerate(program):
        procs.append(process_cls(sim, body(me, steps), name=f"p{me}"))
    for n, action in enumerate(actions):
        if not action[3]:
            arm(n, action)

    crash = None
    try:
        sim.run()
    except AttributeError as exc:
        crash = exc
    outcomes = [("alive",) if proc._value is _PENDING
                else _seen(proc._ok, proc._value) for proc in procs]
    return log, outcomes, repr(sim.now), sim.stats.events_processed, crash


@settings(max_examples=_EXAMPLES, deadline=None)
@given(program=_PROGRAM, actions=_ACTIONS, pre=_PRE)
# a kill cancels the process its victim joined, which still finishes
# and may still be joined: a yield check that read the cancel flag of
# a processed event failed that join
@example(program=[[("bulk", 1, 0.0), ("join", 0)], [("wait", 0)],
                  [("wait", 0), ("wait", 0), ("join", 1)]],
         actions=[("kill", 0.0, 0, False)], pre=[])
def test_the_slot_runs_every_callback_where_the_list_did(program, actions, pre):
    want = _drive(_REFERENCE, program, actions, pre)
    got = _drive(_PRODUCTION, program, actions, pre)
    assert got[4] is None
    if want[4] is None:
        assert got[:4] == want[:4]
        return
    # the oracle's bug: ``None.append`` on a cancelled event
    assert "'NoneType' object has no attribute 'append'" in str(want[4])
    assert got[0][:len(want[0])] == want[0]
    assert any(out[0] == "err" and out[1] == "SimulationError"
               and "yielded a cancelled" in out[2] for out in got[1])


@settings(max_examples=_EXAMPLES, deadline=None)
@given(program=_PROGRAM, actions=_ACTIONS, pre=_PRE)
def test_the_records_run_every_callback_where_plain_events_do(
        program, actions, pre):
    want = _drive(_PRODUCTION, program, actions, pre)
    got = _drive(_PRODUCTION, program, actions, pre, _records)
    assert got[4] is None and want[4] is None
    # a cancelled yield's error names the class yielded, and only that
    # may differ
    text = repr(got[:4])
    for cls in ("_PostedRecv", "_Arrival", "_DelayedStart"):
        text = text.replace(f"cancelled {cls}, which", "cancelled Event, which")
    assert text == repr(want[:4])


@pytest.mark.parametrize("classes", [_PRODUCTION, _REFERENCE],
                         ids=["production", "reference"])
def test_the_program_draws_every_shape(classes):
    # one waiter detached by an interrupt, two on one event, a relay, a
    # join, a bulk, a kill off a shared event, appends before and after
    program = [[("wait", 0), ("wait", 0)], [("wait", 0), ("join", 0)],
               [("wait", 2), ("bulk", 4, 0.0), ("wait", 1)]]
    actions = [("interrupt", 0.25, 2, False), ("succeed", 0.5, 0, False),
               ("append", 0.25, 1, True), ("kill", 1.0, 2, False),
               ("succeed", 1.5, 1, False)]
    log, outcomes, now, events, crash = _drive(classes, program, actions,
                                               [1])
    assert crash is None
    assert log == [
        ("0.25", "p2.0", ("err", "Interrupt", "a0")),
        ("0.25", "p2.1", ("ok", None)),
        ("0.5", "p0.0", ("ok", "a1")),
        ("0.5", "p1.0", ("ok", "a1")),
        ("0.5", "p0.1", ("ok", "a1")),  # the relay
        ("0.5", "p1.1", ("ok", "p0 done")),
        ("1.5", "pre1", ("ok", "a4")),
        ("1.5", "a2", ("ok", "a4")),
    ]
    assert outcomes == [("ok", "p0 done"), ("ok", "p1 done"),
                        ("err", "ProcessKilled", "process 'p2' killed ('a3')")]
    assert now == "1.5" and events == 17
