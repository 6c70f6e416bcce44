"""The batch-draining run loop against the pop-per-event oracle.

:meth:`Simulator.run` walks the immediate queue a batch at a time; the
loop it replaced, one ``popleft`` per zero-delay event, is kept in
``tests/kernel_reference.py``.  Both simulators get the same random
schedule -- zero-delay chains, timeouts, delayed successes, cancelled
events, fair-share pipes with superseded and tied deadlines, bulk
completions, a reserved re-push at the current instant, callbacks that
raise -- and the same random sequence of ``run`` calls: stopped at an
awaited event (often mid-batch), at a time, or by ``max_events``, and
then resumed.  Every callback logs ``(repr(now), who, repr(peek()))``,
so the batch must also stay visible to :meth:`Simulator.peek` from
inside it.  The logs, the outcome of every ``run`` call,
``events_processed`` and ``peak_heap`` must be equal.
"""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import BandwidthResource, BulkCompletion, Event, Simulator
from repro.simt.kernel import SimulationError
from tests.kernel_reference import ReferenceSimulator

_KIND = st.sampled_from([
    "timeout", "succeed", "succeed", "cancel", "pipe", "pipe", "abandon",
    "bulk", "repush", "raise", "ties", "ahead", "inert",
])
_DELAY = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0])
_WHICH = st.integers(0, 1)
_LEAF = st.tuples(_KIND, _DELAY, _WHICH, st.just(()))
_NODE = st.tuples(_KIND, _DELAY, _WHICH, st.lists(_LEAF, max_size=3))
_OPS = st.lists(st.tuples(_KIND, _DELAY, _WHICH, st.lists(_NODE, max_size=3)),
                min_size=1, max_size=8)
_PLAN = st.lists(st.one_of(
    st.tuples(st.just("until"), st.integers(0, 40)),
    st.tuples(st.just("max"), st.integers(1, 15)),
    st.tuples(st.just("time"),
              st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.5])),
), max_size=5)
#: hypothesis's default is 100 examples; CI's perf-smoke job loads the
#: ``deep`` profile (``tests/conftest.py``), ten times that
_EXAMPLES = 3 * settings.default.max_examples


def _drive(sim_cls, ops, plan):
    """Issue ``ops``, then make the ``run`` calls of ``plan`` and drain;
    returns everything the two simulators must agree on."""
    sim = sim_cls()
    pipes = [BandwidthResource(sim, 100.0), BandwidthResource(sim, 150.0)]
    log = []
    awaited = []  # every event a callback of this schedule hangs on
    idents = itertools.count()

    def issue(kind, delay, which, children):
        ident = next(idents)

        def fired(_evt):
            log.append((repr(sim.now), ident, repr(sim.peek())))
            for child in children:
                issue(*child)
            if kind == "raise":
                raise RuntimeError(f"boom {ident}")

        if kind == "timeout":
            evt = sim.timeout(delay)
        elif kind in ("succeed", "raise"):
            evt = sim.event()
            evt.succeed(delay=delay)
        elif kind == "cancel":  # never reaches a queue
            evt = sim.event()
            evt.callbacks.append(fired)
            evt.cancel()
            evt.succeed()
            return
        elif kind == "pipe":  # later-due flows only reserve a deadline
            evt = pipes[which].transfer(50.0 + 100.0 * delay,
                                        overhead=delay / 2)
        elif kind == "abandon":  # the receiver goes away
            pipes[which].transfer(50.0, overhead=delay).cancel()
            return
        elif kind == "bulk":  # one entry; its batch is dispatched inline
            evt = sim.event()
            BulkCompletion(sim, delay, [evt], [None])
        elif kind == "inert":  # a cancelled bulk stays in its bucket
            BulkCompletion(sim, delay, [sim.event()], [None]).cancel()
            return
        elif kind == "ties":  # five entries on one float
            for _ in range(4):
                sim.timeout(delay).callbacks.append(fired)
            evt = sim.timeout(delay)
        else:
            # Like a pipe's armed entry moving to its reserved place: a
            # seq taken now, an entry put later at that seq.  "repush"
            # puts it at the then-current instant, ahead of the queue
            # (into the live bucket if a timed entry fires it);
            # "ahead" puts it at the instant ``delay`` from now, in the
            # middle of that bucket once later entries joined it.
            evt = Event(sim)
            evt._ok, evt._value = True, None
            seq = sim._seq = sim._seq + 1
            sim._reserved += 1
            target = sim.now + delay

            def repush(_timer):
                sim._reserved -= 1
                sim._insert(evt, sim.now if kind == "repush" else target, seq)

            sim.timeout(delay if kind == "repush" else 0.0).callbacks.append(
                repush)
        evt.callbacks.append(fired)
        awaited.append(evt)

    for op in ops:
        issue(*op)
    for what, arg in plan:
        try:
            if what == "until":
                target = awaited[arg] if arg < len(awaited) else sim.event()
                outcome = sim.run(until=target)
            elif what == "max":
                outcome = sim.run(max_events=arg)
            elif arg >= sim.now:
                outcome = sim.run(until=arg)
            else:
                outcome = "past"
        except RuntimeError as exc:  # SimulationError is one too
            outcome = (type(exc).__name__, str(exc))
        log.append(("run", what, arg, repr(sim.now), repr(outcome)))
    for _ in range(100):  # every "raise" callback stops one run
        try:
            sim.run()
            break
        except RuntimeError as exc:
            log.append(("drain", repr(sim.now), str(exc)))
    assert sim.peek() == float("inf")
    stats = sim.stats
    return log, stats.events_processed, stats.peak_heap, repr(sim.now)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(ops=_OPS, plan=_PLAN)
def test_run_matches_the_pop_per_event_oracle(ops, plan):
    expected = _drive(ReferenceSimulator, ops, plan)
    assert _drive(Simulator, ops, plan) == expected


# ------------------------------------------------- the batch, one case each
def _chain(sim, log, count):
    """``count`` events due now, each logging its index; returns them."""
    events = []
    for i in range(count):
        evt = sim.event()
        evt.callbacks.append(lambda _e, i=i: log.append(i))
        evt.succeed()
        events.append(evt)
    return events


def test_until_event_stops_mid_batch_and_resumes_in_order():
    sim = Simulator()
    log = []
    events = _chain(sim, log, 5)
    late = sim.event()
    late.callbacks.append(lambda _e: log.append("late"))
    events[1].callbacks.append(lambda _e: late.succeed())  # behind the batch
    sim.run(until=events[1])
    assert log == [0, 1] and sim.peek() == 0.0
    sim.run()
    assert log == [0, 1, 2, 3, 4, "late"]
    assert sim.stats.events_processed == 6


def test_a_callback_raising_mid_batch_leaves_the_rest_queued():
    sim = Simulator()
    log = []
    events = _chain(sim, log, 4)

    def boom(_e):
        raise RuntimeError("boom")

    events[1].callbacks.append(boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert log == [0, 1] and events[1].processed and not events[2].processed
    sim.run()
    assert log == [0, 1, 2, 3]
    assert sim.stats.events_processed == 4


def test_max_events_trips_mid_batch_and_the_rest_survives():
    sim = Simulator()
    log = []
    _chain(sim, log, 5)
    with pytest.raises(SimulationError, match="max_events=2"):
        sim.run(max_events=2)
    assert log == [0, 1]
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_a_heap_entry_due_now_overtakes_the_rest_of_the_batch():
    # The pipe's reserved re-push: a seq that predates the queue,
    # pushed to the heap for the current instant mid-batch.
    sim = Simulator()
    log = []
    early = Event(sim)
    early._ok, early._value = True, None
    early.callbacks.append(lambda _e: log.append("re-pushed"))
    seq = sim._seq = sim._seq + 1
    sim._reserved += 1
    events = _chain(sim, log, 3)

    def repush(_e):
        sim._reserved -= 1
        sim._insert(early, sim.now, seq)

    events[0].callbacks.append(repush)
    sim.run()
    assert log == [0, "re-pushed", 1, 2]


def test_peek_and_the_batch_slot_view_inside_a_batch():
    sim = Simulator()
    seen = []
    events = _chain(sim, [], 3)
    sim.timeout(2.0)
    for evt in events:
        evt.callbacks.append(lambda _e: seen.append(
            (sim.peek(), sum(e is not None for e in sim._batch))))
    sim.run()
    # the rest of the batch is still "now"; the last entry sees the heap
    assert seen == [(0.0, 2), (0.0, 1), (2.0, 0)]
    assert sim._batch is None and sim._nowq == []


class _Watched(Event):
    """An event that can be weakly referenced (no ``__slots__``)."""


def test_the_batch_keeps_no_processed_event_alive():
    sim = Simulator()
    refs = []

    def check(_e):
        gc.collect()
        refs.append([ref() is None for ref in watched])

    first = _Watched(sim)
    watched = [weakref.ref(first)]
    first.succeed()
    last = sim.event()
    last.callbacks.append(check)
    last.succeed()
    del first
    sim.run()
    assert refs == [[True]]


# ------------------------------------------------ the bucket, one case each
def _due(sim, log, when, count, tag=""):
    """``count`` timeouts due at ``when``, each logging its tag and
    index; returns them."""
    events = []
    for i in range(count):
        evt = sim.timeout(when)
        evt.callbacks.append(lambda _e, i=i: log.append(f"{tag}{i}"))
        events.append(evt)
    return events


def _reserve(sim, log):
    """A pipe-style reservation: ``(event, seq)``, the seq taken now,
    the event to be put at it later with ``_insert``."""
    evt = Event(sim)
    evt._ok, evt._value = True, None
    evt.callbacks.append(lambda _e: log.append("re-pushed"))
    seq = sim._seq = sim._seq + 1
    sim._reserved += 1
    return evt, seq


def _put(sim, evt, when, seq):
    sim._reserved -= 1
    sim._insert(evt, when, seq)


def test_entries_tied_on_one_float_share_one_heap_entry():
    sim = Simulator()
    log, seen = [], []
    events = _due(sim, log, 1.0, 50)
    _due(sim, log, 2.0, 10, "late")
    assert sorted(sim._heap) == [1.0, 2.0] and len(sim._at[1.0]) == 50
    for evt in events:  # the rest of the live bucket is still "now"
        evt.callbacks.append(lambda _e: seen.append(sim.peek()))
    sim.run()
    assert log == [str(i) for i in range(50)] + [f"late{i}" for i in range(10)]
    assert seen == [1.0] * 49 + [2.0]
    assert sim.stats.peak_heap == 60 and sim.stats.events_processed == 60
    assert sim._at == {} and sim._heap == []


def test_a_reserved_repush_lands_in_the_middle_of_a_future_bucket():
    sim = Simulator()
    log = []
    _due(sim, log, 2.0, 2, "a")
    evt, seq = _reserve(sim, log)
    _due(sim, log, 2.0, 2, "b")
    _put(sim, evt, 2.0, seq)
    sim.run()
    assert log == ["a0", "a1", "re-pushed", "b0", "b1"]


def test_a_reserved_repush_overtakes_the_rest_of_the_live_bucket():
    sim = Simulator()
    log = []
    first = _due(sim, log, 1.0, 1, "a")[0]
    evt, seq = _reserve(sim, log)
    _due(sim, log, 1.0, 3, "b")

    def mid_walk(_e):
        sim.event().succeed()  # due now, so behind the whole bucket
        sim.event().callbacks.append(log.append)
        _put(sim, evt, sim.now, seq)

    first.callbacks.append(mid_walk)
    sim.run()
    assert log == ["a0", "re-pushed", "b0", "b1", "b2"]
    assert sim.stats.events_processed == 6


def test_inert_entries_inside_a_bucket_dispatch_nothing():
    sim = Simulator()
    log = []
    _due(sim, log, 1.0, 1, "a")
    inner = sim.event()
    BulkCompletion(sim, 1.0, [inner], [None]).cancel()
    pipe = BandwidthResource(sim, 100.0)
    pipe.transfer(100.0)  # armed for t=1.0, inert once a flow due
    pipe.transfer(20.0).callbacks.append(  # earlier (t=0.4) comes in
        lambda _e: log.append("pipe"))
    _due(sim, log, 1.0, 1, "b")
    assert [e.callbacks for e in sim._at[1.0]][1:3] == [None, None]
    sim.run()
    assert log == ["pipe", "a0", "b0"] and not inner.triggered
    assert sim.now == pytest.approx(1.2) and sim.stats.events_processed == 8


@pytest.mark.parametrize("stop", ["until", "max_events", "raise"])
def test_a_stop_mid_bucket_puts_the_tail_back_in_order(stop):
    sim = Simulator()
    log = []
    events = _due(sim, log, 1.0, 5)
    _due(sim, log, 2.0, 1, "late")
    if stop == "until":
        sim.run(until=events[1])
    elif stop == "max_events":
        with pytest.raises(SimulationError, match="max_events=2"):
            sim.run(max_events=2)
    else:
        def boom(_e):
            raise RuntimeError("boom")

        events[1].callbacks.append(boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
    assert log == ["0", "1"] and sim.now == 1.0 and sim.peek() == 1.0
    assert sorted(sim._heap) == [1.0, 2.0] and sim._at[1.0] == events[2:]
    sim.run()
    assert log == ["0", "1", "2", "3", "4", "late0"]
    assert sim.stats.events_processed == 6


def test_run_until_a_time_stops_between_buckets_or_on_one():
    sim = Simulator()
    log = []
    _due(sim, log, 1.0, 2, "a")
    _due(sim, log, 2.0, 2, "b")
    sim.run(until=1.5)
    assert log == ["a0", "a1"] and sim.now == 1.5 and sim.peek() == 2.0
    sim.run(until=2.0)  # a bucket exactly at the limit runs
    assert log == ["a0", "a1", "b0", "b1"] and sim.now == 2.0
    assert sim.peek() == float("inf")
