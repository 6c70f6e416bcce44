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
import heapq
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
    "bulk", "repush", "raise",
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
    st.tuples(st.just("time"), st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.5])),
), max_size=5)


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
            BulkCompletion(sim, delay, [(evt, None)])
        else:
            # "repush": like a pipe's armed entry moving to its reserved
            # place -- a seq taken now, an entry pushed later at that
            # seq for the then-current instant, ahead of the queue.
            evt = Event(sim)
            evt._ok, evt._value = True, None
            seq = sim._seq = sim._seq + 1
            sim._reserved += 1

            def repush(_timer):
                sim._reserved -= 1
                heapq.heappush(sim._heap, (sim.now, seq, evt))

            sim.timeout(delay).callbacks.append(repush)
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


@settings(max_examples=300, deadline=None)
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
        heapq.heappush(sim._heap, (sim.now, seq, early))

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
