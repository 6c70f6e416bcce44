"""Unit tests for the DES kernel: events, clock, ordering, run modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.matching import MatchingEngine
from repro.simt import (
    BandwidthResource, BulkCompletion, Event, Simulator, Timeout)
from repro.simt import kernel
from repro.simt.kernel import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_timeouts_fire_in_time_order():
    sim = Simulator()
    fired = []
    for d in (3.0, 1.0, 2.0):
        t = sim.timeout(d)
        t.callbacks.append(lambda e, d=d: fired.append((sim.now, d)))
    sim.run()
    assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for i in range(5):
        t = sim.timeout(1.0)
        t.callbacks.append(lambda e, i=i: fired.append(i))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_event_succeed_value():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(42)
    sim.run()
    assert evt.processed and evt.ok and evt.value == 42


def test_event_fail_carries_exception():
    sim = Simulator()
    evt = sim.event()
    exc = ValueError("boom")
    evt.fail(exc)
    sim.run()
    assert evt.processed and not evt.ok and evt.value is exc


def test_double_trigger_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)
    with pytest.raises(SimulationError):
        evt.fail(ValueError())


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_nan_delay_rejected_at_every_entry_point():
    # ``nan < 0`` is False: a ``delay < 0`` guard lets NaN into the
    # heap, where it breaks the ordering invariant silently.
    sim = Simulator()
    nan = float("nan")
    with pytest.raises(ValueError, match="nan"):
        Timeout(sim, nan)
    with pytest.raises(SimulationError, match="nan"):
        sim.event().succeed(delay=nan)
    with pytest.raises(SimulationError, match="nan"):
        sim.event().fail(RuntimeError("x"), delay=nan)
    with pytest.raises(SimulationError, match="nan"):
        BulkCompletion(sim, nan, [sim.event()], [None])
    with pytest.raises(SimulationError, match="past"):
        sim.event().succeed(delay=-1.0)
    assert sim.peek() == float("inf")  # nothing was scheduled
    assert sim.stats.peak_heap == 0


def test_infinite_delay_rejected_at_every_entry_point():
    # ``peek()`` answers inf for "nothing scheduled", yet ``run()`` used
    # to pop an entry at inf and leave the clock there for good.
    sim = Simulator()
    inf = float("inf")
    with pytest.raises(ValueError, match="inf"):
        Timeout(sim, inf)
    with pytest.raises(SimulationError, match="inf"):
        sim.event().succeed(delay=inf)
    with pytest.raises(SimulationError, match="inf"):
        sim.event().fail(RuntimeError("x"), delay=inf)
    with pytest.raises(SimulationError, match="inf"):
        BulkCompletion(sim, inf, [sim.event()], [None])
    with pytest.raises(ValueError, match="completion time is inf"):
        BandwidthResource(sim, 10.0).transfer(inf)
    assert sim.peek() == inf and sim.stats.peak_heap == 0
    sim.run()
    assert sim.now == 0.0


def test_step_on_an_empty_simulator_says_so():
    sim = Simulator()
    with pytest.raises(SimulationError, match="nothing scheduled"):
        sim.step()
    sim.timeout(1.0)
    sim.step()
    with pytest.raises(SimulationError, match="nothing scheduled"):
        sim.step()
    assert sim.now == 1.0 and sim.stats.events_processed == 1


def test_value_before_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value
    with pytest.raises(SimulationError):
        _ = evt.ok


def test_run_until_time_stops_clock_there():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_a_past_time_is_refused():
    # Regression: run(until=3.0) after run(until=6.0) set the clock
    # back to 3.0, and a 1 s timeout then fired at 4.0 -- before the
    # instant 6.0 that had already been processed.
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=6.0)
    with pytest.raises(SimulationError, match="already at 6.0"):
        sim.run(until=3.0)
    assert sim.now == 6.0
    fired = []
    sim.timeout(1.0).callbacks.append(lambda _e: fired.append(sim.now))
    sim.run(until=6.0)  # the current instant is not the past
    sim.run()
    assert fired == [7.0] and sim.now == 10.0


def test_run_until_nan_is_refused_before_anything_runs():
    # ``until=nan`` used to compare false against every deadline and
    # drain the whole schedule.
    sim = Simulator()
    fired = []
    sim.timeout(1.0).callbacks.append(fired.append)
    sim.event().succeed()
    with pytest.raises(SimulationError, match="nan"):
        sim.run(until=float("nan"))
    assert fired == [] and sim.now == 0.0
    assert sim.peek() == 0.0 and sim.stats.events_processed == 0


def test_run_until_event_returns_its_value():
    sim = Simulator()
    evt = sim.event()
    trigger = sim.timeout(5.0)
    trigger.callbacks.append(lambda e: evt.succeed("done"))
    assert sim.run(until=evt) == "done"
    assert sim.now == 5.0


def test_run_until_event_raises_on_failure():
    sim = Simulator()
    evt = sim.event()
    trigger = sim.timeout(1.0)
    trigger.callbacks.append(lambda e: evt.fail(RuntimeError("bad")))
    with pytest.raises(RuntimeError, match="bad"):
        sim.run(until=evt)


def test_run_until_event_never_fired_raises():
    sim = Simulator()
    evt = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=evt)


def test_max_events_guard():
    sim = Simulator()

    def ping(_e):
        t = sim.timeout(1.0)
        t.callbacks.append(ping)

    ping(None)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=100)


def test_a_drained_run_names_the_wait_chain():
    sim = Simulator()
    stuck = sim.event()

    def rank():
        yield sim.timeout(2.0)
        yield stuck

    inner = sim.spawn(rank(), name="rank3#1")

    def fmirun():
        yield inner

    outer = sim.spawn(fmirun(), name="fmirun")
    with pytest.raises(SimulationError) as info:
        sim.run(until=outer)
    assert str(info.value) == (
        "simulation ran out of events before the awaited event fired "
        "(now=2.0, events_processed=3); waiting: process 'fmirun' "
        "\u2192 process 'rank3#1' \u2192 Event (untriggered, 1 callback)")


def test_a_livelock_names_the_callbacks_due_next():
    sim = Simulator()

    def pinger():
        while True:
            yield sim.timeout(1.0)

    def ping(_e):
        sim.timeout(1.0).callbacks.append(ping)

    sim.spawn(pinger(), name="pinger")
    ping(None)
    with pytest.raises(SimulationError, match="livelock") as info:
        sim.run(max_events=7)
    assert str(info.value) == (
        "exceeded max_events=7; livelock suspected (2 of them since the "
        "clock last advanced) at now=3.0; next due: "
        "test_a_livelock_names_the_callbacks_due_next.<locals>.ping; "
        "process 'pinger'")


def test_a_zero_time_livelock_says_the_clock_stood_still():
    """Slow progress and a zero-time loop both trip ``max_events``; the
    count of events since the clock last moved tells them apart."""
    sim = Simulator()

    def spin(_e):
        evt = sim.event()
        evt.callbacks.append(spin)
        evt.succeed()

    sim.timeout(1.0)
    sim.timeout(2.0).callbacks.append(spin)
    with pytest.raises(SimulationError) as info:
        sim.run(max_events=50)
    assert "(49 of them since the clock last advanced) at now=2.0" in str(
        info.value)


def _spin_at(sim, when):
    """A zero-delay event that re-arms itself forever from ``when`` on."""
    def spin(_e):
        evt = sim.event()
        evt.callbacks.append(spin)
        evt.succeed()

    sim.timeout(when).callbacks.append(spin)


@pytest.mark.parametrize("awaited", [False, True])
def test_a_clock_that_stands_still_fails_the_run_without_a_budget(
        monkeypatch, awaited):
    """No ``max_events`` given: the run still stops, once the clock has
    stood at one instant for ``STALL_DISPATCHES`` dispatches (checked
    between batches), and names what is due."""
    monkeypatch.setattr(kernel, "STALL_DISPATCHES", 1000)
    sim = Simulator()
    sim.timeout(1.0)
    _spin_at(sim, 2.0)
    never = sim.timeout(5.0)
    with pytest.raises(SimulationError) as info:
        sim.run(until=never if awaited else None)
    assert str(info.value) == (
        "the clock stood still for 1001 dispatches; livelock suspected at "
        "now=2.0; next due: _spin_at.<locals>.spin; Timeout (inert)")
    # the state is whole: a budgeted run goes on from where it stopped
    with pytest.raises(SimulationError, match="1 of them since"):
        sim.run(max_events=1)


def test_the_stall_limit_counts_only_dispatches_at_one_instant(monkeypatch):
    monkeypatch.setattr(kernel, "STALL_DISPATCHES", 1000)
    sim = Simulator()
    left = [5000]  # 5,000 instants, one event each

    def ping(_e):
        left[0] -= 1
        if left[0]:
            sim.timeout(1.0).callbacks.append(ping)

    ping(None)
    for _ in range(999):  # a burst just under the limit, at one instant
        sim.timeout(3.0)
    sim.run()
    assert sim.now == 4999.0 and sim.stats.events_processed == 5998


def test_peek_empty_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert sim.peek() == 3.0


def test_timeout_is_event_subclass():
    sim = Simulator()
    assert isinstance(sim.timeout(0.0), Event)
    assert isinstance(sim.timeout(0.0), Timeout)


# ------------------------------------------------------- cancellation
def test_cancel_untriggered_event():
    sim = Simulator()
    evt = Event(sim)
    assert evt.cancel() is True
    assert evt.cancelled
    assert not evt.triggered


def test_cancel_is_idempotent():
    sim = Simulator()
    evt = Event(sim)
    assert evt.cancel() is True
    assert evt.cancel() is False


def test_cancel_after_trigger_refused():
    sim = Simulator()
    evt = Event(sim).succeed("v")
    assert evt.cancel() is False
    assert not evt.cancelled


def test_succeed_and_fail_after_cancel_are_noops():
    # The in-flight completion of an operation whose waiter died must
    # not crash -- and must not resurrect the event.
    sim = Simulator()
    evt = Event(sim)
    evt.cancel()
    evt.succeed("late")
    evt.fail(RuntimeError("later"))
    sim.run()
    assert not evt.triggered and not evt.processed


def test_cancelled_event_on_heap_never_fires():
    sim = Simulator()
    fired = []
    first = sim.timeout(1.0)
    first.callbacks.append(lambda e: fired.append("first"))
    second = sim.timeout(2.0)
    second.callbacks.append(lambda e: fired.append("second"))
    assert second.cancel() is False  # Timeout is triggered at birth
    # An explicitly triggered-then-scheduled Event can still be
    # withdrawn before its callbacks run only via the callbacks list;
    # cancel() targets *untriggered* events, so drive one through a
    # waiter that cancels it before it is succeeded.
    evt = Event(sim)
    evt.callbacks.append(lambda e: fired.append("evt"))
    evt.cancel()
    evt.succeed(None)  # no-op: never reaches the heap
    sim.run()
    assert fired == ["first", "second"]


def test_cancel_hook_runs_synchronously():
    # a posted receive keeps no hook of its own: the cancel withdraws it
    # at once, the engine sees it not pending, and a second is refused
    engine = MatchingEngine(Simulator())
    rec = engine.post(0, 7, 0)
    assert engine.pending_posted == 1
    assert rec.cancel()
    assert rec.cancelled and engine.pending_posted == 0
    assert engine.posted_count == 1  # pruned when a delivery reaches it
    assert not rec.cancel()


# ---------------------------------------------------------- run stats
def test_stats_count_events_and_peak_heap():
    sim = Simulator()
    for d in (1.0, 2.0, 3.0):
        sim.timeout(d)
    assert sim.stats.peak_heap == 3
    sim.run()
    assert sim.stats.events_processed == 3
    sim.timeout(1.0)
    sim.run()
    assert sim.stats.events_processed == 4  # cumulative


# One scheduling operation: (kind, delay, operations its firing issues).
# "pipe" starts a flow on one shared BandwidthResource, whose deadline
# *reservations* take a sequence number without an entry: each must
# count in the depth from the moment it is pushed, not before.
_KIND = st.sampled_from(
    ["timeout", "succeed", "delayed", "cancelled", "bulk", "read",
     "pipe", "pipe"])
_DELAY = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5])
_LEAF = st.tuples(_KIND, _DELAY, st.just(()))
_OPS = st.lists(
    st.tuples(_KIND, _DELAY, st.lists(_LEAF, max_size=4)), max_size=12)


def _drive_counting_depth(ops, stepwise):
    """Issue ``ops`` and drain; returns (simulator, deepest the two
    queues ever were, depth before anything ran).  The depth is sampled
    after every schedule a callback of this test issues and, stepwise,
    before every pop -- which also sees the pushes a pipe makes inside
    its own callbacks, so the stepwise figure is exact."""
    sim = Simulator()
    pipe = BandwidthResource(sim, capacity=100.0)
    brute = 0

    def sample():
        nonlocal brute
        batch = [entry for entry in sim._batch or () if entry is not None]
        queued = sum(len([e for e in bucket if e is not None])
                     for bucket in sim._at.values() if bucket is not sim._batch)
        brute = max(brute, queued + len(sim._nowq) + len(batch))

    def issue(kind, delay, children):
        def fired(_evt):
            for child in children:
                issue(*child)

        if kind == "timeout":
            sim.timeout(delay).callbacks.append(fired)
        elif kind == "succeed":
            evt = sim.event()
            evt.callbacks.append(fired)
            evt.succeed()
        elif kind == "delayed":
            evt = sim.event()
            evt.callbacks.append(fired)
            evt.succeed(delay=delay)
        elif kind == "cancelled":  # never reaches a queue
            evt = sim.event()
            evt.cancel()
            evt.succeed()
        elif kind == "bulk":  # one entry; its batch is dispatched inline
            inner = sim.event()
            inner.callbacks.append(fired)
            BulkCompletion(sim, delay, [inner], [None])
        elif kind == "pipe":  # later-due flows only reserve a deadline
            pipe.transfer(50.0 + 100.0 * delay, overhead=delay / 4
                          ).callbacks.append(fired)
        else:  # a reader in the middle of the run must not disturb it
            sim.timeout(delay).callbacks.append(
                lambda _e: sim.stats.peak_heap)
        sample()

    for op in ops:
        issue(*op)
    before = sim.stats.peak_heap
    if stepwise:
        while sim.peek() != float("inf"):
            sample()
            sim.step()
    else:
        sim.run()
    assert len(sim._heap) + len(sim._at) + len(sim._nowq) == 0
    return sim, brute, before


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_peak_heap_equals_brute_force_maximum(ops):
    sim, brute, before = _drive_counting_depth(ops, stepwise=True)
    # Read before anything ran: one entry per top-level schedule, but
    # the flows already in the pipe (no overhead to wait out) share its
    # one armed entry.
    in_pipe = [kind == "pipe" and delay == 0.0 for kind, delay, _ in ops]
    others = [kind != "cancelled" for kind, _, _ in ops]
    assert before == sum(others) - sum(in_pipe) + any(in_pipe)
    assert sim.stats.peak_heap == brute
    assert sim.stats.peak_heap == brute  # reading changes nothing
    # run() keeps its pops in a local and folds the maximum in at the
    # end: same schedule, same figure.
    ran, _sampled, ran_before = _drive_counting_depth(ops, stepwise=False)
    assert ran_before == before
    assert ran.stats.peak_heap == brute
    assert ran.stats.events_processed == sim.stats.events_processed


def test_peak_heap_does_not_count_a_reserved_deadline():
    sim = Simulator()
    pipe = BandwidthResource(sim, capacity=100.0)
    for _ in range(5):
        pipe.transfer(10.0)  # one entry armed, four deadlines reserved
    assert (sum(map(len, sim._at.values())), sim._reserved) == (1, 4)
    assert sim.stats.peak_heap == 1
    sim.run()
    # early pop + live pop + five completions, at most five at once
    assert sim.stats.events_processed == 7
    assert sim.stats.peak_heap == 5
    assert sim._seq - sim._reserved == sim.stats.events_processed


def test_peak_heap_survives_a_callback_that_raises():
    sim = Simulator()
    for d in (1.0, 1.0, 1.0, 2.0):
        sim.timeout(d)

    def boom(_e):
        raise RuntimeError("boom")

    sim.timeout(0.5).callbacks.append(boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.stats.peak_heap == 5
    sim.run()
    assert sim.stats.peak_heap == 5
    assert sim.stats.events_processed == 5


def test_stats_counted_even_when_run_raises():
    sim = Simulator()

    def ping(_e):
        t = sim.timeout(1.0)
        t.callbacks.append(ping)

    ping(None)
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(max_events=10)
    assert sim.stats.events_processed == 10


def test_until_event_at_exactly_max_events_succeeds():
    # Regression: the awaited event completing on precisely the Nth
    # step used to raise the livelock error anyway.
    sim = Simulator()
    for d in (1.0, 2.0, 3.0):
        last = sim.timeout(d)
    assert sim.run(until=last, max_events=3) is None
    assert last.processed


def test_max_events_still_guards_past_the_awaited_event():
    sim = Simulator()
    sim.timeout(1.0)
    never = Event(sim)  # never triggered
    with pytest.raises(SimulationError, match="livelock"):
        sim.run(until=never, max_events=1)


# ------------------------------------------------------- bulk completion
def test_bulk_completion_fires_batch_in_order():
    sim = Simulator()
    events = [Event(sim) for _ in range(4)]
    fired = []
    for i, evt in enumerate(events):
        evt.callbacks.append(lambda e, i=i: fired.append((sim.now, i, e.value)))
    BulkCompletion(sim, 2.0, list(events), [i * 10 for i in range(4)])
    sim.run()
    assert sim.now == 2.0
    assert fired == [(2.0, 0, 0), (2.0, 1, 10), (2.0, 2, 20), (2.0, 3, 30)]
    assert all(e.processed and e.ok for e in events)


def test_bulk_completion_skips_cancelled_and_triggered_entries():
    sim = Simulator()
    a, b, c = Event(sim), Event(sim), Event(sim)
    b.cancel()
    c.succeed("early")
    fired = []
    a.callbacks.append(lambda e: fired.append(e.value))
    BulkCompletion(sim, 1.0, [a, b, c], ["A", "B", "C"])
    sim.run()
    assert fired == ["A"]
    assert b.cancelled and not b.processed
    assert c.value == "early"


def test_bulk_completion_cancel_drops_whole_batch():
    sim = Simulator()
    events = [Event(sim) for _ in range(3)]
    bulk = BulkCompletion(sim, 1.0, list(events), [None] * 3)
    assert bulk.cancel()
    sim.run()
    assert all(not e.processed and not e.triggered for e in events)


def test_bulk_completion_resumes_waiting_processes():
    sim = Simulator()
    events = [Event(sim) for _ in range(3)]
    got = []

    def waiter(evt):
        value = yield evt
        got.append((sim.now, value))

    for i, evt in enumerate(events):
        sim.spawn(waiter(evt))
    BulkCompletion(sim, 0.5, list(events), [0, 1, 2])
    sim.run()
    assert got == [(0.5, 0), (0.5, 1), (0.5, 2)]


def test_bulk_completion_drops_each_entry_once_dispatched():
    sim = Simulator()
    events = [Event(sim) for _ in range(3)]
    batch, values = list(events), list("abc")
    seen = []
    for evt in events:
        # what the bulk still holds while this event's callbacks run
        evt.callbacks.append(lambda _e: seen.append((list(batch), list(values))))
    bulk = BulkCompletion(sim, 1.0, batch, values)
    sim.run()
    assert [e.value for e in events] == ["a", "b", "c"]
    assert seen == [
        ([None] * k + events[k:], [None] * k + list("abc")[k:])
        for k in range(1, 4)
    ]
    assert (bulk._events, bulk._values) == ((), ())
    assert sim.stats.events_processed == 4


@pytest.mark.parametrize("drive", ["run", "step"])
def test_bulk_completion_counts_an_event_before_its_callbacks_run(drive):
    # Like a popped event (PR 15): a callback that raises mid-batch
    # leaves the completions so far -- its own included -- counted, not
    # dropped with the frame that was adding them up.
    sim = Simulator()
    events = [Event(sim) for _ in range(5)]
    fired = []
    for i, evt in enumerate(events):
        evt.callbacks.append(lambda _e, i=i: fired.append(i))

    def boom(_e):
        raise RuntimeError("boom")

    events[2].callbacks.append(boom)
    BulkCompletion(sim, 1.0, list(events), [None] * 5)
    sim.timeout(2.0)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run() if drive == "run" else sim.step()
    assert fired == [0, 1, 2]
    assert [e.processed for e in events] == [True, True, True, False, False]
    assert not events[3].triggered and not events[4].triggered
    assert sim.stats.events_processed == 1 + 3  # the bulk event + three
    assert sim.stats.peak_heap == 2
    sim.run()  # the rest of the batch went with the exception
    assert fired == [0, 1, 2]
    assert sim.now == 2.0
    assert sim.stats.events_processed == 1 + 3 + 1
    assert sim.stats.peak_heap == 2


class _Falsy:
    """A callback that is false in a boolean context."""

    def __init__(self, log):
        self.log = log

    def __len__(self):
        return 0

    def __call__(self, evt):
        self.log.append(evt.value)


def test_a_falsy_lone_callback_runs_at_every_dispatch_site():
    # the slot's shape is read by class: a callable that defines
    # ``__len__`` is still one callback, in ``run``, ``step`` and a bulk
    sim = Simulator()
    log = []
    for value in ("run", "step"):
        evt = sim.event()
        evt._callbacks = _Falsy(log)
        evt.succeed(value)
        sim.run() if value == "run" else sim.step()
    evt = sim.event()
    evt._callbacks = _Falsy(log)
    BulkCompletion(sim, 0.0, [evt], ["bulk"])
    sim.run()
    assert log == ["run", "step", "bulk"]


def test_callbacks_reads_the_slot_as_a_list_and_writes_it_as_given():
    sim = Simulator()
    evt = sim.event()
    assert evt._callbacks == ()
    assert evt.callbacks == [] and evt._callbacks == []
    lone = sim.event()
    lone._callbacks = print
    assert lone.callbacks == [print] and lone._callbacks == [print]
    lone.callbacks = None
    assert lone._callbacks is None and lone.callbacks is None
