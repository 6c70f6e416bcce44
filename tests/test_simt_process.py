"""Unit tests for generator processes: resume, interrupt, kill, join."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import Interrupt, Process, ProcessKilled, Simulator
from repro.simt.process import wait_chain
from repro.simt.kernel import Event, SimulationError

from tests.schedule_recorder import RecordingSimulator


def test_process_runs_and_returns():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "result"

    proc = sim.spawn(worker())
    sim.run()
    assert sim.now == 3.0
    assert proc.ok and proc.value == "result"


def test_process_receives_event_value():
    sim = Simulator()
    seen = []

    def worker():
        v = yield sim.timeout(1.0, value="hello")
        seen.append(v)

    sim.spawn(worker())
    sim.run()
    assert seen == ["hello"]


def test_process_join():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return 99

    def parent():
        v = yield sim.spawn(child())
        return v + 1

    p = sim.spawn(parent())
    sim.run()
    assert p.value == 100
    assert sim.now == 5.0


def test_failed_event_raises_in_generator():
    sim = Simulator()
    caught = []

    def worker():
        evt = sim.event()
        trig = sim.timeout(1.0)
        trig.callbacks.append(lambda e: evt.fail(ValueError("x")))
        try:
            yield evt
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(worker())
    sim.run()
    assert caught == ["x"]


def test_uncaught_exception_fails_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        raise RuntimeError("died")

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, RuntimeError)


def test_interrupt_catchable():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append(("interrupted", sim.now, i.cause))
        yield sim.timeout(1.0)
        log.append(("done", sim.now))

    proc = sim.spawn(worker())

    def do_interrupt():
        yield sim.timeout(2.0)
        proc.interrupt("failure-notice")

    sim.spawn(do_interrupt())
    sim.run()
    assert log == [("interrupted", 2.0, "failure-notice"), ("done", 3.0)]


def test_interrupt_uncaught_fails_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(100.0)

    proc = sim.spawn(worker())

    def do_interrupt():
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.spawn(do_interrupt())
    sim.run()
    assert not proc.ok and isinstance(proc.value, Interrupt)


def test_kill_never_resumes_generator():
    sim = Simulator()
    trace = []

    def worker():
        trace.append("start")
        try:
            yield sim.timeout(100.0)
            trace.append("resumed")  # must never happen
        finally:
            trace.append("finally")

    proc = sim.spawn(worker())

    def killer():
        yield sim.timeout(1.0)
        proc.kill("node-crash")

    sim.spawn(killer())
    sim.run()
    assert trace == ["start", "finally"]
    assert not proc.ok
    assert isinstance(proc.value, ProcessKilled)
    assert proc.value.cause == "node-crash"


def test_kill_is_idempotent_and_safe_after_finish():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return 7

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == 7
    proc.kill()  # no-op
    proc.interrupt()  # no-op
    assert proc.value == 7


def test_joining_killed_process_raises():
    sim = Simulator()

    def child():
        yield sim.timeout(100.0)

    def parent(c):
        try:
            yield c
        except ProcessKilled:
            return "saw-kill"

    c = sim.spawn(child())
    p = sim.spawn(parent(c))

    def killer():
        yield sim.timeout(1.0)
        c.kill()

    sim.spawn(killer())
    sim.run()
    assert p.value == "saw-kill"


def test_yield_non_event_is_error():
    sim = Simulator()

    def worker():
        yield 42

    proc = sim.spawn(worker())
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_yielding_a_cancelled_event_fails_the_process_by_name():
    # It never fires: the process must not hang on it, and the kernel
    # must not crash on the registration.
    sim = Simulator()
    evt = sim.event()
    evt.cancel()
    closed = []

    def worker():
        try:
            yield evt
        finally:
            closed.append(sim.now)

    proc = sim.spawn(worker(), name="p")
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)
    assert str(proc.value) == (
        "process 'p' yielded a cancelled Event, which never fires")
    assert closed == [0.0]


def test_one_waiter_is_held_without_a_list():
    sim = Simulator()
    evt = sim.event()

    def worker():
        return (yield evt)

    proc = sim.spawn(worker(), name="p")
    sim.run()
    assert evt._callbacks is proc._resume_cb
    # a report reads the slot and leaves it as it found it
    assert wait_chain(proc) == "process 'p' → Event (untriggered, 1 callback)"
    assert evt._callbacks is proc._resume_cb
    evt.succeed("v")
    sim.run()
    assert proc.value == "v" and evt._callbacks is None


def test_callbacks_lists_the_slot_in_registration_order():
    sim = Simulator()
    evt = sim.event()
    order = []
    assert evt._callbacks == ()

    def worker():
        order.append((yield evt))

    first = sim.spawn(worker(), name="first")
    sim.run()
    assert evt._callbacks is first._resume_cb
    # the list view takes the lone waiter along, first
    evt.callbacks.append(lambda e: order.append("appended"))
    sim.spawn(worker(), name="second")
    sim.run()
    assert [getattr(cb, "__self__", None) is not None
            for cb in evt.callbacks] == [True, False, True]
    evt.succeed("v")
    sim.run()
    assert order == ["v", "appended", "v"]
    assert evt.callbacks is None


def test_an_interrupt_empties_a_one_waiter_slot():
    sim = Simulator()
    evt = sim.event()

    def worker():
        try:
            yield evt
        except Interrupt:
            return "interrupted"

    proc = sim.spawn(worker())
    sim.run()
    proc.interrupt()
    sim.run()
    assert proc.value == "interrupted"
    assert evt._callbacks == () and evt.callbacks == []


def test_yield_already_processed_event():
    sim = Simulator()

    def worker():
        evt = sim.event()
        evt.succeed("early")
        yield sim.timeout(1.0)
        v = yield evt  # processed long ago
        return v

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == "early"


def test_alive_property():
    sim = Simulator()

    def worker():
        yield sim.timeout(2.0)

    proc = sim.spawn(worker())
    assert proc.alive
    sim.run()
    assert not proc.alive


def test_process_immediate_return():
    sim = Simulator()

    def worker():
        return "quick"
        yield  # pragma: no cover - makes this a generator

    proc = sim.spawn(worker())
    sim.run()
    assert proc.value == "quick"


# ---------------------------------------------------------------- hand-off
#: 1 at tier-1, 10 under ``--hypothesis-profile=deep`` (``conftest.py``)
_SCALE = max(1, settings.default.max_examples // 100)

_DELAY = st.sampled_from([0.0, 0.5, 1.0])
_INSTANT = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5])
#: what a yield site catches: V a subroutine's ValueError, I an Interrupt
_CATCHES = st.sampled_from(["", "V", "I", "VI"])
_WAIT = st.tuples(st.just("wait"), _DELAY, _CATCHES)
#: one event of a pair: ``(delay, fails)``
_MEMBER = st.tuples(_DELAY, st.sampled_from(
    ["name", "None", "tuple", "Event", "fails"]))
#: ``("pair", wait before the yield, a, b, catches)``: a member whose
#: delay the wait reaches has fired by the yield (a relay)
_PAIR = st.tuples(st.just("pair"), _DELAY, _MEMBER, _MEMBER, _CATCHES)


def _call(depth, wait=_WAIT):
    """A call site: ``("call", handoff, subroutine, catches)``."""
    return st.tuples(st.just("call"), st.booleans(), _subroutine(depth, wait),
                     _CATCHES)


def _subroutine(depth, wait=_WAIT):
    """``(items, end)``: up to three waits or, while ``depth`` lasts,
    calls, then a return or a raise."""
    item = wait if depth == 0 else st.one_of(wait, _call(depth - 1, wait))
    return st.tuples(st.lists(item, max_size=3),
                     st.sampled_from(["return", "raise"]))


def _body(depth, wait=_WAIT):
    """A body whose subroutine tree is ``depth`` deep at the most, with
    at least one call."""
    item = st.one_of(wait, _call(depth - 1, wait))
    return st.tuples(
        st.builds(lambda head, call, tail: head + [call] + tail,
                  st.lists(item, max_size=2), _call(depth - 1, wait),
                  st.lists(item, max_size=2)),
        st.sampled_from(["return", "raise"]))


#: a value that is an event, the same object in every run
_AN_EVENT = Event(Simulator())


def _member(sim, delay, kind, name):
    """A pair's event, ``delay`` from now: a timeout whose value is
    ``name``, None, ``(name,)`` or an event -- the values the trampoline
    must not take for a state of the pair -- or an event that fails
    with a ``ValueError`` naming it."""
    if kind != "fails":
        return sim.timeout(delay, value={
            "name": name, "None": None, "tuple": (name,),
            "Event": _AN_EVENT}[kind])
    evt = Event(sim)
    return evt.fail(ValueError(f"{name} failed"), delay)


def _run_program(handoff, body, interrupts, kill_at, paired=True):
    """One body and its tree of subroutines, each call entered by
    hand-off where both ``handoff`` and the call site say so, else by
    ``yield from``, each pair yielded as one where ``paired`` says so,
    else as two ``yield``\\ s; returns everything the two must agree
    on, the dispatch sequence included."""
    sim = RecordingSimulator(keep=True)
    log = []

    def run(tag, items, end):
        try:
            for i, item in enumerate(items):
                try:
                    if item[0] == "wait":
                        got = yield sim.timeout(item[1], value=(tag, i))
                    elif item[0] == "pair":
                        a, b = (_member(sim, *member, f"{tag}.{i}{k}")
                                for k, member in zip("ab", item[2:4]))
                        yield sim.timeout(item[1])
                        if paired:
                            got = yield a, b
                        else:
                            got = (yield a), (yield b)
                    elif handoff and item[1]:
                        got = yield run(f"{tag}.{i}", *item[2])
                    else:
                        got = yield from run(f"{tag}.{i}", *item[2])
                    log.append(("got", tag, i, repr(sim.now), got))
                except (ValueError, Interrupt) as exc:
                    log.append(("caught", tag, i, repr(sim.now), repr(exc)))
                    if type(exc).__name__[0] not in item[-1]:
                        raise
            if end == "raise":
                raise ValueError(f"{tag} failed")
            return ("result", tag)
        finally:
            log.append(("finally", tag, repr(sim.now)))

    proc = sim.spawn(run("body", *body), name="body")
    for t in interrupts:
        sim.timeout(t).callbacks.append(
            lambda _e, t=t: proc.interrupt(("interrupt", t)))
    if kill_at is not None:
        sim.timeout(kill_at).callbacks.append(lambda _e: proc.kill("kill"))
    sim.run()
    outcome = (proc.ok, repr(proc.value) if proc.ok
               else (type(proc.value).__name__, str(proc.value)))
    return (log, outcome, sim.stats.events_processed, repr(sim.now),
            sim.entries)


_STEPS = st.lists(st.tuples(_DELAY, st.booleans()), max_size=3)
_ROUND = st.tuples(_STEPS, st.sampled_from(["return", "raise"]))


@settings(max_examples=200 * _SCALE, deadline=None)
@given(pre=st.sampled_from([0.0, 0.5]),
       rounds=st.lists(_ROUND, min_size=1, max_size=2),
       body_catches=st.booleans(),
       interrupts=st.lists(_INSTANT, max_size=2),
       kill_at=st.one_of(st.none(), _INSTANT))
def test_a_hand_off_behaves_as_yield_from(pre, rounds, body_catches,
                                          interrupts, kill_at):
    # one level: a body that hands off each of its subroutines in turn
    calls = [("call", True,
              ([("wait", delay, "I" if catch else "")
                for delay, catch in steps], end),
              "VI" if body_catches else "V")
             for steps, end in rounds]
    body = ([("wait", pre, "")] + calls + [("wait", 0.5, "")], "return")
    program = (body, interrupts, kill_at)
    assert _run_program(True, *program) == _run_program(False, *program)


@settings(max_examples=300 * _SCALE, deadline=None)
@given(body=st.integers(1, 4).flatmap(_body),
       interrupts=st.lists(_INSTANT, max_size=3),
       kill_at=st.one_of(st.none(), _INSTANT))
def test_a_tree_of_hand_offs_behaves_as_nested_yield_from(body, interrupts,
                                                          kill_at):
    # hand-offs nest, and mix with ``yield from`` levels: the same
    # values, catches, ``finally`` order, outcome, events and clock
    program = (body, interrupts, kill_at)
    assert _run_program(True, *program) == _run_program(False, *program)


@settings(max_examples=300 * _SCALE, deadline=None)
@given(pair=_PAIR, at=st.integers(0, 4),
       body=st.integers(1, 3).flatmap(
           lambda depth: _body(depth, st.one_of(_WAIT, _PAIR))),
       interrupts=st.lists(_INSTANT, max_size=3),
       kill_at=st.one_of(st.none(), _INSTANT))
def test_a_pair_behaves_as_two_yields(pair, at, body, interrupts, kill_at):
    # ``x, y = yield a, b`` against ``x, y = (yield a), (yield b)``, in
    # a tree of hand-offs: either member first, either fired by the
    # yield, either failing, an interrupt or a kill while either is
    # awaited -- the same values, catches, ``finally`` order, outcome,
    # events, clock and dispatch sequence
    items, end = body
    program = ((items[:at] + [pair] + items[at:], end), interrupts, kill_at)
    assert (_run_program(True, *program, paired=True)
            == _run_program(True, *program, paired=False))


def _pair_program(sim, a, b, log):
    def body():
        try:
            log.append((yield a, b))
        except (ValueError, Interrupt) as exc:
            log.append(repr(exc))
        return "done"
    return body()


def test_a_pair_is_waited_on_in_order_in_one_resume():
    sim = Simulator()
    log = []
    a, b = sim.timeout(2.0, value="a"), sim.timeout(1.0, value="b")
    proc = sim.spawn(_pair_program(sim, a, b, log), name="p")
    sim.run(until=1.5)
    # b fired first; the process still waits on a, and names b after it
    assert proc._target is a and proc._pair is b
    assert wait_chain(proc) == (
        "process 'p' \u2192 Timeout (triggered, 1 callback), then Timeout")
    sim.run()
    assert log == [("a", "b")] and proc.value == "done"
    assert sim.now == 2.0
    # the boot, both timeouts, b's relay, the join
    assert sim.stats.events_processed == 5


def test_a_pair_takes_the_first_failure():
    sim = Simulator()
    log = []
    a = Event(sim).fail(ValueError("a"), 1.0)
    b = sim.timeout(0.5)
    proc = sim.spawn(_pair_program(sim, a, b, log), name="p")
    sim.run()
    assert log == ["ValueError('a')"]

    sim = Simulator()
    log = []
    a = sim.timeout(0.5, value="a")
    b = Event(sim).fail(ValueError("b"), 1.0)
    sim.spawn(_pair_program(sim, a, b, log), name="p")
    sim.run()
    assert log == ["ValueError('b')"]


def test_the_pair_takes_no_slot_of_its_own():
    # its state lives in the kernel's ``_seq`` slot, free until the
    # process's one push: a process is an event and five slots, and a
    # thirteenth would cost every rank 16 bytes (pymalloc rounds up)
    assert Process._pair is Event._seq
    assert Process.__basicsize__ == (Event.__basicsize__
                                     + 5 * struct.calcsize("P"))


@pytest.mark.parametrize("at", [0.5, 1.5], ids=["on-a", "on-b"])
def test_an_interrupt_or_a_kill_clears_the_pair(at):
    sim = Simulator()
    log = []
    a, b = sim.event(), sim.event()
    a.succeed("a", delay=1.0)
    proc = sim.spawn(_pair_program(sim, a, b, log), name="p")
    sim.run(until=at)
    assert proc._pair is not None
    proc.interrupt("stop")
    assert proc._pair is None
    sim.run()
    assert log == ["Interrupt('stop')"] and proc.value == "done"
    assert b._callbacks == ()  # nobody left registered on b

    sim = Simulator()
    a, b = sim.event(), sim.event()
    a.succeed("a", delay=1.0)
    proc = sim.spawn(_pair_program(sim, a, b, []), name="p")
    sim.run(until=at)
    proc.kill("crash")
    sim.run()
    assert isinstance(proc.value, ProcessKilled)
    assert not b.callbacks  # nor on b after a kill


def _refused(sim, yielded):
    """The failure of a process that yields ``yielded`` once, and the
    time its generator was closed."""
    closed = []

    def body():
        try:
            yield yielded
        finally:
            closed.append(sim.now)

    proc = sim.spawn(body(), name="p")
    sim.run()
    assert not proc.ok and isinstance(proc.value, SimulationError)
    return str(proc.value), closed


def test_a_pair_refuses_a_member_that_never_fires():
    sim = Simulator()
    cancelled, inert = sim.event(), sim.event()
    cancelled.cancel()
    inert._callbacks = None  # a record whose slot was taken
    never = "process 'p' yielded a {} Event, which never fires"
    assert _refused(sim, (cancelled, sim.timeout(1.0))) == (
        never.format("cancelled"), [0.0])
    assert _refused(sim, (inert, sim.timeout(1.0))) == (
        never.format("inert"), [1.0])
    # the second is refused when the first fires, where a second
    # ``yield`` would meet it
    assert _refused(sim, (sim.timeout(1.0), cancelled)) == (
        never.format("cancelled"), [3.0])


@pytest.mark.parametrize("shape", ["one", "three", "not-an-event",
                                   "a-generator", "nested"])
def test_a_tuple_that_is_not_two_events_is_refused(shape):
    sim = Simulator()
    evt = sim.timeout(1.0)
    yielded = {"one": (evt,), "three": (evt, evt, evt),
               "not-an-event": (evt, 42), "a-generator": (evt, iter(())),
               "nested": ((evt, evt), evt)}[shape]
    assert _refused(sim, yielded) == (
        "process 'p' yielded tuple, expected an Event or a generator "
        "(or a pair of Events)", [0.0])


def _chain(depth, sim, log):
    """``depth`` subroutines, each handing off the next; the innermost
    waits 5 s."""
    def level(k):
        try:
            if k == depth:
                yield sim.timeout(5.0)
                return "leaf"
            got = yield level(k + 1)
            log.append(("got", k, got))
            return got
        finally:
            log.append(("finally", k, sim.now))
    return level(0)


def test_nested_hand_offs_return_outward_and_close_inward():
    sim = Simulator()
    log = []
    proc = sim.spawn(_chain(3, sim, log), name="deep")
    sim.run()
    assert proc.value == "leaf" and sim.now == 5.0
    assert log == [("finally", 3, 5.0), ("got", 2, "leaf"),
                   ("finally", 2, 5.0), ("got", 1, "leaf"),
                   ("finally", 1, 5.0), ("got", 0, "leaf"),
                   ("finally", 0, 5.0)]
    assert proc._caller is None

    sim = Simulator()
    log = []
    proc = sim.spawn(_chain(3, sim, log), name="deep")
    sim.timeout(1.0).callbacks.append(lambda _e: proc.kill("crash"))
    sim.run()
    assert isinstance(proc.value, ProcessKilled)
    assert log == [("finally", k, 1.0) for k in (3, 2, 1, 0)]
    assert proc._caller is None and proc.generator.gi_frame is None


def test_wait_chain_names_the_hand_off_chain():
    sim = Simulator()
    proc = sim.spawn(_chain(2, sim, []), name="deep")
    sim.run(until=1.0)
    level = "_chain.<locals>.level"
    assert wait_chain(proc) == (
        f"process 'deep' [{level} \u2192 {level} \u2192 {level}] "
        "\u2192 Timeout (triggered, 1 callback)")


def test_kill_closes_the_subroutine_then_the_body():
    sim = Simulator()
    log = []

    def sub():
        try:
            yield sim.timeout(5.0)
        finally:
            log.append(("sub-finally", sim.now))

    def body():
        try:
            yield sub()
        finally:
            log.append(("body-finally", sim.now))

    proc = sim.spawn(body())
    sim.timeout(1.0).callbacks.append(lambda _e: proc.kill("crash"))
    sim.run()
    assert log == [("sub-finally", 1.0), ("body-finally", 1.0)]
    assert isinstance(proc.value, ProcessKilled)
    assert proc.generator.gi_frame is None  # the body, closed


# ----------------------------------------------------------- tail hand-off
def _tail_program(sim, log, end="return"):
    """A body that boots, then returns its tail: the tail is the body."""

    def tail():
        try:
            got = yield sim.timeout(1.0, value="tick")
            log.append(("tail", sim.now, got))
            yield sim.timeout(1.0)
            if end == "raise":
                raise ValueError("tail failed")
            return "tail-done"
        finally:
            log.append(("tail-finally", sim.now))

    def body():
        yield sim.timeout(0.5)
        log.append(("body", sim.now))
        return tail()

    return body()


def test_a_returned_generator_is_the_body_and_gives_the_value():
    sim = Simulator()
    log = []
    body = _tail_program(sim, log)
    proc = sim.spawn(body, name="rank")
    sim.run()
    assert proc.ok and proc.value == "tail-done"
    assert log == [("body", 0.5), ("tail", 1.5, "tick"), ("tail-finally", 2.5)]
    assert body.gi_frame is None and proc.generator is not body
    assert sim.stats.events_processed == 5  # boot, 3 timeouts, the join


def test_a_tail_that_raises_fails_the_process():
    sim = Simulator()
    log = []
    proc = sim.spawn(_tail_program(sim, log, end="raise"), name="rank")
    sim.run()
    assert not proc.ok and isinstance(proc.value, ValueError)
    assert log[-1] == ("tail-finally", 2.5)


def test_kill_during_the_tail_closes_it():
    sim = Simulator()
    log = []
    proc = sim.spawn(_tail_program(sim, log), name="rank")
    sim.timeout(1.0).callbacks.append(lambda _e: proc.kill("crash"))
    sim.run()
    assert isinstance(proc.value, ProcessKilled)
    assert log == [("body", 0.5), ("tail-finally", 1.0)]
    assert proc.generator.gi_frame is None  # the tail, closed


def test_wait_chain_names_the_process_running_its_tail():
    sim = Simulator()
    proc = sim.spawn(_tail_program(sim, []), name="rank")
    sim.run(until=1.0)
    assert wait_chain(proc) == (
        "process 'rank' \u2192 Timeout (triggered, 1 callback)")


def test_a_subroutine_that_returns_a_generator_returns_it():
    # only the body's own return is a tail: a handed-off subroutine's
    # value goes back to its caller, generator or not
    sim = Simulator()

    def gen():
        yield sim.timeout(1.0)

    made = gen()

    def sub():
        yield sim.timeout(1.0)
        return made

    def body():
        got = yield sub()
        return got is made

    proc = sim.spawn(body())
    sim.run()
    assert proc.value is True and sim.now == 1.0


@pytest.mark.parametrize("flavour", ["mpi", "fmi"])
def test_an_app_that_is_not_a_generator_is_named(flavour):
    # Under ``yield from job.app(api)`` this was a bare "'int' object
    # is not iterable" from inside the runtime body.
    from repro.cluster import Machine
    from repro.cluster.spec import SIERRA
    from repro.fmi import FmiConfig, FmiJob
    from repro.mpi.runtime import MpiJob
    from repro.simt.rng import RngRegistry

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(4), RngRegistry(14))
    if flavour == "mpi":
        job = MpiJob(machine, lambda api: 42, 2, charge_init=False)
    else:
        job = FmiJob(machine, lambda api: 42, num_ranks=2,
                     config=FmiConfig(checkpoint_enabled=False,
                                      xor_group_size=2))
    with pytest.raises(Exception, match="yielded int, expected an Event or a generator"):
        sim.run(until=job.launch())
