"""Unit tests for the fair-share BandwidthResource and AllOf."""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.simt import BandwidthResource, Simulator
from repro.simt.primitives import AllOf
from repro.simt.resources import _DelayedStart
from tests.pipe_reference import ReferenceBandwidthResource


def _run(sim, until=None, max_events=150):
    """``sim.run`` with a livelock tripwire: a pipe that re-arms at one
    instant without end would hang the suite, so past ``max_events``
    the kernel fails the case with its livelock report instead.  The
    default is about ten times what the largest unit case here needs
    (12 events)."""
    return sim.run(until=until, max_events=max_events)


# ------------------------------------------------------ BandwidthResource
def test_bandwidth_single_flow_time():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)  # 100 B/s
    done = bw.transfer(200.0)
    _run(sim, until=done)
    assert sim.now == pytest.approx(2.0)


def test_bandwidth_two_equal_flows_share_fairly():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    d1 = bw.transfer(100.0)
    d2 = bw.transfer(100.0)
    ends = []
    d1.callbacks.append(lambda e: ends.append(("d1", sim.now)))
    d2.callbacks.append(lambda e: ends.append(("d2", sim.now)))
    _run(sim)
    # Both at 50 B/s -> both finish at t=2 (not 1 and 2).
    assert ends[0][1] == pytest.approx(2.0)
    assert ends[1][1] == pytest.approx(2.0)


def test_bandwidth_staggered_flows():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    ends = {}

    def flow(name, start, nbytes):
        yield sim.timeout(start)
        yield bw.transfer(nbytes)
        ends[name] = sim.now

    # f1 alone [0,1): moves 100B. Then shares: 50 B/s each.
    # f1 has 100B left -> 2 more seconds -> ends t=3.
    # f2 (100B) also ends t=3... wait f2 has 100B at 50B/s = 2s -> t=3. Then none left.
    sim.spawn(flow("f1", 0.0, 200.0))
    sim.spawn(flow("f2", 1.0, 100.0))
    _run(sim)
    assert ends["f1"] == pytest.approx(3.0)
    assert ends["f2"] == pytest.approx(3.0)


def test_bandwidth_short_flow_releases_capacity():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    ends = {}

    def flow(name, nbytes):
        yield bw.transfer(nbytes)
        ends[name] = sim.now

    # Together at 50 B/s: f_small (50B) done at t=1.
    # f_big then has 150B left alone at 100B/s -> done at t=2.5.
    sim.spawn(flow("big", 200.0))
    sim.spawn(flow("small", 50.0))
    _run(sim)
    assert ends["small"] == pytest.approx(1.0)
    assert ends["big"] == pytest.approx(2.5)


def test_bandwidth_overhead_added_before_bytes():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    done = bw.transfer(100.0, overhead=0.5)
    _run(sim, until=done)
    assert sim.now == pytest.approx(1.5)


def test_bandwidth_zero_bytes_is_instant_after_overhead():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=10.0)
    done = bw.transfer(0.0, overhead=0.25)
    _run(sim, until=done)
    assert sim.now == pytest.approx(0.25)


def test_bandwidth_rejects_negative():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=10.0)
    with pytest.raises(ValueError):
        bw.transfer(-1.0)
    with pytest.raises(ValueError):
        BandwidthResource(sim, capacity=0.0)
    with pytest.raises(ValueError):
        bw.set_capacity(-5.0)


def test_bandwidth_bytes_done_accounting():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    bw.transfer(30.0)
    bw.transfer(70.0)
    _run(sim)
    assert bw.bytes_done == pytest.approx(100.0)


def test_bandwidth_many_flows_aggregate_time():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    events = [bw.transfer(10.0) for _ in range(10)]
    _run(sim)
    # 100 bytes total through a 100 B/s pipe: all end at t=1.
    assert sim.now == pytest.approx(1.0)
    assert all(e.processed for e in events)


@pytest.mark.parametrize("bad", [float("nan"), -1.0, 0.0])
def test_bandwidth_bad_capacity_is_refused_at_the_call(bad):
    sim = Simulator()
    with pytest.raises(ValueError, match="capacity must be positive"):
        BandwidthResource(sim, capacity=bad)
    bw = BandwidthResource(sim, capacity=10.0)
    bw.transfer(100.0)
    scheduled = sim.stats.peak_heap
    with pytest.raises(ValueError, match="capacity must be positive"):
        bw.set_capacity(bad)
    assert bw.capacity == 10.0
    assert sim.stats.peak_heap == scheduled  # nothing was scheduled


@pytest.mark.parametrize("kwargs, named", [
    ({"nbytes": float("nan")}, "nbytes"),
    ({"nbytes": 10.0, "overhead": float("nan")}, "overhead"),
    ({"nbytes": 10.0, "overhead": -0.5}, "overhead"),
])
def test_bandwidth_bad_transfer_is_refused_at_the_call(kwargs, named):
    # NaN compares False both ways: ``nan < 0`` let these through, to
    # surface later as "negative timeout delay: nan" (or, for the
    # overhead, to be dropped without a word).
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=10.0)
    with pytest.raises(ValueError, match=f"{named} must be >= 0"):
        bw.transfer(**kwargs)
    assert sim.peek() == float("inf") and sim.stats.peak_heap == 0
    assert bw.active_flows == 0


def test_bandwidth_nan_deadline_does_not_reach_the_heap():
    # Each argument is legal on its own; together the deadline is
    # inf / inf.  ``Timeout`` used to refuse it; the pipe pushes its
    # own entries now, so the pipe must.
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=float("inf"))
    with pytest.raises(ValueError, match="completion time is nan"):
        bw.transfer(float("inf"))
    assert sim.peek() == float("inf")


class _CountingPipe(BandwidthResource):
    """Records every pop of the pipe's deadline entry into ``_change``:
    when, and whether the entry popped ahead of its deadline (and only
    moved itself) or at it."""

    def __init__(self, sim, capacity, pops=None):
        self.pops = [] if pops is None else pops
        super().__init__(sim, capacity)

    def _change(self, entry, nbytes=0.0, done=None):
        if entry is not None and entry.__class__ is not _DelayedStart:
            kind = "early" if self._due_seq else "live"
            self.pops.append((self.sim.now, kind))
        super()._change(entry, nbytes, done)


def test_bandwidth_flows_started_together_enter_the_timer_once():
    sim = Simulator()
    bw = _CountingPipe(sim, capacity=100.0)
    events = [bw.transfer(10.0) for _ in range(10)]
    # The first start armed an entry for t=0.1; the nine later (and
    # later-due) deadlines only reserved their place.
    assert bw._armed_at == pytest.approx(0.1)
    assert bw._due_at == pytest.approx(1.0) and bw._due_seq
    assert sim.stats.peak_heap == 1
    _run(sim)
    # The entry popped once ahead of the deadline and moved itself;
    # the completion work was done once.
    assert bw.pops == [(pytest.approx(0.1), "early"),
                       (pytest.approx(1.0), "live")]
    assert all(e.processed for e in events)
    assert bw.bytes_done == pytest.approx(100.0)
    # 2 pipe pops + 10 completions (it was 10 timers + 10 completions
    # while every start armed a timer of its own).
    assert sim.stats.events_processed == 12
    assert bw.active_flows == 0 and bw._armed_at is None


def test_bandwidth_superseded_timer_is_inert_not_removed():
    sim = Simulator()
    bw = _CountingPipe(sim, capacity=100.0)
    ends = {}

    def watch(name, done):
        done.callbacks.append(lambda e: ends.setdefault(name, sim.now))

    watch("big", bw.transfer(200.0))      # alone: would end at t=2
    first = bw._entry
    assert first.callbacks is not None and bw._armed_at == pytest.approx(2.0)
    # An *earlier* deadline cannot wait for the armed entry: that one
    # goes inert (it cannot leave the heap) and a new one is pushed.
    watch("small", bw.transfer(50.0))     # shares at 50 B/s: due t=1
    second = bw._entry
    assert first.callbacks is None and second is not first
    assert bw._armed_at == pytest.approx(1.0) and not bw._due_seq
    # A *later* deadline keeps the armed entry and reserves its place.
    sim.timeout(0.5).callbacks.append(
        lambda e: watch("late", bw.transfer(100.0)))
    _run(sim, until=0.75)
    assert bw._entry is second and bw._armed_at == pytest.approx(1.0)
    assert bw._due_at == pytest.approx(1.25) and bw._due_seq
    _run(sim)
    # 350 B through 100 B/s; small's last 25 B went at a third share.
    assert ends == {"small": pytest.approx(1.25), "late": pytest.approx(2.75),
                    "big": pytest.approx(3.5)}
    assert bw.pops == [
        (pytest.approx(1.0), "early"), (pytest.approx(1.25), "live"),
        (pytest.approx(2.75), "live"), (pytest.approx(3.5), "live")]
    assert first.processed  # popped at t=2, dispatched nothing
    # 4 pipe pops + the inert entry + 3 completions + the t=0.5 timeout
    assert sim.stats.events_processed == 9


def test_bandwidth_set_capacity_rearms_one_timer():
    # Slower: the deadline moves out, the armed entry stays and moves
    # itself when it pops.
    sim = Simulator()
    bw = _CountingPipe(sim, capacity=100.0)
    done = bw.transfer(200.0)
    armed = bw._entry
    sim.timeout(1.0).callbacks.append(lambda e: bw.set_capacity(50.0))
    _run(sim, until=done)
    # 100 B in the first second, the other 100 B at 50 B/s.
    assert sim.now == pytest.approx(3.0)
    assert bw.pops == [(pytest.approx(2.0), "early"),
                       (pytest.approx(3.0), "live")]
    assert bw._entry is armed
    # Faster: the deadline moves in, so a new entry replaces the armed
    # one, which pops inert at its old time.
    sim = Simulator()
    bw = _CountingPipe(sim, capacity=100.0)
    done = bw.transfer(200.0)
    armed = bw._entry
    sim.timeout(1.0).callbacks.append(lambda e: bw.set_capacity(200.0))
    _run(sim, until=done)
    assert sim.now == pytest.approx(1.5)
    assert bw.pops == [(pytest.approx(1.5), "live")]
    assert armed.callbacks is None and not armed.processed
    _run(sim)
    assert armed.processed and bw.pops == [(pytest.approx(1.5), "live")]


def test_a_same_instant_start_touches_no_other_flow():
    # The pipe keeps its flow count and earliest finisher: a start at
    # the instant of the previous change applies no progress, so no
    # flow's ``remaining`` is even rewritten (``x - 0.0`` would be a
    # new float object of the same value).
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    bw.transfer(300.0)
    _run(sim, until=1.0)
    for nbytes in (50.0, 400.0, 150.0):
        bw.transfer(nbytes)  # the first one applies t=[0, 1)'s progress
    floats = [flow.remaining for flow in bw._flows]
    assert floats == [200.0, 50.0, 400.0, 150.0]
    assert (bw._count, bw._low) == (4, 50.0)
    bw.transfer(20.0)
    assert all(flow.remaining is before
               for flow, before in zip(bw._flows, floats))
    assert (bw._count, bw._low) == (5, 20.0)
    # a later instant subtracts the same progress from ``low`` as from
    # every flow: 5 flows at 20 B/s for 0.5 s
    _run(sim, until=1.5)
    bw.set_capacity(50.0)
    assert [flow.remaining for flow in bw._flows] == [190.0, 40.0, 390.0,
                                                      140.0, 10.0]
    assert (bw._count, bw._low) == (5, 10.0)
    _run(sim)
    assert (bw._count, bw._low) == (0, float("inf"))
    assert bw.bytes_done == pytest.approx(920.0)


# ------------------------------------------- conformance with the oracle
# One schedule entry: (kind, issue time, ...).  Sizes include zero and
# sub-epsilon flows (finished on arrival), overheads include none.
_AT = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 1.7, 3.0])
_SIZE = st.sampled_from([0.0, 1e-7, 1.0, 10.0, 50.0, 200.0, 333.0, 1e9 / 3])
_OVERHEAD = st.sampled_from([0.0, 0.0, 0.125, 0.3])
_PIPE = st.sampled_from([0, 1])
_CAPACITY = st.sampled_from([25.0, 50.0, 100.0, 400.0])
_OP = st.one_of(
    st.tuples(st.just("start"), _AT, _PIPE, _SIZE, _OVERHEAD),
    # the receiver goes away before (overhead > 0) or after the start
    st.tuples(st.just("abandon"), _AT, _PIPE, _SIZE, _OVERHEAD),
    # one message through both pipes at once, like cluster.network._Wire
    st.tuples(st.just("wire"), _AT, _SIZE),
    st.tuples(st.just("capacity"), _AT, _PIPE, _CAPACITY),
    # a start issued from the first flow's completion callback: at the
    # instant of the drain that completed it
    st.tuples(st.just("chain"), _AT, _PIPE, _SIZE, _OVERHEAD, _PIPE, _SIZE),
    # up to twelve starts at one instant (a node's ranks entering its
    # NIC together), with the capacity changed before the ``k``-th
    st.tuples(st.just("burst"), _AT, _PIPE,
              st.lists(st.tuples(_SIZE, _OVERHEAD), min_size=1, max_size=12),
              st.integers(0, 12), _CAPACITY),
)


def _delay_to(now, instant):
    """A delay with ``now + delay == instant`` in floats, or None."""
    if instant < now:
        return None
    delay = instant - now
    for candidate in (delay, math.nextafter(delay, math.inf),
                      math.nextafter(delay, 0.0)):
        if now + candidate == instant:
            return candidate
    return None


def _steps(ops, instants):
    """A schedule's size: its issue timers, the foreign timers each
    issue may plant, and its flows.  A run takes at most about two
    events per step (2.14 over 3,000 draws), so twenty per step is
    about ten times what it needs."""
    flows = {"start": 1, "abandon": 1, "wire": 2, "chain": 2, "capacity": 0}
    return sum(1 + len(instants) + (len(op[3]) if op[0] == "burst"
                                    else flows[op[0]]) for op in ops)


def _armed_entries(sim, pipe):
    """Deadline entries of ``pipe`` outstanding in the kernel that can
    still call back (an inert one has lost the pipe's callback; an
    overhead timer carries it too, but is no deadline).  Reads the raw
    slot: the ``callbacks`` property would turn it into a list."""
    queued = [entry for bucket in sim._at.values() for entry in bucket
              if entry is not None] + list(sim._nowq)
    if sim._batch is not None and sim._batch is not sim._at.get(sim.now):
        # inside run(), the rest of a queue batch being walked is queued too
        queued += [entry for entry in sim._batch if entry is not None]
    return sum(entry._callbacks is pipe._fire
               and entry.__class__ is not _DelayedStart for entry in queued)


def _drive(pipe_cls, ops, instants=(), one_entry=False):
    """Run one schedule; returns (callback log, flow -> completion
    time, bytes_done per pipe).  Every schedule entry also plants
    foreign timeouts at each of ``instants`` it can reach exactly;
    they log what the pipes look like when they fire, so a pipe
    callback that ran on the other side of one shows."""
    sim = Simulator()
    pipes = [pipe_cls(sim, 100.0), pipe_cls(sim, 150.0)]
    log, ended = [], {}

    def note(*label):
        log.append((repr(sim.now), label))
        if one_entry:
            assert all(_armed_entries(sim, pipe) <= 1 for pipe in pipes)

    def watch(ident, event):
        def fired(_evt):
            ended[ident] = sim.now
            note("done", ident)

        event.callbacks.append(fired)

    def foreign(k):
        return lambda _evt: note(
            "foreign", k, [(p.bytes_done, p.active_flows) for p in pipes])

    def issue(index, kind, *args):
        def fired(_evt):
            if kind == "start":
                pipe, nbytes, overhead = args
                watch(index, pipes[pipe].transfer(nbytes, overhead))
            elif kind == "abandon":
                pipe, nbytes, overhead = args
                pipes[pipe].transfer(nbytes, overhead).cancel()
            elif kind == "chain":
                pipe, nbytes, overhead, then_pipe, then_nbytes = args
                first = pipes[pipe].transfer(nbytes, overhead)
                watch(index, first)
                first.callbacks.append(lambda _evt: watch(
                    (index, "then"), pipes[then_pipe].transfer(then_nbytes)))
            elif kind == "burst":
                pipe, starts, capacity_at, capacity = args
                for k, (nbytes, overhead) in enumerate(starts):
                    if k == capacity_at:
                        pipes[pipe].set_capacity(capacity)
                    watch((index, k), pipes[pipe].transfer(nbytes, overhead))
                if capacity_at >= len(starts):
                    pipes[pipe].set_capacity(capacity)
            elif kind == "wire":
                parts = [pipe.transfer(args[0]) for pipe in pipes]
                both = sim.event()
                watch(index, both)

                def part_done(_part):
                    parts.pop()
                    if not parts:
                        both.succeed()

                for part in list(parts):
                    part.callbacks.append(part_done)
            else:
                pipes[args[0]].set_capacity(args[1])
            note("issued", index)
            for k, instant in enumerate(instants):
                delay = _delay_to(sim.now, instant)
                if delay is not None:
                    sim.timeout(delay).callbacks.append(foreign(k))

        return fired

    for index, (kind, at, *args) in enumerate(ops):
        sim.timeout(at).callbacks.append(issue(index, kind, *args))
    _run(sim, max_events=20 * _steps(ops, instants))
    return log, ended, [pipe.bytes_done for pipe in pipes]


def _oracle(ops):
    """Where the flows end, recorded from an oracle run, and the oracle
    run again with foreign timers aimed at exactly those instants, to
    force ties with the pipes' own entries.  The timers only look, so
    the instants stay what they were."""
    _log, ended, _bytes = _drive(ReferenceBandwidthResource, ops)
    instants = sorted(set(ended.values()))
    want = _drive(ReferenceBandwidthResource, ops, instants)
    assert want[1] == ended
    return instants, want


# 150 in tier-1; ten times that under the ``deep`` profile (conftest)
@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=10))
def test_one_entry_pipe_fires_every_callback_where_the_oracle_does(ops):
    instants, want = _oracle(ops)
    got = _drive(BandwidthResource, ops, instants, one_entry=True)
    assert got[0] == want[0]  # every (repr(now), label), in global order
    assert got[1] == want[1]  # every completion time, to the bit
    assert got[2] == want[2]


def test_conformance_schedule_reaches_every_pipe_branch():
    # The hypothesis suite is only worth its name if its vocabulary can
    # produce an early pop, an inert entry and an immediate-queue
    # deadline; this fixed draw from it does, and ties a foreign timer
    # with each completion.
    ops = [("start", 0.0, 0, 200.0, 0.0), ("start", 0.0, 0, 50.0, 0.0),
           ("start", 0.5, 0, 1e9 / 3, 0.125), ("capacity", 1.0, 0, 400.0),
           ("wire", 0.25, 333.0), ("abandon", 0.1, 1, 10.0, 0.3),
           ("start", 1.7, 1, 1e-7, 0.0), ("capacity", 1.7, 1, 25.0)]
    instants, want = _oracle(ops)
    pops = []  # of both pipes
    got = _drive(functools.partial(_CountingPipe, pops=pops), ops, instants,
                 one_entry=True)
    assert got == want
    assert {kind for _now, kind in pops} == {"early", "live"}
    ties = [label for _now, label in got[0] if label[0] == "foreign"]
    assert len({label[1] for label in ties}) == len(instants)


# ---------------------------------------------------------------------- AllOf
def test_allof_collects_values_in_order():
    sim = Simulator()
    e1, e2 = sim.timeout(2.0, "two"), sim.timeout(1.0, "one")
    both = AllOf(sim, [e1, e2])
    _run(sim, until=both)
    assert both.value == ["two", "one"]
    assert sim.now == pytest.approx(2.0)


def test_allof_empty_succeeds_immediately():
    sim = Simulator()
    all_evt = AllOf(sim, [])
    _run(sim)
    assert all_evt.value == []


def test_allof_fails_fast():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(10.0)
    trig = sim.timeout(1.0)
    trig.callbacks.append(lambda e: bad.fail(ValueError("nope")))
    both = AllOf(sim, [slow, bad])
    with pytest.raises(ValueError):
        _run(sim, until=both)
    assert sim.now == pytest.approx(1.0)
