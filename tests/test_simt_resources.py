"""Unit tests for the fair-share BandwidthResource and AllOf/AnyOf."""

import pytest

from repro.simt import BandwidthResource, Simulator
from repro.simt.primitives import AllOf, AnyOf


# ------------------------------------------------------ BandwidthResource
def test_bandwidth_single_flow_time():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)  # 100 B/s
    done = bw.transfer(200.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.0)


def test_bandwidth_two_equal_flows_share_fairly():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    d1 = bw.transfer(100.0)
    d2 = bw.transfer(100.0)
    ends = []
    d1.callbacks.append(lambda e: ends.append(("d1", sim.now)))
    d2.callbacks.append(lambda e: ends.append(("d2", sim.now)))
    sim.run()
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
    sim.run()
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
    sim.run()
    assert ends["small"] == pytest.approx(1.0)
    assert ends["big"] == pytest.approx(2.5)


def test_bandwidth_overhead_added_before_bytes():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    done = bw.transfer(100.0, overhead=0.5)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.5)


def test_bandwidth_zero_bytes_is_instant_after_overhead():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=10.0)
    done = bw.transfer(0.0, overhead=0.25)
    sim.run(until=done)
    assert sim.now == pytest.approx(0.25)


def test_bandwidth_rejects_negative():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=10.0)
    with pytest.raises(ValueError):
        bw.transfer(-1.0)
    with pytest.raises(ValueError):
        BandwidthResource(sim, capacity=0.0)


def test_bandwidth_bytes_done_accounting():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    bw.transfer(30.0)
    bw.transfer(70.0)
    sim.run()
    assert bw.bytes_done == pytest.approx(100.0)


def test_bandwidth_many_flows_aggregate_time():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    events = [bw.transfer(10.0) for _ in range(10)]
    sim.run()
    # 100 bytes total through a 100 B/s pipe: all end at t=1.
    assert sim.now == pytest.approx(1.0)
    assert all(e.processed for e in events)


def _count_timer_entries(bw):
    """Wrap ``bw._on_timer`` (before any flow starts) with a counter."""
    entries = []
    inner = bw._on_timer

    def counted(evt):
        entries.append(bw.sim.now)
        inner(evt)

    bw._on_timer = counted
    return entries


def test_bandwidth_flows_started_together_enter_the_timer_once():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    entries = _count_timer_entries(bw)
    events = [bw.transfer(10.0) for _ in range(10)]
    sim.run()
    # Ten starts armed ten timers, but nine were superseded at once.
    assert entries == [pytest.approx(1.0)]
    assert all(e.processed for e in events)
    assert bw.bytes_done == pytest.approx(100.0)
    # The superseded timers still pop: 10 timers + 10 completions.
    assert sim.stats.events_processed == 20
    assert bw.active_flows == 0 and bw._timer is None


def test_bandwidth_superseded_timer_is_inert_not_removed():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    entries = _count_timer_entries(bw)
    ends = {}
    big = bw.transfer(200.0)       # alone: would end at t=2
    first_timer = bw._timer
    small = bw.transfer(50.0)      # supersedes it; shares at 50 B/s
    big.callbacks.append(lambda e: ends.setdefault("big", sim.now))
    small.callbacks.append(lambda e: ends.setdefault("small", sim.now))
    assert first_timer.callbacks is None and bw._timer is not first_timer
    sim.run()
    # Same completion times as test_bandwidth_short_flow_releases_capacity.
    assert ends == {"small": pytest.approx(1.0), "big": pytest.approx(2.5)}
    assert entries == [pytest.approx(1.0), pytest.approx(2.5)]
    assert first_timer.processed  # popped at t=2, dispatched nothing
    # 3 timers (one inert) + 2 completions
    assert sim.stats.events_processed == 5


def test_bandwidth_set_capacity_rearms_one_timer():
    sim = Simulator()
    bw = BandwidthResource(sim, capacity=100.0)
    entries = _count_timer_entries(bw)
    done = bw.transfer(200.0)
    sim.timeout(1.0).callbacks.append(lambda e: bw.set_capacity(50.0))
    sim.run(until=done)
    # 100 B in the first second, the other 100 B at 50 B/s.
    assert sim.now == pytest.approx(3.0)
    assert entries == [pytest.approx(3.0)]


# ---------------------------------------------------------------- AllOf/AnyOf
def test_allof_collects_values_in_order():
    sim = Simulator()
    e1, e2 = sim.timeout(2.0, "two"), sim.timeout(1.0, "one")
    both = AllOf(sim, [e1, e2])
    sim.run(until=both)
    assert both.value == ["two", "one"]
    assert sim.now == pytest.approx(2.0)


def test_allof_empty_succeeds_immediately():
    sim = Simulator()
    all_evt = AllOf(sim, [])
    sim.run()
    assert all_evt.value == []


def test_allof_fails_fast():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(10.0)
    trig = sim.timeout(1.0)
    trig.callbacks.append(lambda e: bad.fail(ValueError("nope")))
    both = AllOf(sim, [slow, bad])
    with pytest.raises(ValueError):
        sim.run(until=both)
    assert sim.now == pytest.approx(1.0)


def test_anyof_first_wins():
    sim = Simulator()
    e1, e2 = sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")
    race = AnyOf(sim, [e1, e2])
    sim.run(until=race)
    assert race.value == (1, "fast")
    assert sim.now == pytest.approx(1.0)


def test_anyof_requires_events():
    with pytest.raises(ValueError):
        AnyOf(Simulator(), [])


def test_anyof_with_processed_event():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("pre")
    sim.run()
    race = AnyOf(sim, [evt, sim.timeout(9.0)])
    sim.run(until=race)
    assert race.value == (0, "pre")
