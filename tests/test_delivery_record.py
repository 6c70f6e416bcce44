"""One record and one delivery body per message, watched or not.

``Transport.send`` leaves one slotted record on the wire event whether
the run is clean, traced, metered, lossy or partitioned, and that
record is its own timer callback and its own parked entry.  Three
sections:

* units for the record -- wire failure, the duplicate's twin, parking
  at a cut, the registry swapped mid-run, a tracer attached or
  detached while a message is in flight;
* units for the instruments a per-message site touches;
* "observe, never perturb", generalised from the one crash scenario of
  ``test_obs_replay.py``: any drawn mix of omission faults, a partition
  in either mode and a kill must run the same schedule traced and
  metered as bare.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import bsp_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.errors import FmiAbort
from repro.net.faults import FaultPlan, LinkFaultModel
from repro.net.message import Envelope
from repro.net.transport import Transport
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


class _Scripted(LinkFaultModel):
    """Hands out the given plans in order, then clean ones."""

    def __init__(self, *plans):
        super().__init__(np.random.default_rng(0))
        self._plans = list(plans)

    def plan(self, src_node, dst_node):
        return self._plans.pop(0) if self._plans else FaultPlan(0, 0.0, False)


DUP_NOW = (0, 0.0, True)  # extra == 0 and a duplicate
LOST_TWICE_AND_DUP = (2, 0.003, True)


def setup(observed=False, plans=()):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(3), RngRegistry(0))
    tracer = Tracer(sim) if observed else None
    metrics = MetricsRegistry(sim) if observed else None
    tp = Transport(machine)
    if plans:
        tp.set_faults(_Scripted(*(FaultPlan(*p) for p in plans)))
    a = tp.create_context(machine.node(0))
    b = tp.create_context(machine.node(1))
    return sim, machine, tp, a, b, tracer, metrics


def env(tag=0):
    return Envelope(0, 1, tag, 0, 0, 8.0, tag)


def net_names(tracer):
    return [ev.name for ev in tracer.events if ev.cat == "net"]


# ------------------------------------------------------------- the record
@pytest.mark.parametrize("plans", [(), (LOST_TWICE_AND_DUP,)],
                         ids=["clean", "lossy"])
@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_wire_failure_fails_done_once_and_delivers_nothing(observed, plans):
    sim, machine, tp, a, b, tracer, metrics = setup(observed, plans)
    machine.node(0).crash("sender down")
    done = tp.send(a, b.addr, env())
    failures = []
    done.callbacks.append(lambda e: failures.append(e.value))
    sim.run()
    assert len(failures) == 1 and isinstance(failures[0], ConnectionError)
    assert b.matching.delivered == 0
    assert tp.dropped_dead == tp.dup_dropped == 0
    assert sim.now == 0.0  # the plan's timers were never armed
    if observed:
        # a message that never resolved leaves no record, and is not
        # counted as sent
        assert net_names(tracer) == ["net.omission"] * len(plans)
        assert metrics.sum_counters("net.msgs_sent") == 0
        assert metrics.sum_counters("net.recv") == 0


def test_a_duplicate_twin_never_touches_done():
    """Drop-mode cut, healed between the twin's retry and the
    original's: the *twin* is what gets delivered, and the sender's
    completion still waits for the original."""
    sim, machine, tp, a, b, _tracer, _metrics = setup(plans=[DUP_NOW])
    tp.partition_mode = "drop"
    machine.fabric.partition([[1]])
    done = tp.send(a, b.addr, env())
    # original: cut at ~0, retried at ~0.05 (still cut), then ~0.10;
    # twin: cut at ~0.002, retried at ~0.052 (healed)
    sim.timeout(0.051).callbacks.append(lambda _e: machine.fabric.heal())
    sim.run(until=sim.timeout(0.06))
    assert b.matching.delivered == 1
    assert not done.triggered
    sim.run()
    assert done.ok
    assert b.matching.delivered == 1 and tp.dup_dropped == 1
    assert tp.partition_retries == 3


def test_a_twin_delivered_first_leaves_the_count_to_its_original():
    """The cut of ``test_a_duplicate_twin_never_touches_done``, watched:
    the twin's delivery is recorded first and marked, so of the pair
    only the original's record -- a drop -- counts as sent."""
    sim, machine, tp, a, b, tracer, metrics = setup(True, [DUP_NOW])
    tp.partition_mode = "drop"
    machine.fabric.partition([[1]])
    tp.send(a, b.addr, env())
    sim.timeout(0.051).callbacks.append(lambda _e: machine.fabric.heal())
    sim.run()
    assert [(ev.name, ev.args.get("dup")) for ev in tracer.events
            if ev.cat == "net"] == [
        ("net.omission", True), ("net.recv", True), ("net.drop_dup", None)]
    assert metrics.snapshot() == {
        "counter:net.bytes_sent{node=0}": 8.0,
        "counter:net.drop_dup{node=1}": 1.0,
        "counter:net.msgs_sent{node=0}": 1.0,
        "counter:net.recv{node=1}": 1.0,
    }


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_parked_records_are_delivered_once_in_park_order(observed):
    sim, machine, tp, a, b, tracer, _metrics = setup(observed, [DUP_NOW])
    machine.fabric.partition([[1]])
    dones = [tp.send(a, b.addr, env(tag)) for tag in range(3)]
    sim.run()
    # the records themselves are parked -- each is its sender's event --
    # and message 0's twin, flagged, trails by dup_lag
    assert [rec.env.tag for rec in tp._stalled] == [0, 1, 2, 0]
    assert tp._stalled[:3] == dones
    assert [rec.twin for rec in tp._stalled] == [False] * 3 + [True]
    assert not any(d.triggered for d in dones)
    order = []
    for tag in range(3):
        b.matching.post(source=0, tag=tag, comm_id=0).callbacks.append(
            lambda e: order.append(e.value.tag))
    machine.fabric.heal()
    sim.run()
    assert order == [0, 1, 2]
    assert b.matching.delivered == 3 and tp.dup_dropped == 1
    assert tp.partition_flushed == 4 and tp._stalled == []
    assert all(d.ok for d in dones)
    if observed:
        assert net_names(tracer)[-4:] == ["net.recv"] * 3 + ["net.drop_dup"]


def test_swapping_the_registry_mid_run_moves_the_updates():
    sim, _machine, tp, a, b, _tracer, first = setup(observed=True)
    for tag in range(3):
        tp.send(a, b.addr, env(tag))
    sim.run()
    in_flight = tp.send(a, b.addr, env(3))
    second = MetricsRegistry(sim)
    sim.run(until=in_flight)
    tp.send(a, b.addr, env(4))
    sim.run()
    # both read one trace, each from the point it was built at: a
    # message is recorded, and counted as sent, when it arrives
    assert first.sum_counters("net.msgs_sent") == 5
    assert first.sum_counters("net.recv") == 5
    assert second.snapshot() == {
        "counter:net.bytes_sent{node=0}": 16.0,
        "counter:net.msgs_sent{node=0}": 2.0,
        "counter:net.recv{node=1}": 2.0,
    }


def test_a_message_in_flight_is_recorded_by_the_flag_at_arrival():
    """The declared edge of the one record: nothing about the observers
    is decided at send time, so a message is traced if and only if a
    tracer is attached when it arrives (a tracer attached mid-flight
    used to miss the arrival: the message was already on the untraced
    callback)."""
    sim, _machine, tp, a, b, _tracer, _metrics = setup()
    unseen_send = tp.send(a, b.addr, env(0))
    tracer = Tracer(sim)
    sim.run(until=unseen_send)
    assert net_names(tracer) == ["net.recv"]
    unseen_recv = tp.send(a, b.addr, env(1))
    sim.tracer = NULL_TRACER
    sim.run(until=unseen_recv)
    assert net_names(tracer) == ["net.recv"]
    assert b.matching.delivered == 2


# -------------------------------------------------------- the instruments
@pytest.mark.parametrize("amount", [float("nan"), -1.0, -0.0001])
def test_counter_rejects_nan_and_negative_amounts(amount):
    sim = Simulator()
    Tracer(sim)
    metrics = MetricsRegistry(sim)
    counter = metrics.counter("c")
    counter.inc(2.0)
    with pytest.raises(ValueError, match="only go up"):
        counter.inc(amount)
    assert counter.value == 2.0
    assert metrics.sum_counters("c") == 2.0
    assert not math.isnan(metrics.snapshot()["counter:c{}"])


def test_the_shared_null_tracer_cannot_accumulate_events():
    assert NULL_TRACER.events == ()
    assert not hasattr(NULL_TRACER.events, "append")


# ------------------------------------------------- observe, never perturb
TRANSPORT_COUNTERS = (
    "dropped_dead", "dropped_stale", "dup_dropped", "lseq_dup_dropped",
    "omission_drops", "omission_delays", "omission_dups",
    "partition_stalls", "partition_flushed", "partition_retries",
)

#: drop_p, dup_p, delay_p, rto: a plain lossy mix; duplicates that
#: arrive with no extra delay at all; and drop runs that hit the
#: MAX_CONSECUTIVE_DROPS valve (a short rto keeps those runs short)
link_models = st.one_of(
    st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.0, 0.3),
              st.just(0.05)),
    st.tuples(st.just(0.0), st.floats(0.2, 0.9), st.just(0.0), st.just(0.05)),
    st.tuples(st.just(0.99), st.floats(0.0, 0.3), st.floats(0.0, 0.3),
              st.just(1e-4)),
)


def _run(observed, model, mode, cut_at, heal_after, kill_at, victim):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(6), RngRegistry(5))
    if observed:
        Tracer(sim)
        MetricsRegistry(sim)
    job = FmiJob(
        machine, bsp_app(5, work_s=0.2), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1),
    )
    done = job.launch()
    tp = job.transport
    slots = job.fmirun.node_slots
    drop_p, dup_p, delay_p, rto = model
    # one directed link when every attempt is all but lost, or the
    # whole job crawls at 64 timeouts a message
    links = {(slots[0].id, slots[1].id)} if drop_p > 0.9 else None
    faults = LinkFaultModel(machine.rng.stream("links"), drop_p=drop_p,
                            dup_p=dup_p, delay_p=delay_p, rto=rto, links=links)

    def at(when, action):
        sim.timeout(when).callbacks.append(lambda _e: action())

    def split():
        tp.partition_mode = mode
        machine.fabric.partition([[slots[2].id]])

    at(0.1, lambda: tp.set_faults(faults))
    at(cut_at, split)
    at(cut_at + heal_after, machine.fabric.heal)
    at(kill_at, lambda: machine.fail_nodes([slots[victim].id]))
    try:
        results = sim.run(until=done, max_events=2_000_000)
    except FmiAbort as abort:  # cut + kill can exceed XOR repair: an outcome too
        results = str(abort)
    return sim, job, tp, results


@settings(max_examples=20, deadline=None)
@given(
    model=link_models,
    mode=st.sampled_from(["stall", "drop"]),
    cut_at=st.floats(0.2, 0.9),
    heal_after=st.floats(0.01, 0.4),
    kill_at=st.floats(0.3, 1.2),
    victim=st.integers(0, 3),
)
def test_observation_never_perturbs(model, mode, cut_at, heal_after, kill_at,
                                    victim):
    draw = (model, mode, cut_at, heal_after, kill_at, victim)
    sim_on, job_on, tp_on, res_on = _run(True, *draw)
    sim_off, job_off, tp_off, res_off = _run(False, *draw)
    assert len(sim_on.tracer.events) > 0 and sim_off.tracer is NULL_TRACER
    assert repr(sim_on.now) == repr(sim_off.now)
    assert sim_on._seq == sim_off._seq
    assert sim_on.stats.events_processed == sim_off.stats.events_processed
    assert sim_on.stats.peak_heap == sim_off.stats.peak_heap
    for name in TRANSPORT_COUNTERS:
        assert getattr(tp_on, name) == getattr(tp_off, name), name
    assert [c.matching.delivered for c in tp_on.contexts] == [
        c.matching.delivered for c in tp_off.contexts]
    assert job_on.epoch == job_off.epoch
    if isinstance(res_on, str) or isinstance(res_off, str):
        assert res_on == res_off
    else:
        for got, want in zip(res_on, res_off):
            np.testing.assert_array_equal(got, want)
