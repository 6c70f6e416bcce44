"""A message's records are its events.

The messaging path keeps one record per message at each layer -- a
posted receive, a send's completion, the wire's arrival and its one
timer (head, then tail), a transfer's completion and its overhead
timer -- and a process one wake per bootstrap or relay.  A message's
envelope is filled at ``send_async`` the same way, without its
``__init__``.
Each is an ``Event`` subclass built with no Python frame
(``__init__ = object.__init__``); the one site that builds it fills
Event's slots itself (``simt.kernel``).  Two things can go wrong with
that, and this file checks both:

* a fill drifts from ``Event.__init__`` -- so each record is built at
  its real site and its Event slots are compared with a fresh
  ``Event(sim)``'s, before anything triggers it;
* a stall names a private class instead of the message -- so a
  two-rank mutual receive and a send parked at a cut must read as
  what they are.

``test_event_oracle.py`` runs the random process program on the records
as the shared events.
"""

import gc

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.network import _Wire, _WireTimer
from repro.cluster.spec import SIERRA
from repro.mpi.runtime import MpiJob
from repro.net.matching import MatchingEngine, _PostedRecv
from repro.net.message import Envelope, _Filled
from repro.net.transport import _Arrival, Transport
from repro.simt import Event, Simulator
from repro.simt.kernel import _EVENT_CLASSES, SimulationError, Timeout
from repro.simt.process import _Wake, wait_chain
from repro.simt.resources import BandwidthResource, _DelayedStart, _Transfer
from repro.simt.rng import RngRegistry

#: what ``Event.__init__`` writes: every slot but ``_seq``, which a push
#: writes
SLOTS = tuple(name for name in Event.__slots__ if name != "_seq")


def _slots(evt):
    return {name: getattr(evt, name) for name in SLOTS}


def _fresh(sim, **written):
    """A fresh ``Event(sim)``'s slots, with what the old site wrote
    after building it."""
    return dict(_slots(Event(sim)), **written)


def _machine(nodes=2):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(nodes), RngRegistry(0))


def test_event_init_writes_exactly_the_slots_a_fill_copies():
    evt = Event(Simulator())
    assert len(SLOTS) == 6
    assert [name for name in Event.__slots__ if hasattr(evt, name)] == list(SLOTS)


def test_a_post_fills_the_receive_as_event_init_would():
    sim = Simulator()
    engine = MatchingEngine(sim)
    rec = engine.post(3, 7, 0)
    assert rec.__class__ is _PostedRecv
    assert _slots(rec) == _fresh(sim)
    assert rec.comm == 0  # what a stalled run's report names
    # matched from the unexpected queue: triggered at birth
    env = Envelope(4, 0, 7, 0, 0, 8.0)
    engine.deliver(env)
    matched = engine.post(4, 7, 0)
    assert _slots(matched) == _fresh(sim, _value=env, _ok=True)


def test_a_send_fills_its_completion_as_event_init_would():
    sim, machine = _machine()
    tp = Transport(machine)
    src = tp.create_context(machine.node(0))
    dst = tp.create_context(machine.node(1))
    done = tp.send(src, dst.addr, Envelope(0, 1, 7, 0, 0, 8.0))
    assert done.__class__ is _Arrival and not done.twin
    assert _slots(done) == _fresh(sim)
    sim.run(until=done)
    assert done.ok and dst.matching.delivered == 1


@pytest.mark.parametrize("dst, cls", [(1, _Wire), (0, _Transfer)],
                         ids=["inter-node", "intra-node"])
def test_a_fabric_send_fills_its_arrival_as_event_init_would(dst, cls):
    sim, machine = _machine()
    arrived = machine.fabric.send(machine.node(0), machine.node(dst), 1e3)
    assert arrived.__class__ is cls
    assert _slots(arrived) == _fresh(sim)
    sim.run(until=arrived)
    assert arrived.ok and arrived.value is None


def test_an_overhead_transfer_fills_its_event_as_event_init_would():
    sim = Simulator()
    pipe = BandwidthResource(sim, 1e6, name="bus")
    done = pipe.transfer(1e3, overhead=1e-3)
    assert done.__class__ is _Transfer
    assert _slots(done) == _fresh(sim)
    # the overhead timer: where a Timeout would be, filled as one, with
    # the pipe's one method as its callback
    timer, = sim._at[sim.peek()]
    assert timer.__class__ is _DelayedStart and timer.done is done
    twin = Timeout(Simulator(), 1e-3)
    assert sim.peek() == twin.sim.peek() and timer._seq == twin._seq
    assert _slots(timer) == dict(_slots(twin), sim=sim, _callbacks=pipe._fire)
    plain = pipe.transfer(1e3)  # no overhead: the same record, no timer
    assert plain.__class__ is _Transfer
    assert _slots(plain) == _fresh(sim)
    assert sim._seq == 2  # the timer, and the plain flow's deadline
    sim.run()
    # the plain flow drains alone by 1 ms, where the delayed one starts
    assert done.ok and sim.now == pytest.approx(2e-3)


def test_a_wire_arms_its_head_and_tail_as_a_timeout_would():
    sim, machine = _machine()
    src, dst = machine.node(0), machine.node(1)
    dst.set_limp(1.0, 3.0)  # the tail reads the receiver's limp factor
    wire = machine.fabric.send(src, dst, 1e3)
    head = wire.timer
    assert head.__class__ is _WireTimer
    # where a Timeout of the sender's overhead would be, filled as one,
    # with the wire's start as its callback
    spec = machine.spec.network
    twin = Timeout(sim, spec.sw_overhead_fmi)
    assert sim._at[sim.peek()] == [head, twin] and twin._seq == head._seq + 1
    assert _slots(head) == dict(_slots(twin), _callbacks=wire.start)
    sim.step()  # the head: its pop clears the callback, so the
    assert head._callbacks is None  # wire <-> timer cycle is broken
    sim.step()  # its twin
    while wire.parts_left:
        sim.step()
    # re-armed at the second drain, where a Timeout would be: the same
    # record, filled as one again, now with the wire's land
    assert wire.timer is head and sim._seq == head._seq
    twin = Timeout(sim, spec.wire_latency * 3.0 + spec.sw_overhead_fmi * 3.0)
    bucket = sim._at[sim.now + twin.delay]
    assert bucket[-2:] == [head, twin] and twin._seq == head._seq + 1
    assert _slots(head) == dict(_slots(twin), _callbacks=wire.land)
    sim.run(until=wire)  # the tail's pop breaks the cycle again
    assert wire.ok and head.processed and head._callbacks is None


@pytest.mark.parametrize("data", [7, np.arange(3.0)],
                         ids=["immutable", "copied"])
def test_send_async_fills_its_envelope_as_envelope_init_would(data):
    envs = []

    def app(api):
        world = api.world
        if api.rank == 0:
            sent = world.send_async(1, data, 8, 3)
            envs.append((sent.env, Envelope(0, 1, 3, world.id,
                                            api.ctx.epoch, 8.0, data)))
            yield sent
        else:
            yield world.post_recv(0, 3)

    sim, machine = _machine()
    sim.run(until=MpiJob(machine, app, 2, procs_per_node=1,
                         charge_init=False).launch())
    (env, want), = envs
    assert env.__class__ is _Filled and isinstance(env, Envelope)
    assert env.lseq is None and type(env.nbytes) is float
    slots = [name for name in Envelope.__slots__ if name != "data"]
    assert ({name: getattr(env, name) for name in slots}
            == {name: getattr(want, name) for name in slots})
    # an immutable payload travels as is, an array as a copy
    if data.__class__ is int:
        assert env.data is data
    else:
        assert env.data is not data and np.array_equal(env.data, data)


def test_a_spawn_and_a_relay_fill_their_wakes_as_event_init_would():
    sim = Simulator()
    fired = sim.event()
    fired.succeed("v")
    sim.run()

    def body():
        return (yield fired)  # already processed: the relay

    proc = sim.spawn(body(), name="p")
    boot = sim._nowq[-1]
    assert boot.__class__ is _Wake
    # the old bootstrap: a plain event, triggered and hooked by hand
    assert _slots(boot) == _fresh(sim, _callbacks=proc._resume_cb,
                                  _value=None, _ok=True)
    sim.step()
    relay = sim._nowq[-1]
    assert relay.__class__ is _Wake and proc._target is relay
    assert _slots(relay) == _fresh(sim, _callbacks=proc._resume_cb,
                                   _value="v", _ok=True)
    sim.run()
    assert proc.value == "v"


def test_no_record_refers_to_itself_at_any_step():
    # a self-reference is a cycle: the record would outlive its message
    # until the cyclic collector runs
    sim, machine = _machine()
    tp = Transport(machine)
    src = tp.create_context(machine.node(0))
    dst = tp.create_context(machine.node(1))
    records = [
        dst.matching.post(0, 7, 0),
        tp.send(src, dst.addr, Envelope(0, 1, 7, 0, 0, 8.0)),
        machine.fabric.send(machine.node(0), machine.node(1), 1e3),
        machine.fabric.send(machine.node(0), machine.node(0), 1e3),
    ]
    records.append(records[2].timer)  # the wire's head, then its tail
    records += [entry for bucket in sim._at.values() for entry in bucket
                if entry.__class__ is _DelayedStart]  # its overhead timer

    def waiter():
        yield records[0]

    sim.spawn(waiter(), name="p")
    records.append(sim._nowq[-1])  # its bootstrap wake
    assert [type(rec) for rec in records] == [
        _PostedRecv, _Arrival, _Wire, _Transfer, _WireTimer, _DelayedStart,
        _Wake]
    steps = 0
    while True:
        for rec in records:
            assert all(ref is not rec for ref in gc.get_referents(rec)), rec
        if sim.peek() == float("inf"):
            break
        sim.step()
        steps += 1
    assert steps > 10 and all(rec.processed for rec in records)


def test_every_record_is_an_event_class_a_process_may_yield():
    for cls in (_PostedRecv, _Arrival, _Wire, _WireTimer, _Transfer,
                _DelayedStart, _Wake):
        assert cls in _EVENT_CLASSES and cls.__init__ is object.__init__
    assert Event in _EVENT_CLASSES


# ------------------------------------------------------------ stall names
def _mutual(app, partition=False):
    """Run a two-rank MPI job to its stall; returns the stall text and
    the two rank processes."""
    sim, machine = _machine()
    job = MpiJob(machine, app, 2, procs_per_node=1, charge_init=False)
    if partition:
        machine.fabric.partition([[1]])
    job.launch()
    proc0, proc1 = (job.rank_procs[r].proc for r in range(2))
    with pytest.raises(SimulationError) as info:
        sim.run(until=proc0)
    return str(info.value), proc0, proc1


def test_a_mutual_recv_names_both_receives():
    def app(api):
        got = yield from api.recv(1 - api.rank, tag=7)  # both wait first
        yield api.send(1 - api.rank, got, tag=7)

    text, proc0, proc1 = _mutual(app)
    assert text.startswith(
        "simulation ran out of events before the awaited event fired")
    assert text.endswith(
        f"waiting: process {proc0.name!r} → posted receive "
        "(source 1, tag 7, comm 0) (untriggered, 1 callback)")
    assert wait_chain(proc1) == (
        f"process {proc1.name!r} → posted receive "
        "(source 0, tag 7, comm 0) (untriggered, 1 callback)")


def test_a_sendrecv_whose_partner_never_sends_names_both_its_events():
    def app(api):
        if api.rank == 0:
            yield from api.sendrecv(1, "x", source=1, tag=7)
        else:
            yield from api.recv(0, tag=7)  # takes the message, sends none

    text, proc0, _proc1 = _mutual(app)
    assert text.endswith(
        f"waiting: process {proc0.name!r} → posted receive "
        "(source 1, tag 7, comm 0) (untriggered, 1 callback), "
        "then send 0→1 tag 7")


def test_a_send_parked_at_a_cut_names_the_message():
    def app(api):
        if api.rank == 0:
            yield api.send(1, "x", tag=7)  # parked until a heal
        else:
            yield from api.recv(0, tag=7)

    text, proc0, _proc1 = _mutual(app, partition=True)
    assert text.endswith(
        f"waiting: process {proc0.name!r} → send 0→1 tag 7 "
        "(untriggered, 1 callback)")


def _stalled_launch(job):
    """The stall text of a run drained before ``job`` finished."""
    with pytest.raises(SimulationError) as info:
        job.sim.run(until=job.launch())
    return str(info.value)


def test_a_drained_launch_names_each_unfinished_rank_and_where_it_waits():
    def app(api):
        yield from api.recv((api.rank + 1) % api.size, tag=7)  # a ring, all wait

    sim, machine = _machine(nodes=10)
    text = _stalled_launch(
        MpiJob(machine, app, 2, procs_per_node=1, charge_init=False))
    assert text.endswith(
        "waiting: job 'mpi' done, awaiting 2 of 2 ranks ["
        "rank 0: process 'mpi:rank0' → posted receive (source 1, tag 7, "
        "comm 0) (untriggered, 1 callback); "
        "rank 1: process 'mpi:rank1' → posted receive (source 0, tag 7, "
        "comm 0) (untriggered, 1 callback)] (untriggered, 2 callbacks)")

    # at most eight ranks are named
    sim, machine = _machine(nodes=10)
    text = _stalled_launch(
        MpiJob(machine, app, 10, procs_per_node=1, charge_init=False))
    assert "awaiting 10 of 10 ranks [rank 0: " in text
    assert "rank 7: process 'mpi:rank7'" in text and "rank 8" not in text
    assert text.endswith("(untriggered, 1 callback); ...] "
                         "(untriggered, 2 callbacks)")


def test_a_drained_fmi_launch_names_the_hand_off_a_rank_is_in():
    from repro.fmi import FmiConfig, FmiJob

    def app(api):
        if api.rank == 0:
            yield from api.loop([])  # the checkpoint decision: rank 1 never comes
        else:
            yield from api.recv(0, tag=7)

    sim, machine = _machine(nodes=8)
    text = _stalled_launch(
        FmiJob(machine, app, num_ranks=2, config=FmiConfig(xor_group_size=2)))
    qual = app.__qualname__
    assert (f"rank 0: process 'fmi:rank0.0' [FmiProcess._main → {qual} → "
            "allreduce_hops] → posted receive (source 1, ") in text
    assert (f"rank 1: process 'fmi:rank1.0' [FmiProcess._main → {qual}] → "
            "posted receive (source 0, tag 7, comm 0) (untriggered, "
            "1 callback)]") in text


def test_a_transfer_in_flight_names_its_wire_or_its_pipe():
    sim, machine = _machine()

    def mover(dst):
        yield machine.fabric.send(machine.node(0), machine.node(dst), 1e3)

    wire = sim.spawn(mover(1), name="w")
    local = sim.spawn(mover(0), name="m")
    sim.step()
    sim.step()  # both bootstraps: each waits on its transfer
    assert wait_chain(wire) == (
        "process 'w' → wire node 0→1 (untriggered, 1 callback)")
    assert wait_chain(local) == (
        "process 'm' → transfer of 1000.0 B on mem[0] (untriggered, "
        "1 callback)")


def test_yielding_a_withdrawn_wire_fails_the_process_by_name():
    # the wire keeps ``()`` in its slot when withdrawn, so that its bytes
    # run dry; a process must still refuse to wait on it
    sim, machine = _machine()
    wire = machine.fabric.send(machine.node(0), machine.node(1), 1e3)
    assert wire.cancel() and wire._callbacks == ()

    def body():
        yield wire

    proc = sim.spawn(body(), name="p")
    sim.run()
    assert not proc.ok
    assert "yielded a cancelled _Wire, which never fires" in str(proc.value)
    assert machine.node(1).nic_rx.bytes_done == 1e3  # ran dry all the same
