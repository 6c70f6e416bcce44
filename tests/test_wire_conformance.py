"""The join without events, against the event-per-stage wire.

``tests/wire_reference.py`` keeps ``_Wire`` and ``Fabric.send`` as they
were when each NIC flow completed an event of its own and a third event
joined them.  This drives that fabric and the production one with the
same traffic and holds the contract the rewrite was made under: **no
observable callback moves** -- every message arrives at the same float
in the same global order, a dead source fails the same way, the pipes
moved the same bytes, and every callback the kernel dispatched (issue
timers, pipe timers, wire starts and landings, the watchers on
``arrived``) ran at the same instant in the same order.

The traffic is drawn to tie on purpose: start times from a small grid
(equal heads), repeated sizes through shared NICs (equal drains, hence
equal tails), and sizes whose uncontended drain lands exactly on the
next head.  Limp changes are drawn *off* that grid.  That is the one
declared edge of the rewrite: the tail is armed in the frame of the
pipe timer that drained the second flow instead of at the end of that
instant, so a ``set_limp`` popping at the exact float instant of the
drain, after the pipe's timer, no longer stretches the tail (and a
foreign timer armed later in that instant for the bit-identical
deadline now pops after the landing, not before it).
``test_a_limp_landing_on_the_drain_instant_is_the_declared_edge``
builds that tie and pins the new answer.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Machine, network
from repro.cluster.network import Fabric
from repro.cluster.spec import SIERRA
from repro.net.matching import _PostedRecv
from repro.net.transport import _Arrival, _LossyArrival
from repro.simt.process import _Wake
from repro.simt.resources import _DelayedStart, _Transfer
from repro.simt.rng import RngRegistry
from tests.schedule_recorder import RecordingSimulator
from tests.wire_reference import ReferenceFabric

#: 1 at tier-1, 10 under ``--hypothesis-profile=deep`` (``conftest.py``)
_SCALE = max(1, settings.default.max_examples // 100)

NODES = 4
NET = SIERRA.network
US = 1e-6


def _tie_size(k):
    """A size whose uncontended drain, started one FMI overhead after
    0, ends exactly where a head armed at ``k`` microseconds pops."""
    head = 0.0 + NET.sw_overhead_fmi
    target = k * US + NET.sw_overhead_fmi
    size = (target - head) * NET.link_bw
    for _ in range(64):
        when = head + size / NET.link_bw
        if when == target:
            return size
        size = math.nextafter(size, math.inf if when < target else 0.0)
    raise AssertionError(f"no size drains at {target!r}")


_SEND_AT = st.sampled_from([0.0, 1 * US, 2 * US, 3 * US, 50 * US, 310 * US])
_SIZE = st.sampled_from([
    0.0, 1e-7, 1e-6, 2e-6, 1.0, _tie_size(1), _tie_size(2), 333e3, 1e6,
    1e9 / 3, 3.2e9,
])
_NODE = st.integers(0, NODES - 1)
#: off the send grid and off every head it produces (see the docstring)
_LIMP_AT = st.sampled_from([0.37 * US, 1.37 * US, 40.37 * US, 200.37 * US])
_FACTOR = st.sampled_from([1.0, 2.0, 8.0])
_SEND = st.tuples(st.just("send"), _SEND_AT, _NODE, _NODE, _SIZE,
                  st.booleans())
_OP = st.one_of(
    _SEND, _SEND,  # twice: two draws in five are traffic
    st.tuples(st.just("limp"), _LIMP_AT, _NODE, _FACTOR, _FACTOR),
    st.tuples(st.just("unlimp"), _LIMP_AT, _NODE),
    st.tuples(st.just("crash"), st.sampled_from([1.5 * US, 100 * US]), _NODE),
)


def _machine(fabric_cls, nodes=NODES):
    """A recording simulator and a machine whose fabric is
    ``fabric_cls`` (the oracle is installed by assignment: there is no
    switch under ``src/``)."""
    sim = RecordingSimulator(keep=True)
    machine = Machine(sim, SIERRA.with_nodes(nodes), RngRegistry(0))
    if fabric_cls is not Fabric:
        machine.fabric = fabric_cls(sim, machine.spec.network)
    assert type(machine.fabric) is fabric_cls
    return sim, machine


def _drive(fabric_cls, ops):
    """Run one schedule on one fabric; returns what must agree."""
    sim, machine = _machine(fabric_cls)
    fabric = machine.fabric
    arrivals = []

    def watch(index, event):
        def arrived(evt):
            outcome = None if evt.ok else repr(evt.value)
            arrivals.append((index, repr(sim.now), outcome))

        event.callbacks.append(arrived)

    def issue(index, kind, *args):
        def fired(_evt):
            if kind == "send":
                src, dst, nbytes, mpi = args
                overhead = NET.sw_overhead_mpi if mpi else None
                watch(index, fabric.send(machine.node(src), machine.node(dst),
                                         nbytes, overhead))
            elif not machine.node(args[0]).alive:
                pass  # nothing left to limp or crash
            elif kind == "limp":
                machine.node(args[0]).set_limp(args[1], args[2])
            elif kind == "unlimp":
                machine.node(args[0]).clear_limp()
            else:
                machine.node(args[0]).crash("conformance")

        return fired

    for index, (kind, at, *args) in enumerate(ops):
        sim.timeout(at).callbacks.append(issue(index, kind, *args))
    sim.run()
    pipes = [(pipe.name, pipe.bytes_done) for node in machine.nodes
             for pipe in (node.nic_tx, node.nic_rx, node.mem_bw)]
    return {
        "arrivals": arrivals,
        "pipes": pipes,
        "sent": (fabric.messages_sent, fabric.bytes_sent),
        "schedule": sim.entries,
    }


def _assert_conforms(ops):
    want = _drive(ReferenceFabric, ops)
    got = _drive(Fabric, ops)
    assert got["arrivals"] == want["arrivals"]  # float, order, failure
    assert got["pipes"] == want["pipes"]
    assert got["sent"] == want["sent"]
    assert got["schedule"] == want["schedule"]
    return got


@settings(max_examples=200 * _SCALE, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=16))
def test_every_message_arrives_where_the_event_per_stage_wire_delivers_it(ops):
    _assert_conforms(ops)


@settings(max_examples=50 * _SCALE, deadline=None)
@given(
    sizes=st.lists(_SIZE, min_size=1, max_size=12),
    at=_SEND_AT,
    limp=st.tuples(_LIMP_AT, _FACTOR, _FACTOR),
)
def test_incast_of_up_to_twelve_flows_through_one_nic(sizes, at, limp):
    # every sender's tx pipe holds up to four flows, node 0's rx all of
    # them; the receiver limps and recovers under way
    ops = [("send", at, 1 + i % (NODES - 1), 0, size, False)
           for i, size in enumerate(sizes)]
    ops.append(("limp", limp[0], 0, limp[1], limp[2]))
    ops.append(("unlimp", 200.37 * US, 0))
    _assert_conforms(ops)


def _instants(schedule, kind):
    """The instants (as recorded reprs) at which ``kind`` ran."""
    split = (entry.split("|", 2) for entry in schedule)
    return {now for now, entry_kind, _identity in split if entry_kind == kind}


def test_conformance_vocabulary_reaches_the_ties_and_the_edges():
    # The hypothesis suite is only worth its name if its vocabulary can
    # make heads, drains and tails coincide; this fixed draw from it
    # does, and crosses every branch of ``send`` on the way.
    ops = [
        ("send", 0.0, 0, 1, _tie_size(1), False),   # drains as the next starts
        ("send", 1 * US, 2, 1, 333e3, False),
        ("send", 1 * US, 3, 1, 333e3, False),       # equal drains, equal tails
        ("send", 1 * US, 0, 1, 0.0, False),         # joined inside ``start``
        ("send", 2 * US, 2, 2, 1e6, True),          # shared memory
        ("send", 3 * US, 1, 0, 3.2e9, False),       # multi-GB float residue
        ("limp", 40.37 * US, 1, 8.0, 2.0),          # mid-flight, both factors
        ("crash", 100 * US, 1),                     # dst dies mid-flight
        ("send", 310 * US, 1, 0, 1.0, False),       # dead source
        ("send", 310 * US, 0, 1, 2e-6, False),      # dead destination
    ]
    got = _assert_conforms(ops)
    arrivals = {index: (now, outcome) for index, now, outcome in got["arrivals"]}
    assert len(arrivals) == 8
    assert "ConnectionError" in arrivals[8][1]
    assert all(outcome is None for i, (_n, outcome) in arrivals.items()
               if i != 8)
    assert arrivals[1][0] == arrivals[2][0]         # the tails did tie
    starts = _instants(got["schedule"], "wire.start")
    drains = _instants(got["schedule"], "pipe._on_timer")
    assert starts & drains                          # a head on a drain


def test_a_limp_landing_on_the_drain_instant_is_the_declared_edge():
    # One 1 MB message 0 -> 1.  Its rx pipe drains at some float D; a
    # timer armed *after* the wire started (so it pops after the pipe's
    # timer) limps the receiver at exactly D.  The event-per-stage wire
    # armed its tail at the end of instant D and saw the new factor;
    # the production wire arms it in the pipe timer's frame and does not.
    nbytes, factor = 1e6, 4.0

    def run(fabric_cls, limp_at=None):
        sim, machine = _machine(fabric_cls, nodes=2)
        done = machine.fabric.send(machine.node(0), machine.node(1), nbytes)

        def arm(_evt):
            delay = limp_at - sim.now
            assert sim.now + delay == limp_at
            sim.timeout(delay).callbacks.append(
                lambda _e: machine.node(1).set_limp(1.0, factor))

        if limp_at is not None:
            sim.timeout(2 * US).callbacks.append(arm)
        sim.run(until=done)
        return sim

    healthy = run(Fabric)
    drain = max(float(now)
                for now in _instants(healthy.entries, "pipe._on_timer"))
    assert repr(run(ReferenceFabric).now) == repr(healthy.now)

    assert repr(run(Fabric, drain).now) == repr(healthy.now)
    assert repr(healthy.now) == "0.00031221497530864196"
    stretched = run(ReferenceFabric, drain).now
    assert stretched - healthy.now == pytest.approx(
        (factor - 1.0) * NET.sw_overhead_fmi)
    # one float to either side it is an ordinary mid-flight change:
    # both wires pay for the earlier one, neither for the later
    early = math.nextafter(drain, 0.0)
    assert repr(run(Fabric, early).now) == repr(run(ReferenceFabric, early).now)
    assert run(Fabric, early).now == pytest.approx(stretched)
    late = math.nextafter(drain, math.inf)
    assert repr(run(Fabric, late).now) == repr(healthy.now)
    assert repr(run(ReferenceFabric, late).now) == repr(healthy.now)


def test_an_uncontended_message_costs_five_kernel_events_not_eight():
    # head, tx drain, rx drain, tail, arrived -- and on the oracle three
    # more that only carried the join from one frame to the next
    def events(fabric_cls):
        sim, machine = _machine(fabric_cls, nodes=2)
        sim.run(until=machine.fabric.send(machine.node(0), machine.node(1), 1e6))
        return sim.stats.events_processed

    assert (events(Fabric), events(ReferenceFabric)) == (5, 8)
    assert "both" not in network._Wire.__slots__
    # no per-message record has a Python-level constructor: each is
    # built without a frame and filled where it is built
    for cls in (network._Wire, _Arrival, _LossyArrival, _PostedRecv,
                _Transfer, _DelayedStart, _Wake):
        assert cls.__init__ is object.__init__, cls


# ------------------------------------------- the two doors next to the wire
@pytest.mark.parametrize("nbytes", [float("nan"), -1.0, float("-inf")])
def test_send_refuses_a_size_that_is_not_a_size_before_counting_it(nbytes):
    sim, machine = _machine(Fabric, nodes=2)
    fabric = machine.fabric
    for dst in (0, 1):  # shared memory and wire alike
        with pytest.raises(ValueError, match="nbytes"):
            fabric.send(machine.node(0), machine.node(dst), nbytes)
    assert (fabric.messages_sent, fabric.bytes_sent) == (0, 0.0)
    assert sim.peek() == float("inf")  # nothing was armed


@pytest.mark.parametrize("factors", [
    (float("nan"), 1.0), (1.0, float("nan")), (0.5, 1.0), (1.0, -2.0),
])
def test_set_limp_refuses_a_bad_factor_before_writing_any_state(factors):
    sim, machine = _machine(Fabric, nodes=2)
    node = machine.node(1)
    node.set_limp(2.0, 4.0)
    with pytest.raises(ValueError, match="limp factors"):
        node.set_limp(*factors)
    assert (node.limp_bw, node.limp_latency) == (2.0, 4.0)
    assert machine.limping_count == 1
    assert node.nic_rx.capacity == NET.link_bw / 2.0
    # and a message through the node still lands
    sim.run(until=machine.fabric.send(machine.node(0), node, 1e3))
