"""Transport (PSM-like) and connection (ibverbs-like) behaviour."""

import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.net.endpoint import ConnectionManager
from repro.net.message import Envelope
from repro.net.pmgr import PmgrRendezvous
from repro.net.transport import Transport
from repro.obs import Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def setup(n=4):
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(n), RngRegistry(0))
    return sim, m, Transport(m)


def env(src, dst, data=None, nbytes=8, epoch=0, tag=0):
    return Envelope(src, dst, tag, 0, epoch, nbytes, data)


# ----------------------------------------------------------------- transport
def test_send_delivers_to_matching_engine():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0), "a")
    b = tp.create_context(m.node(1), "b")
    recv = b.matching.post(source=0, tag=0, comm_id=0)
    tp.send(a, b.addr, env(0, 1, data="payload"))
    sim.run()
    assert recv.value.data == "payload"


def test_send_to_dead_node_drops_silently():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0), "a")
    b = tp.create_context(m.node(1), "b")
    m.node(1).crash()
    done = tp.send(a, b.addr, env(0, 1, data="x"))
    sim.run()
    # PSM semantics: the send completes; the bytes vanish.
    assert done.ok
    assert tp.dropped_dead == 1
    assert b.matching.delivered == 0


def test_send_to_closed_context_drops():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    b.close()
    tp.send(a, b.addr, env(0, 1))
    sim.run()
    assert tp.dropped_dead == 1


def test_stale_epoch_dropped():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    b.epoch = 3  # b has recovered past epoch 0
    tracer = Tracer(sim)
    recv = b.matching.post(source=0, tag=0, comm_id=0)
    tp.send(a, b.addr, env(0, 1, epoch=2, data="stale"))
    sim.run()
    assert not recv.triggered
    assert tp.dropped_stale == 1
    assert [(ev.name, ev.node, ev.args["ctx_epoch"]) for ev in tracer.events] \
        == [("net.drop_stale", 1, 3)]


def test_current_epoch_delivered():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    b.epoch = 3
    a.epoch = 3
    recv = b.matching.post(source=0, tag=0, comm_id=0)
    tp.send(a, b.addr, env(0, 1, epoch=3, data="fresh"))
    sim.run()
    assert recv.value.data == "fresh"


def test_send_from_dead_node_fails():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    m.node(0).crash()
    done = tp.send(a, b.addr, env(0, 1))
    sim.run()
    assert not done.ok


def test_pingpong_roundtrip_latency():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))

    def ponger():
        e = yield b.matching.post(source=0, tag=0, comm_id=0)
        yield tp.send(b, a.addr, env(1, 0, data=e.data, nbytes=1))

    def pinger():
        yield tp.send(a, b.addr, env(0, 1, data="ball", nbytes=1))
        e = yield a.matching.post(source=1, tag=0, comm_id=0)
        return sim.now

    m.node(1).spawn(ponger())
    p = m.node(0).spawn(pinger())
    sim.run()
    one_way = p.value / 2
    # Table III: ~3.57 us one-way for FMI transport.
    assert one_way == pytest.approx(3.573e-6, rel=0.02)


def test_context_serials_are_per_transport():
    # Regression: serials lived on the NetContext *class*, so a second
    # simulation in the same interpreter saw different addresses and
    # labels for the same build sequence -- breaking the byte-identical
    # replay guarantee.
    def build():
        sim, m, tp = setup()
        return [tp.create_context(m.node(i % 2)) for i in range(3)]

    first = build()
    second = build()
    assert [c.addr for c in first] == [c.addr for c in second]
    assert [c.label for c in first] == [c.label for c in second]


# ----------------------------------------------------------------- connections
def test_node_death_raises_disconnect_after_ibverbs_delay():
    sim, m, tp = setup()
    cm = ConnectionManager(m)
    events = []
    conn = cm.connect("a", m.node(0), "b", m.node(1))
    conn.on_disconnect("a", lambda c, k, r: events.append(("a", sim.now, r)))
    conn.on_disconnect("b", lambda c, k, r: events.append(("b", sim.now, r)))

    def killer():
        yield sim.timeout(1.0)
        m.node(1).crash("hw")

    sim.spawn(killer())
    sim.run()
    # Only the surviving side ("a") hears, 0.2 s later.
    assert events == [("a", pytest.approx(1.2), "peer-death:hw")]
    assert cm.open_connections == 0


def test_explicit_close_notifies_peer_fast():
    sim, m, tp = setup()
    cm = ConnectionManager(m)
    events = []
    conn = cm.connect("a", m.node(0), "b", m.node(1))
    conn.on_disconnect("b", lambda c, k, r: events.append((sim.now, r)))
    conn.close_from("a", reason="cascade")
    sim.run()
    assert len(events) == 1
    assert events[0][0] == pytest.approx(m.spec.network.notify_hop_delay)
    assert events[0][1] == "cascade"


def test_close_is_idempotent():
    sim, m, tp = setup()
    cm = ConnectionManager(m)
    hits = []
    conn = cm.connect("a", m.node(0), "b", m.node(1))
    conn.on_disconnect("b", lambda c, k, r: hits.append(r))
    conn.close_from("a")
    conn.close_from("a")
    m.node(0).crash()
    sim.run()
    assert len(hits) == 1


def test_connect_to_dead_node_rejected():
    sim, m, tp = setup()
    cm = ConnectionManager(m)
    m.node(1).crash()
    with pytest.raises(ConnectionError):
        cm.connect("a", m.node(0), "b", m.node(1))


def test_multi_connection_death_fanout():
    # One node death must break every connection it participates in.
    sim, m, tp = setup(4)
    cm = ConnectionManager(m)
    heard = []
    for i in (1, 2, 3):
        conn = cm.connect(f"k{i}", m.node(i), "dead", m.node(0))
        conn.on_disconnect(f"k{i}", lambda c, k, r: heard.append(k))
    m.node(0).crash()
    sim.run()
    assert sorted(heard) == ["k1", "k2", "k3"]


def test_by_end_lists_only_open_connections_whatever_closes_them():
    """Every way a connection ends unlists it at both ends at once, and
    an end with no open connection left has no key: ``by_end`` (the
    detector's overlay edges) never holds a closed connection."""
    sim, m, tp = setup(6)
    cm = ConnectionManager(m)
    node = m.node
    to_p1 = cm.connect("hub", node(0), "p1", node(1))
    to_p2 = cm.connect("hub", node(0), "p2", node(2))
    to_p3 = cm.connect("hub", node(0), "p3", node(3))
    cut = cm.connect("p4", node(4), "p5", node(5))
    cm.connect("hub", node(0), "p5", node(5))
    cm.connect("p1", node(1), "p2", node(2))

    def check(gone):
        listed = {key: list(bucket) for key, bucket in cm.by_end.items()}
        open_conns = [c for c in cm._all if c.open]
        assert len(open_conns) == cm.open_connections
        assert set(listed) == {key for c in open_conns for key in c.ends}
        for key, conns in listed.items():
            assert conns and all(c.open and key in c.ends for c in conns)
        assert not set(gone) & set(listed)

    check([])
    to_p1.close_from("hub")
    check([])  # p1 keeps its edge to p2
    to_p2.close_silent()
    check([])
    to_p3.break_by_owner_death("p3", "exit")
    check(["p3"])
    m.fabric.partition([[4]])
    assert not cut.open
    check(["p3", "p4"])  # p5 keeps its edge to the hub
    m.fabric.heal()
    node(2).crash("hw")
    check(["p1", "p2", "p3", "p4"])
    node(0).crash("hw")
    check(["hub", "p1", "p2", "p3", "p4", "p5"])
    assert cm.by_end == {} and cm.open_connections == 0
    sim.run()


# ----------------------------------------------------------------- rendezvous
def test_rendezvous_releases_all_after_cost():
    sim = Simulator()
    rdv = PmgrRendezvous(sim, size=3, cost=0.5)
    times = []

    def participant(delay):
        yield sim.timeout(delay)
        yield rdv.arrive()
        times.append(sim.now)

    for d in (0.0, 1.0, 2.0):
        sim.spawn(participant(d))
    sim.run()
    assert times == [pytest.approx(2.5)] * 3
    assert rdv.complete_at == pytest.approx(2.0)
    assert rdv.released_at == pytest.approx(2.5)


def test_rendezvous_overfull_raises():
    sim = Simulator()
    rdv = PmgrRendezvous(sim, size=1, cost=0.0)
    rdv.arrive()
    sim.run()
    with pytest.raises(RuntimeError):
        rdv.arrive()


def test_rendezvous_validates_size():
    with pytest.raises(ValueError):
        PmgrRendezvous(Simulator(), size=0, cost=0.0)
