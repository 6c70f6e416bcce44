"""Gray failures: partitions, omission faults, and limping nodes.

Unit coverage of the fabric partition state, the transport's cut
handling (stall + drop modes), the seeded link-fault model, limping
node plumbing, and the detector's suspicion machinery -- plus the
end-to-end acceptance scenarios from the gray-failure campaigns.
"""

import numpy as np
import pytest

from repro.chaos import GRAY_CAMPAIGNS, run_campaign
from repro.cluster import Machine
from repro.cluster.node import NodeDownError
from repro.cluster.spec import SIERRA
from repro.net import LinkFaultModel
from repro.net.endpoint import ConnectionManager
from repro.net.message import Envelope
from repro.net.transport import Transport
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def setup(n=4):
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(n), RngRegistry(0))
    return sim, m, Transport(m)


def env(src, dst, data=None, nbytes=8, epoch=0, tag=0):
    return Envelope(src, dst, tag, 0, epoch, nbytes, data)


# ------------------------------------------------------------ fabric state
def test_partition_reachability_and_tag():
    sim, m, _tp = setup()
    tag = m.fabric.partition([[0, 1], [2, 3]], tag="cut")
    assert tag == "cut"
    assert m.fabric.partitioned and m.fabric.partition_tag == "cut"
    assert m.fabric.reachable(0, 1)
    assert m.fabric.reachable(2, 3)
    assert not m.fabric.reachable(0, 2)
    assert not m.fabric.reachable(1, 3)
    m.fabric.heal()
    assert not m.fabric.partitioned and m.fabric.partition_tag == ""
    assert m.fabric.reachable(0, 2)


def test_unlisted_nodes_join_component_zero():
    sim, m, _tp = setup()
    m.fabric.partition([[2, 3]])  # cleave {2,3} off from everyone else
    assert m.fabric.reachable(0, 1)
    assert not m.fabric.reachable(0, 2)


def test_partition_generates_tags():
    sim, m, _tp = setup()
    assert m.fabric.partition([[1]]) == "p1"
    m.fabric.heal()
    assert m.fabric.partition([[1]]) == "p2"


def test_double_partition_refused():
    sim, m, _tp = setup()
    m.fabric.partition([[1]])
    with pytest.raises(RuntimeError, match="already partitioned"):
        m.fabric.partition([[2]])


def test_overlapping_groups_rejected():
    sim, m, _tp = setup()
    with pytest.raises(ValueError, match="two partition groups"):
        m.fabric.partition([[0, 1], [1, 2]])


def test_heal_when_connected_is_noop():
    sim, m, _tp = setup()
    heals = []
    m.fabric.heal_listeners[heals.append] = None
    m.fabric.heal()
    assert heals == []


def test_partition_and_heal_listeners_fire():
    sim, m, _tp = setup()
    cuts, heals = [], []
    m.fabric.partition_listeners[
        lambda tag, comp: cuts.append((tag, dict(comp)))] = None
    m.fabric.heal_listeners[heals.append] = None
    m.fabric.partition([[0], [1, 2]], tag="t")
    m.fabric.heal()
    assert cuts == [("t", {0: 1, 1: 2, 2: 2})]
    assert heals == ["t"]
    m.fabric.heal_listeners.pop(heals.append, None)
    m.fabric.partition([[1]], tag="u")
    m.fabric.heal()
    assert heals == ["t"]  # popped: the second heal goes unheard


# --------------------------------------------------- transport: stall mode
def test_cut_message_stalls_and_heals_exactly_once():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    m.fabric.partition([[1]])
    recv = b.matching.post(source=0, tag=0, comm_id=0)
    done = tp.send(a, b.addr, env(0, 1, data="parked"))
    sim.run()
    assert tp.partition_stalls == 1 and len(tp._stalled) == 1
    assert not recv.triggered  # parked at the cut, not lost
    m.fabric.heal()
    sim.run()
    assert recv.value.data == "parked"
    assert done.ok
    assert tp.partition_flushed == 1 and tp._stalled == []
    assert b.matching.delivered == 1  # exactly once


def test_stalled_messages_flush_in_send_order():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    m.fabric.partition([[1]])
    for i in range(3):
        tp.send(a, b.addr, env(0, 1, data=i, tag=i))
    sim.run()
    assert tp.partition_stalls == 3
    order = []
    for i in range(3):
        b.matching.post(source=0, tag=i, comm_id=0).callbacks.append(
            lambda e, i=i: order.append(i)
        )
    m.fabric.heal()
    sim.run()
    assert order == [0, 1, 2]


# ---------------------------------------------------- transport: drop mode
def test_cut_message_retransmits_until_heal():
    sim, m, tp = setup()
    tp.partition_mode = "drop"
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    m.fabric.partition([[1]])
    recv = b.matching.post(source=0, tag=0, comm_id=0)
    tp.send(a, b.addr, env(0, 1, data="retry"))
    sim.run(until=sim.timeout(1.0))
    assert tp.partition_retries >= 10  # burning rto after rto at the cut
    assert not recv.triggered
    m.fabric.heal()
    sim.run()
    assert recv.value.data == "retry"
    assert b.matching.delivered == 1


def test_same_side_traffic_unaffected_by_partition():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    m.fabric.partition([[2, 3]])
    recv = b.matching.post(source=0, tag=0, comm_id=0)
    tp.send(a, b.addr, env(0, 1, data="local"))
    sim.run()
    assert recv.value.data == "local"
    assert tp.partition_stalls == 0


# ------------------------------------------------ connections across a cut
def test_partition_breaks_crossing_connections_on_both_ends():
    sim, m, _tp = setup()
    cm = ConnectionManager(m)
    conn = cm.connect("a", m.node(0), "b", m.node(2))
    events = []
    conn.on_disconnect("a", lambda c, k, r: events.append((k, r, sim.now)))
    conn.on_disconnect("b", lambda c, k, r: events.append((k, r, sim.now)))
    m.fabric.partition([[2, 3]], tag="cut")
    sim.run()
    assert not conn.open
    assert sorted(k for k, _r, _t in events) == ["a", "b"]
    for _k, reason, t in events:
        assert reason == "partition:cut"
        assert t == pytest.approx(cm.close_delay)


def test_same_side_connection_survives_partition():
    sim, m, _tp = setup()
    cm = ConnectionManager(m)
    conn = cm.connect("a", m.node(0), "b", m.node(1))
    m.fabric.partition([[2, 3]])
    sim.run()
    assert conn.open


def test_connect_across_cut_refused():
    sim, m, _tp = setup()
    cm = ConnectionManager(m)
    m.fabric.partition([[1]])
    with pytest.raises(ConnectionError, match="partitioned"):
        cm.connect("a", m.node(0), "b", m.node(1))
    m.fabric.heal()
    assert cm.connect("a", m.node(0), "b", m.node(1)).open


# ------------------------------------------------------- link-fault model
def test_fault_model_validates_probabilities():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="drop_p"):
        LinkFaultModel(rng, drop_p=1.0)
    with pytest.raises(ValueError, match="dup_p"):
        LinkFaultModel(rng, dup_p=-0.1)
    with pytest.raises(ValueError, match="positive"):
        LinkFaultModel(rng, rto=0.0)
    # NaN timings: a ``<= 0`` guard let them through to every draw
    for knob in ("rto", "dup_lag", "delay_mean"):
        with pytest.raises(ValueError, match="positive"):
            LinkFaultModel(rng, **{knob: float("nan")})


def test_fault_model_loopback_immune():
    model = LinkFaultModel(np.random.default_rng(0), drop_p=0.9)
    assert not model.applies(3, 3)
    assert model.applies(0, 1)
    assert model.plan(5, 5).clean


def test_fault_model_link_restriction():
    model = LinkFaultModel(
        np.random.default_rng(0), drop_p=0.9, links={(0, 1)}
    )
    assert model.applies(0, 1)
    assert not model.applies(1, 0)  # directed


def test_dropped_messages_are_redelivered_after_rto():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    tp.set_faults(LinkFaultModel(np.random.default_rng(1), drop_p=0.5))
    n = 40
    for i in range(n):
        b.matching.post(source=0, tag=i, comm_id=0)
        tp.send(a, b.addr, env(0, 1, data=i, tag=i))
    sim.run()
    # Lossy, but nothing is lost: every message lands exactly once.
    assert b.matching.delivered == n
    assert tp.omission_drops > 0


def test_duplicates_are_suppressed_at_receiver():
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    tp.set_faults(LinkFaultModel(np.random.default_rng(2), dup_p=0.8))
    n = 25
    for i in range(n):
        b.matching.post(source=0, tag=i, comm_id=0)
        tp.send(a, b.addr, env(0, 1, data=i, tag=i))
    sim.run()
    assert b.matching.delivered == n
    assert tp.omission_dups > 0
    assert tp.dup_dropped == tp.omission_dups


def test_dedup_stays_armed_after_model_detached():
    """A duplicate drawn before ``clear_faults`` that lands after it is
    dropped once: its pair carries the flag, not the model."""
    sim, m, tp = setup()
    a = tp.create_context(m.node(0))
    b = tp.create_context(m.node(1))
    tp.set_faults(LinkFaultModel(np.random.default_rng(2), dup_p=0.8))
    n = 10
    for i in range(n):
        b.matching.post(source=0, tag=i, comm_id=0)
        tp.send(a, b.addr, env(0, 1, data=i, tag=i))
    tp.clear_faults()
    assert tp.faults is None
    assert tp._lossy  # the collective verdict keeps its omission reason
    sim.run()
    assert b.matching.delivered == n
    assert tp.omission_dups > 0
    assert tp.dup_dropped == tp.omission_dups


def test_fault_plans_are_seed_deterministic():
    def draw(seed):
        model = LinkFaultModel(
            np.random.default_rng(seed), drop_p=0.3, dup_p=0.3, delay_p=0.3
        )
        return [
            (p.drops, p.delay, p.duplicate)
            for p in (model.plan(0, 1) for _ in range(50))
        ]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


# ---------------------------------------------------------- limping nodes
def test_set_limp_validation():
    sim, m, _tp = setup()
    with pytest.raises(ValueError, match=">= 1.0"):
        m.node(0).set_limp(0.5, 1.0)
    m.node(0).crash()
    with pytest.raises(NodeDownError):
        m.node(0).set_limp(2.0, 2.0)


def test_limp_slows_transfers_and_clear_restores():
    def timed(limped):
        sim, m, tp = setup()
        if limped:
            m.node(1).set_limp(8.0, 4.0)
        a = tp.create_context(m.node(0))
        b = tp.create_context(m.node(1))
        b.matching.post(source=0, tag=0, comm_id=0)
        tp.send(a, b.addr, env(0, 1, nbytes=1 << 20, data="x"))
        sim.run()
        return sim.now

    assert timed(limped=True) > 2 * timed(limped=False)
    sim, m, _tp = setup()
    m.node(1).set_limp(8.0, 4.0)
    assert m.node(1).limping
    m.node(1).clear_limp()
    assert not m.node(1).limping
    assert m.node(1).limp_bw == 1.0 and m.node(1).limp_latency == 1.0


# -------------------------------------------------- end-to-end acceptance
def test_partition_heal_alone_never_triggers_recovery():
    """A cut that heals must look like nothing happened: suspicions are
    raised (the edges did break) but no recovery epoch ever opens, and
    the overlay is repaired in place."""
    for seed in range(3):
        result = run_campaign("partition-heal", seed)
        assert result.violations == []
        assert result.recoveries == 0
        assert result.repaired_edges > 0
        assert result.partition_stalls > 0 or result.partition_retries > 0


def test_partition_kill_mid_heal_recovers_exactly_the_real_death():
    """The acceptance scenario: partition, kill a rank mid-cut, heal.
    Only the real death recovers -- the partition itself must not add
    epochs on either side (no split brain), and the answer stays
    bit-equal to the failure-free run (checked by the invariants)."""
    for seed in range(3):
        result = run_campaign("partition-kill-mid-heal", seed)
        assert result.violations == []
        assert result.recoveries >= 1


def test_flapping_partition_clears_every_suspicion():
    result = run_campaign("flapping-partition", seed=0)
    assert result.violations == []
    assert result.recoveries == 0


def test_lossy_links_survive_kill_under_omission():
    result = run_campaign("lossy-links", seed=0)
    assert result.violations == []
    assert result.omission_drops > 0
    assert result.dup_dropped <= result.omission_dups


def test_gray_campaigns_registered():
    assert set(GRAY_CAMPAIGNS) == {
        "partition-heal", "partition-kill-mid-heal", "flapping-partition",
        "lossy-links", "limping-node",
    }
