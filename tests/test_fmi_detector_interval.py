"""Log-ring detector behaviour and the interval policy."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.config import FmiConfig as Cfg
from repro.fmi.interval import IntervalPolicy
from repro.obs import Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


# --------------------------------------------------------------- detector
def launch_idle(nranks=24, ppn=2, num_nodes=None, seed=0, iters=100, step=0.5,
                traced=False):
    sim = Simulator()
    if traced:
        Tracer(sim)
    machine = Machine(
        sim, SIERRA.with_nodes(num_nodes or nranks // ppn + 1), RngRegistry(seed)
    )

    def app(fmi):
        u = np.zeros(1)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= iters:
                break
            yield fmi.elapse(step)
        yield from fmi.finalize()

    job = FmiJob(machine, app, num_ranks=nranks, procs_per_node=ppn,
                 config=FmiConfig(interval=10**9, xor_group_size=4,
                                  spare_nodes=1))
    job.launch()
    return sim, machine, job


def test_detector_overlay_connection_count():
    sim, machine, job = launch_idle()
    sim.run(until=2.0)
    # Every rank joined epoch 0; the undirected log-ring for n=24 has
    # sum(log2-ish connections)/1 edges, each counted once.
    total_edges = job.detector.cm.open_connections
    from repro.net.overlay import establishment_connections

    assert total_edges == establishment_connections(24, k=2)


def test_detector_notification_reaches_all_survivors_once():
    sim, machine, job = launch_idle(traced=True)
    sim.run(until=2.0)
    job.fmirun.node_slots[3].crash("det-test")
    sim.run(until=4.0)
    notes = [(ev.rank, ev.ts) for ev in sim.tracer.events
             if ev.name == "overlay.notified" and ev.epoch == 1]
    survivor_ranks = {r for r, _ in notes}
    dead = set(job.ranks_of_slot(3))
    assert survivor_ranks == set(range(24)) - dead
    # Exactly once each.
    assert len(notes) == len(survivor_ranks)
    # All within the ibverbs constant + the hop bound window.
    net = machine.spec.network
    for _r, t in notes:
        assert 2.0 + net.ibverbs_close_delay <= t <= 2.0 + 0.45


def test_detector_rebuilds_overlay_per_epoch():
    sim, machine, job = launch_idle()
    sim.run(until=2.0)
    before = job.detector.cm.open_connections
    job.fmirun.node_slots[0].crash("epoch-test")
    sim.run(until=10.0)
    # After recovery the epoch-1 overlay is complete again.
    assert job.epoch == 1
    assert job.detector.cm.open_connections == before


def test_detector_leave_on_finish():
    sim, machine, job = launch_idle(iters=2, step=0.1)
    sim.run()
    assert job.finished
    # All ranks left the overlay at finalize.
    assert job.detector.cm.open_connections == 0


def test_process_death_without_node_death_detected():
    sim, machine, job = launch_idle()
    sim.run(until=2.0)
    victim = job.rank_procs[5]
    victim.proc.kill(cause="lone process death")
    sim.run(until=6.0)
    # fmirun.task killed the sibling, the spare node took over, and the
    # job kept going.
    assert job.epoch == 1
    assert job.rank_procs[5].incarnation == 1
    assert job.rank_procs[4].incarnation == 1  # sibling on the same node


def _closed_conns(detector):
    return [
        (rank, conn)
        for (rank, _epoch), conns in detector.cm.by_end.items()
        for conn in conns
        if not conn.open
    ]


def test_detector_join_unlinks_old_edges_from_peers():
    # Regression: teardown paths (join/leave/process_died) once dropped
    # only the acting rank's *own* list and left the closed Connection
    # objects in every peer's list until the peer happened to rejoin,
    # so the table carried corpses for the whole recovery window.
    sim, machine, job = launch_idle()
    sim.run(until=2.0)
    det = job.detector
    old = det.edges(0)
    assert old  # rank 0 is wired into the epoch-0 overlay
    det.join(job.rank_procs[0], epoch=1)  # rejoins ahead of everyone
    for conn in old:
        assert not conn.open
        for conns in det.cm.by_end.values():
            assert conn not in conns


def test_detector_prunes_closed_conns_after_node_death():
    # Edges between two ranks on the same dead node never raise a
    # disconnect event on either side; the node death must unlist them
    # without waiting for the replacement to rejoin.
    sim, machine, job = launch_idle()
    sim.run(until=2.0)
    job.fmirun.node_slots[2].crash("prune-test")
    sim.run(until=2.3)  # past the ibverbs close delay, recovery underway
    dead_ranks = set(job.ranks_of_slot(2))
    stale = [(r, c) for r, c in _closed_conns(job.detector)
             if r in dead_ranks]
    assert stale == []
    sim.run(until=6.0)
    assert job.epoch == 1
    assert _closed_conns(job.detector) == []


# ------------------------------------------------------------ interval policy
def test_policy_first_call_always_checkpoints():
    p = IntervalPolicy(Cfg(interval=5, xor_group_size=2))
    assert p.should_checkpoint(now=0.0)


def test_policy_interval_counts_calls():
    p = IntervalPolicy(Cfg(interval=3, xor_group_size=2))
    assert p.should_checkpoint(0.0)
    p.record_checkpoint(0.0, cost=0.1)
    assert not p.should_checkpoint(1.0)
    assert not p.should_checkpoint(2.0)
    assert p.should_checkpoint(3.0)  # third call since the checkpoint


def test_policy_mtbf_mode_uses_vaidya():
    p = IntervalPolicy(Cfg(mtbf_seconds=60.0, xor_group_size=2))
    assert p.should_checkpoint(0.0)
    p.record_checkpoint(0.0, cost=0.5)
    from repro.models.vaidya import optimal_interval

    expected = optimal_interval(0.5, 60.0)
    assert p.time_interval == pytest.approx(expected)
    assert not p.should_checkpoint(expected * 0.5)
    assert p.should_checkpoint(expected * 1.01)


def test_policy_mtbf_retunes_on_new_cost():
    p = IntervalPolicy(Cfg(mtbf_seconds=60.0, xor_group_size=2))
    p.record_checkpoint(0.0, cost=0.1)
    t1 = p.time_interval
    p.record_checkpoint(10.0, cost=1.0)
    assert p.time_interval > t1  # costlier checkpoints -> longer interval


def test_policy_reset_after_recovery():
    p = IntervalPolicy(Cfg(interval=2, xor_group_size=2))
    p.record_checkpoint(0.0, cost=0.1)
    assert not p.should_checkpoint(1.0)
    p.reset_after_recovery(5.0)
    assert not p.should_checkpoint(6.0)  # counter restarted
    assert p.should_checkpoint(7.0)


def test_policy_disabled():
    p = IntervalPolicy(Cfg(interval=1, xor_group_size=2, checkpoint_enabled=False))
    assert not p.should_checkpoint(0.0)
    assert not p.should_checkpoint(100.0)


def test_policy_neither_knob_means_first_only():
    p = IntervalPolicy(Cfg(xor_group_size=2))
    assert p.should_checkpoint(0.0)
    p.record_checkpoint(0.0, cost=0.5)
    for t in (1.0, 100.0, 1e6):
        assert not p.should_checkpoint(t)
