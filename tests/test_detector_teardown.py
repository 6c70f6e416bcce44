"""Detector teardown idempotence: the paths that race each other.

Overlay teardown has four entry points -- a disconnect event's cascade,
``leave`` on rank finish, ``process_died`` from fmirun.task, and
``_on_node_death`` -- and real schedules interleave them: a node death
closes connections ~0.2 s *before* the survivors' ibverbs events fire
for them, and a process can exit cleanly just before fmirun notices it
dying.  Each path must therefore tolerate running after any other
already did the work.  The overlay's edges live only in the connection
manager's end-key index, which a connection leaves the moment it
closes.
"""

import pytest

from repro.chaos import CAMPAIGNS
from repro.chaos.runner import _build_job
from repro.obs import Tracer


def steady_job(t=1.0, seed=0):
    """A launched job run to ``t``: every rank joined, overlay complete."""
    sim, machine, job = _build_job(CAMPAIGNS["mid-checkpoint-kill"], seed)
    Tracer(sim)
    done = job.launch()
    sim.run(until=sim.timeout(t))
    det = job.detector
    assert det.cm.by_end and det._joined_epoch, "overlay should be up"
    return sim, machine, job, done


def listed(det):
    """The manager's index as ``{rank: [connection, ...]}``."""
    out = {}
    for (rank, _epoch), conns in det.cm.by_end.items():
        out.setdefault(rank, []).extend(conns)
    return out


def no_stale_entries(det):
    """No closed connection is listed at a live rank, and every live
    rank listing an edge has a join epoch."""
    for rank, conns in listed(det).items():
        rproc = det.job.rank_procs.get(rank)
        if rproc is None or not rproc.alive:
            continue
        assert rank in det._joined_epoch
        for conn in conns:
            assert conn.open, (rank, conn.ends)


def test_closing_twice_is_a_noop_that_unlists_once_at_each_end():
    sim, machine, job, _done = steady_job()
    det = job.detector
    rank = sorted(listed(det))[0]
    conn = det.edges(rank)[0]
    before = {r: len(c) for r, c in listed(det).items()}
    conn.close_silent()
    after_once = {r: len(c) for r, c in listed(det).items()}
    conn.close_silent()  # second close: a no-op, not a KeyError
    assert {r: len(c) for r, c in listed(det).items()} == after_once
    assert not conn.open
    for end_rank in (key[0] for key in conn.ends):
        assert before[end_rank] - 1 == after_once.get(end_rank, 0)
        assert conn not in det.edges(end_rank)


def test_process_died_after_leave_is_noop():
    sim, machine, job, _done = steady_job()
    det = job.detector
    rank = sorted(listed(det))[0]
    det.leave(rank)
    assert rank not in listed(det) and rank not in det._joined_epoch
    det.process_died(rank, "late-exit")  # fmirun noticed after the fact
    assert rank not in listed(det) and rank not in det._joined_epoch
    no_stale_entries(det)


def test_leave_twice_is_noop():
    sim, machine, job, _done = steady_job()
    det = job.detector
    rank = sorted(listed(det))[0]
    det.leave(rank)
    det.leave(rank)
    assert rank not in listed(det) and rank not in det._joined_epoch


def test_leave_clears_pending_suspicions_of_that_rank():
    sim, machine, job, _done = steady_job()
    det = job.detector
    ranks = sorted(listed(det))[:3]
    det._suspected[(ranks[0], ranks[1])] = sim.now
    det._suspected[(ranks[2], ranks[0])] = sim.now
    det._suspected[(ranks[1], ranks[2])] = sim.now
    det.leave(ranks[0])
    assert set(det._suspected) == {(ranks[1], ranks[2])}


def test_node_death_racing_survivor_disconnects():
    """Crash a node, then let the survivors' ibverbs events (fired
    ~0.2 s later, for connections the death already closed) land:
    nothing stale may linger."""
    sim, machine, job, done = steady_job()
    det = job.detector
    victim = job.fmirun.node_slots[1]
    dead_ranks = {
        r for r, rp in job.rank_procs.items() if rp.node is victim
    }
    assert dead_ranks
    victim.crash("teardown race test")
    # _on_node_death ran synchronously: the dead ranks are forgotten.
    for rank in dead_ranks:
        assert rank not in det._joined_epoch
    # Now the survivors' disconnect events fire (close_delay ~0.2 s)
    # and cascade; run through them.
    sim.run(until=sim.timeout(0.5))
    no_stale_entries(det)
    # The job must still recover and finish with an empty table.
    sim.run(until=done)
    assert job.finished and job.epoch >= 1
    assert det.cm.by_end == {} and det._joined_epoch == {}
    assert det._suspected == {}


def test_process_death_then_node_death_same_instant():
    sim, machine, job, done = steady_job()
    det = job.detector
    victim = job.fmirun.node_slots[0]
    dead_ranks = sorted(
        r for r, rp in job.rank_procs.items() if rp.node is victim
    )
    det.process_died(dead_ranks[0], "killed")  # fmirun's sibling-kill path
    victim.crash("node follows its process")  # then the whole node goes
    sim.run(until=sim.timeout(0.5))
    no_stale_entries(det)
    sim.run(until=done)
    assert job.finished
    assert det.cm.by_end == {} and det._joined_epoch == {}


def test_full_run_leaves_empty_tables():
    sim, machine, job, done = steady_job()
    sim.run(until=done)
    assert job.finished
    assert job.detector.cm.by_end == {}
    assert job.detector._joined_epoch == {}
    assert job.detector._suspected == {}
