"""Failure-trace replay and graceful node drain (dynamic leave)."""

import numpy as np
import pytest

from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.cluster import Machine, TraceInjector
from repro.cluster.failures import FailureInjector, TSUBAME2_FAILURE_TYPES
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def make(num_nodes, seed=0):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))


# ------------------------------------------------------------- trace replay
def test_trace_injector_fires_at_exact_times():
    sim, machine = make(8)
    killed = []
    inj = TraceInjector(
        sim, [(2.0, [3]), (5.5, [1, 2])],
        kill=lambda nodes: killed.append((sim.now, nodes)),
    )
    inj.start()
    sim.run()
    assert killed == [(2.0, [3]), (5.5, [1, 2])]
    assert inj.replayed == killed


def test_trace_injector_unsorted_input_sorted():
    sim, machine = make(4)
    killed = []
    inj = TraceInjector(
        sim, [(3.0, [0]), (1.0, [1])], kill=lambda n: killed.append(sim.now)
    )
    inj.start()
    sim.run()
    assert killed == [1.0, 3.0]


def test_trace_injector_stop_halts_replay():
    sim, machine = make(4)
    killed = []
    inj = TraceInjector(
        sim, [(1.0, [0]), (10.0, [1])], kill=lambda n: killed.append(sim.now)
    )
    inj.start()

    def stopper():
        yield sim.timeout(2.0)
        inj.stop()

    sim.spawn(stopper())
    sim.run()
    assert killed == [1.0]


def test_trace_from_poisson_records_replays_identically():
    # Record a Poisson trace, then replay it: the kill schedule must
    # reproduce the recorded one exactly.
    sim1 = Simulator()
    rec = FailureInjector(
        sim1, RngRegistry(5).stream("r"), TSUBAME2_FAILURE_TYPES[:1], num_nodes=64
    )
    rec.start()
    sim1.run(until=3e6)
    rec.stop()
    assert rec.records

    sim2 = Simulator()
    hits = []
    replay = TraceInjector(
        sim2, [(r.time, list(r.nodes)) for r in rec.records],
        kill=lambda nodes: hits.append((sim2.now, tuple(nodes))),
    )
    replay.start()
    sim2.run()
    assert hits == [(r.time, tuple(r.nodes)) for r in rec.records]


def test_same_trace_two_configurations():
    """The point of replay: one failure schedule, two runtime configs,
    comparable outcomes."""
    schedule = [(2.0, 1), (4.5, 5)]

    def run(group_size, seed):
        sim, machine = make(16, seed=seed)
        iters = 12
        job = FmiJob(
            machine, bsp_app(iters, work_s=0.4), num_ranks=16, procs_per_node=2,
            config=FmiConfig(interval=1, xor_group_size=group_size,
                             spare_nodes=3),
        )
        done = job.launch()
        inj = TraceInjector(
            sim, [(t, [slot]) for t, slot in schedule],
            kill=lambda slots: job.fmirun.node_slots[slots[0]].crash("trace"),
        )
        inj.start()
        done.callbacks.append(lambda _e: inj.stop())
        results = sim.run(until=done)
        return job, results, sim.now

    job_a, res_a, wall_a = run(group_size=4, seed=1)
    job_b, res_b, wall_b = run(group_size=8, seed=2)
    assert job_a.recovery_count == job_b.recovery_count == 2
    for rank in range(16):
        assert np.allclose(res_a[rank], expected_bsp_state(rank, 16, 12))
        assert np.allclose(res_b[rank], res_a[rank])


# ---------------------------------------------------------------- drain
def drain_setup(seed=0):
    sim, machine = make(12, seed=seed)
    job = FmiJob(
        machine, bsp_app(8, work_s=0.4), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1),
    )
    done = job.launch()
    return sim, machine, job, done


def test_drain_migrates_ranks_and_completes():
    sim, machine, job, done = drain_setup()
    drained_node = {}

    def drainer():
        yield sim.timeout(1.5)
        drained_node["node"] = job.fmirun.node_slots[2]
        job.fmirun.drain_slot(2)

    sim.spawn(drainer())
    results = sim.run(until=done)
    for rank in range(16):
        assert np.allclose(results[rank], expected_bsp_state(rank, 16, 8))
    # The slot's ranks now live elsewhere; the drained node is healthy.
    node = drained_node["node"]
    assert node.alive
    assert job.rank_procs[4].node is not node
    assert job.rank_procs[4].incarnation == 1
    assert job.recovery_count == 1


def test_drained_node_returns_to_pool():
    sim, machine, job, done = drain_setup(seed=1)
    before = machine.rm.idle_count
    sampled = {}

    def drainer():
        yield sim.timeout(1.5)
        job.fmirun.drain_slot(0)
        yield sim.timeout(1.5)  # after the swap, before the job ends
        sampled["mid"] = machine.rm.idle_count

    sim.spawn(drainer())
    sim.run(until=done)
    # Mid-run: the job's pre-reserved spare covered the slot, and the
    # healthy drained node came back to the pool: net +1 idle.
    assert sampled["mid"] == before + 1


def test_drain_validations():
    sim, machine, job, done = drain_setup(seed=2)

    def driver():
        yield sim.timeout(1.0)
        job.fmirun.node_slots[3].crash("dead first")
        yield sim.timeout(0.05)
        with pytest.raises(RuntimeError):
            job.fmirun.drain_slot(3)  # already failed

    sim.spawn(driver())
    sim.run(until=done)
    with pytest.raises(RuntimeError):
        job.fmirun.drain_slot(0)  # job finished
