"""Failure-timing sweep: crash a node at many points in the job's
lifetime -- during spawn, H1, H2, the first checkpoint, mid-iteration,
mid-recovery -- and require that every run either completes with the
correct answer or fails with the documented abort.

This is the adversarial schedule test for the recovery state machine:
most historical bugs (interrupts outside the H1 try-block, partial
checkpoints, stale parity) were timing-dependent, so we scan time
densely instead of hand-picking scenarios.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.errors import FmiAbort
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

NUM_LOOPS = 5
WORK = 0.4


def app(fmi):
    u = np.zeros(4, dtype=np.float64)
    yield from fmi.init()
    while True:
        n = yield from fmi.loop([u])
        if n >= NUM_LOOPS:
            break
        yield fmi.elapse(WORK)
        u[0] = n + 1.0
        u[1] = yield from fmi.allreduce(float(n))
    yield from fmi.finalize()
    return u.copy()


def run_once(kill_times, seed=0, level2=False, victims=(0,)):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(14), RngRegistry(seed))
    job = FmiJob(
        machine, app, num_ranks=16, procs_per_node=2,
        config=FmiConfig(
            interval=1, xor_group_size=4, spare_nodes=4,
            level2_every=1 if level2 else None,
        ),
    )
    done = job.launch()

    def killer():
        last = 0.0
        for t, victim_slot in kill_times:
            yield sim.timeout(t - last)
            last = t
            node = job.fmirun.node_slots[victim_slot]
            node.crash(f"sweep@{t}")

    if kill_times:
        sim.spawn(killer())
    results = sim.run(until=done, max_events=20_000_000)
    return job, results


# Failure-free wall time is ~3.3 s; sweep the whole window densely.
SWEEP_TIMES = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.6, 0.8,
               1.0, 1.3, 1.7, 2.0, 2.4, 2.8, 3.1]


@pytest.mark.parametrize("t", SWEEP_TIMES)
def test_single_crash_at_any_time_completes(t):
    job, results = run_once([(t, 0)], seed=int(t * 100))
    # Early/mid crashes must trigger a recovery; very late ones may
    # land after completion (the killer then never fires).
    if t <= 2.0:
        assert job.recovery_count >= 1
    for u in results:
        assert u[0] == NUM_LOOPS


@pytest.mark.parametrize("gap", [0.05, 0.3, 0.8, 1.5])
def test_second_crash_during_or_after_recovery(gap):
    """Second failure lands while recovery from the first may still be
    in flight (different XOR blocks: slots 0 and 4)."""
    job, results = run_once([(1.0, 0), (1.0 + gap, 4)], seed=int(gap * 1000))
    assert job.recovery_count >= 1
    for u in results:
        assert u[0] == NUM_LOOPS


@pytest.mark.parametrize("t", [1.1, 1.6, 2.2])
def test_same_block_double_crash_aborts_without_level2(t):
    # After the first checkpoint exists, losing two members of one XOR
    # block exceeds level-1 protection.
    with pytest.raises(FmiAbort):
        run_once([(t, 0), (t + 0.01, 1)], seed=int(t * 10))


def test_same_block_double_crash_before_first_ckpt_cold_starts():
    # Before any checkpoint exists there is nothing to lose: the job
    # cold-starts and still finishes correctly, even without level 2.
    job, results = run_once([(0.3, 0), (0.31, 1)], seed=3)
    for u in results:
        assert u[0] == NUM_LOOPS


@pytest.mark.parametrize("t", [1.1, 1.6, 2.2])
def test_same_block_double_crash_recovers_with_level2(t):
    job, results = run_once([(t, 0), (t + 0.01, 1)], seed=int(t * 10),
                            level2=True)
    assert job.level2_restores >= 1
    for u in results:
        assert u[0] == NUM_LOOPS


def test_crash_storm_three_rounds():
    """Three failures spread across the run, all different blocks."""
    job, results = run_once([(0.8, 0), (2.0, 4), (3.5, 2)], seed=9)
    assert job.recovery_count == 3
    for u in results:
        assert u[0] == NUM_LOOPS


@pytest.mark.parametrize("t", [0.4, 0.7, 1.0, 1.4, 1.9, 2.5, 3.0])
def test_single_crash_with_level2_enabled(t):
    """With level-2 flushing every checkpoint, crashes can land inside
    the PFS-flush barrier window; recovery must still work and the
    answer must be exact."""
    job, results = run_once([(t, 0)], seed=100 + int(t * 10), level2=True)
    for u in results:
        assert u[0] == NUM_LOOPS
    if t <= 2.0:
        assert job.recovery_count >= 1


def _scoped_run(recovery, kill=None):
    """Run ``app`` traced, killing per ``kill = (k, slot)`` at the k-th
    ``ckpt.encode.begin``; returns the results and every ``_hop_only``
    a context read after it was left behind."""
    from repro.chaos import ChaosEngine, KillSlot, OnEvent, Rule, Scenario
    from repro.obs import Tracer

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(14), RngRegistry(0))
    Tracer(sim)
    current = {}  # rank -> the context its running app was given
    left = []  # contexts whose app was unwound or closed
    seen = []

    def h3(fmi):
        # an H3 (re-)entry: every context left behind is out of its
        # FMI_Loop, checkpoint and restore scopes, each exited once
        if fmi.rank in current:
            left.append(current[fmi.rank])
        current[fmi.rank] = fmi
        seen.extend(api._hop_only for api in left)
        return app(fmi)

    job = FmiJob(machine, h3, num_ranks=8, procs_per_node=2,
                 config=FmiConfig(interval=1, xor_group_size=4,
                                  spare_nodes=2, recovery=recovery))
    done = job.launch()
    if kill is not None:
        engine = ChaosEngine(machine, jobs=[job])
        engine.arm(Scenario("encode-kill", [
            Rule(OnEvent("ckpt.encode.begin", count=kill[0]),
                 KillSlot(kill[1]))]))
    results = sim.run(until=done, max_events=20_000_000)
    if kill is not None:
        assert len(engine.injected) == 1 and job.recovery_count >= 1
    seen.extend(api._hop_only for api in left + list(current.values()))
    return results, seen


@pytest.mark.parametrize("recovery", ["global", "logged"])
@pytest.mark.parametrize("kill", [(1, 0), (6, 1), (12, 3)])
def test_a_kill_inside_an_encode_leaves_every_scope_once(recovery, kill):
    # FMI_Loop hands the checkpoint off, so a kill or a failure notice
    # unwinds a chain of generators; each ``_hop_only`` scope on it is
    # exited exactly once, and the answers are the failure-free ones
    clean, _ = _scoped_run(recovery)
    results, seen = _scoped_run(recovery, kill)
    assert seen and set(seen) == {0}
    assert len(results) == 8 and all(
        u.tobytes() == v.tobytes() for u, v in zip(results, clean))
