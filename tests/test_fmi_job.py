"""End-to-end FMI jobs: failure-free runs, recovery, data integrity."""

import gc

import numpy as np
import pytest

from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.errors import FmiAbort
from repro.fmi.state import ProcState
from repro.mpi.macro import _Instance
from repro.obs import Tracer
from repro.simt import BandwidthResource, Simulator
from repro.simt.kernel import SimulationError
from repro.simt.rng import RngRegistry


def make(num_nodes=8, seed=0):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))
    return sim, machine


def counting_app(num_loops, work=0.01):
    """Each rank iterates, checkpointing a counter array; returns the
    final counter and the number of body executions (to observe
    rollback retries)."""

    def app(fmi):
        u = np.zeros(4, dtype=np.float64)
        executions = []
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= num_loops:
                break
            # body of iteration n
            executions.append(n)
            yield fmi.elapse(work)
            u[0] = n + 1.0  # state after completing iteration n
            u[1] = fmi.rank
            total = yield from fmi.allreduce(float(n))
            u[2] = total
        yield from fmi.finalize()
        return (u.copy(), executions)

    return app


# ------------------------------------------------------------- failure-free
def test_failure_free_run_completes():
    sim, machine = make()
    job = FmiJob(
        machine, counting_app(5), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=0),
    )
    results = sim.run(until=job.launch())
    assert len(results) == 8
    for u, executions in results:
        assert u[0] == 5.0
        assert executions == [0, 1, 2, 3, 4]
    assert job.recovery_count == 0
    assert job.checkpoints_done > 0
    assert job.restores_done == 0


def test_first_loop_always_checkpoints():
    sim, machine = make()
    job = FmiJob(
        machine, counting_app(3), num_ranks=4, procs_per_node=1,
        config=FmiConfig(xor_group_size=4, spare_nodes=0),  # no interval/mtbf
    )
    sim.run(until=job.launch())
    # Only the initial mandatory checkpoint: one per rank.
    assert job.checkpoints_done == 4


def test_interval_counts_loops():
    sim, machine = make()
    job = FmiJob(
        machine, counting_app(6), num_ranks=4, procs_per_node=1,
        config=FmiConfig(interval=2, xor_group_size=4, spare_nodes=0),
    )
    sim.run(until=job.launch())
    # Checkpoints at loop 0 (mandatory), 2, 4, 6: 4 per rank.
    assert job.checkpoints_done == 4 * 4


def test_init_time_recorded():
    sim, machine = make()
    job = FmiJob(
        machine, counting_app(1), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=0),
    )
    sim.run(until=job.launch())
    expected = machine.spec.fmi_bootstrap_time(8)
    assert job.init_done_at is not None
    assert job.init_done_at >= expected


# ----------------------------------------------------------------- recovery
def run_with_kill(kill_time, num_loops=6, work=0.5, num_nodes=10, ranks=16,
                  ppn=2, group=4, spares=1, seed=0, kill_node=0):
    sim, machine = make(num_nodes, seed)
    Tracer(sim)  # sim.tracer: the state-machine record
    job = FmiJob(
        machine, counting_app(num_loops, work), num_ranks=ranks,
        procs_per_node=ppn,
        config=FmiConfig(interval=1, xor_group_size=group, spare_nodes=spares),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(kill_time)
        machine.node(kill_node).crash("injected")

    sim.spawn(killer())
    results = sim.run(until=done)
    return sim, machine, job, results


def test_single_node_failure_recovers_and_completes():
    sim, machine, job, results = run_with_kill(kill_time=1.5)
    assert job.recovery_count == 1
    assert job.restores_done > 0
    assert len(results) == 16
    for u, _ex in results:
        assert u[0] == 6.0  # final state correct despite the crash


def test_rollback_reexecutes_iterations():
    sim, machine, job, results = run_with_kill(kill_time=1.5)
    assert job.restores_done > 0
    # After recovery the application generator restarts from the top
    # and FMI_Loop returns the restored loop id: every rank's (fresh)
    # execution list is a contiguous run ending at the last iteration,
    # starting from the restored id (< 6 if the rank rolled back).
    rolled_back = 0
    for _u, ex in results:
        assert ex[-1] == 5
        assert ex == list(range(ex[0], 6))
        if ex[0] > 0:
            rolled_back += 1
    assert rolled_back > 0, "nobody rolled back despite a mid-run failure"


def test_failed_ranks_replaced_on_spare_node():
    sim, machine, job, results = run_with_kill(kill_time=1.5, kill_node=2)
    # Ranks 4,5 lived on node 2; their processes must be incarnation 1 now.
    for rank in (4, 5):
        fp = job.rank_procs[rank]
        assert fp.incarnation == 1
        assert fp.node.id != 2
        assert fp.node.alive
    # Survivor ranks kept their original processes.
    assert job.rank_procs[0].incarnation == 0


def test_survivors_transition_h3_h1_h2_h3():
    sim, machine, job, _ = run_with_kill(kill_time=1.5)
    states = [ProcState(ev.args["state"]) for ev in sim.tracer.events
              if ev.name == "fmi.state" and ev.rank == 15]  # a survivor
    assert states[:3] == [
        ProcState.H1_BOOTSTRAPPING, ProcState.H2_CONNECTING, ProcState.H3_RUNNING
    ]
    # After the failure: back through H1, H2 into H3, then DONE.
    assert states[3:7] == [
        ProcState.H1_BOOTSTRAPPING,
        ProcState.H2_CONNECTING,
        ProcState.H3_RUNNING,
        ProcState.DONE,
    ]


def test_two_sequential_failures():
    sim, machine = make(12, seed=1)
    job = FmiJob(
        machine, counting_app(8, work=0.5), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=2),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(1.0)
        machine.node(1).crash("first")
        yield sim.timeout(2.5)
        machine.node(3).crash("second")

    sim.spawn(killer())
    results = sim.run(until=done)
    assert job.recovery_count == 2
    for u, _ex in results:
        assert u[0] == 8.0


def test_multi_node_simultaneous_failure_different_groups():
    # Nodes 0 and 4 host ranks of different XOR groups (group size 4:
    # block 0 = nodes 0-3, block 1 = nodes 4-7), so a simultaneous
    # failure of both is still level-1 recoverable.
    sim, machine = make(10, seed=2)
    job = FmiJob(
        machine, counting_app(6, work=0.5), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=2),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(1.5)
        machine.fail_nodes([0, 4], cause="double")

    sim.spawn(killer())
    results = sim.run(until=done)
    assert job.recovery_count == 1  # coalesced into one recovery round
    for u, _ex in results:
        assert u[0] == 6.0


def test_two_failures_in_one_xor_group_aborts():
    # Nodes 0 and 1 are in the same XOR block: two lost members in one
    # group exceeds level-1 protection and must abort.
    sim, machine = make(10, seed=3)
    job = FmiJob(
        machine, counting_app(6, work=0.5), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=2),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(1.5)
        machine.fail_nodes([0, 1], cause="same-group")

    sim.spawn(killer())
    with pytest.raises(FmiAbort):
        sim.run(until=done)


def test_failure_before_first_checkpoint_cold_starts():
    # Kill during bootstrap-ish time: before any checkpoint exists.
    sim, machine = make(10, seed=4)
    job = FmiJob(
        machine, counting_app(3, work=0.2), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(0.05)  # during process spawn / H1
        machine.node(0).crash("early")

    sim.spawn(killer())
    results = sim.run(until=done)
    assert job.recovery_count >= 1
    for u, _ex in results:
        assert u[0] == 3.0


def test_app_exception_aborts_job():
    def buggy(fmi):
        yield from fmi.init()
        if fmi.rank == 1:
            raise ZeroDivisionError("bug")
        yield from fmi.finalize()

    sim, machine = make(8)
    job = FmiJob(
        machine, buggy, num_ranks=4, procs_per_node=1,
        config=FmiConfig(xor_group_size=4, spare_nodes=0),
    )
    with pytest.raises(FmiAbort):
        sim.run(until=job.launch())


def test_recovery_latency_recorded():
    sim, machine, job, _ = run_with_kill(kill_time=1.5)
    latency = job.recovery_latency(1)
    assert latency is not None
    # At minimum the ibverbs 0.2 s detection delay plus respawn must pass.
    assert 0.2 < latency < 30.0


def test_restored_data_bitexact_on_replacement():
    """The replacement rank's restored array equals what was saved."""
    observed = {}

    def app(fmi):
        u = np.zeros(64, dtype=np.float64)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= 4:
                break
            if fmi.fproc.incarnation > 0 and fmi.rank not in observed:
                observed[fmi.rank] = (n, u.copy())
            u[:] = (n + 1) * 1000 + fmi.rank
            yield fmi.elapse(0.5)
        yield from fmi.finalize()
        return u.copy()

    sim, machine = make(10, seed=6)
    job = FmiJob(
        machine, app, num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(1.2)
        machine.node(0).crash("x")

    sim.spawn(killer())
    results = sim.run(until=done)
    # Replacement ranks (0 and 1 lived on node 0) saw the restored value.
    assert observed, "no replacement rank observed a restore"
    for rank, (n, u) in observed.items():
        assert np.all(u == n * 1000 + rank), (rank, n, u[:3])
    for rank, u in enumerate(results):
        assert np.all(u == 4 * 1000 + rank)


def test_an_exhausted_machine_stalls_and_names_the_slot_it_refills():
    # A 8-node machine running an 8-node job: no spare exists anywhere,
    # so a crash can never be repaired.  fmirun waits for the grant, as
    # the paper's does; the drained launch says who waits on what.
    sim, machine = make(8, seed=42)
    job = FmiJob(
        machine, counting_app(50, work=0.5), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=0),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(2.0)
        machine.node(0).crash("no-spares-anywhere")

    sim.spawn(killer())
    with pytest.raises(SimulationError) as info:
        sim.run(until=done)
    text = str(info.value)
    assert "awaiting 16 of 16 ranks" in text
    assert ("; epoch 1, refilling slots [0]: rank 0 lost, rank 1 lost, "
            "rank 2 H1 epoch 1, ") in text
    assert "rank 7 H1 epoch 1 (untriggered" in text


# ------------------------------------------------------- per-recovery growth
#: ``Transport.contexts`` keeps every context ever made (the live
#: registry is ROADMAP item 21), and a pipe keeps its last entry event,
#: three per node the job first uses: what the growth pin leaves out
_UNPINNED = ("NetContext", "MatchingEngine")


def _objects_left_behind():
    """GC-tracked objects after a collection, less the unpinned ones
    and the pipes' entry events; and the macro instances among them."""
    gc.collect()
    objects = gc.get_objects()
    return len(objects) - sum(
        1 for o in objects if type(o).__name__ in _UNPINNED
        or (type(o) is BandwidthResource and o._entry is not None)), sum(
        1 for o in objects if type(o) is _Instance)


def test_a_released_rendezvous_goes_when_the_epoch_moves_on():
    sim, machine = make()
    job = FmiJob(machine, counting_app(1), num_ranks=2,
                 config=FmiConfig(xor_group_size=2))
    # the global family's scope reads the job alone: no process needed
    h1 = job.rendezvous("H1", None)
    h1.arrive()
    h1.arrive()
    sim.run()
    assert h1.released_at is not None
    # a late arrival in the epoch that released it meets it, refused
    assert job.rendezvous("H1", None) is h1
    with pytest.raises(RuntimeError, match="already released"):
        h1.arrive()
    pending = job.rendezvous("H2", None)
    job.fmirun.begin_recovery("injected")
    # a new epoch: the released one goes, the unreleased one stays
    assert job.epoch == 1
    assert job._rdv == {("H2", 0): pending}


def _killed_job(recovery, kills):
    """A finished 4-rank job whose lead nodes were killed ``kills``
    times, 1.5 s apart."""
    sim, machine = make(num_nodes=24)
    job = FmiJob(machine, bsp_app(40, work_s=0.4), num_ranks=4,
                 procs_per_node=1,
                 config=FmiConfig(interval=1, xor_group_size=4,
                                  recovery=recovery, spare_nodes=2))
    done = job.launch()

    def killer():
        for i in range(kills):
            yield sim.timeout(1.5)
            job.rank_procs[i % 4].node.crash("injected")

    sim.spawn(killer())
    results = sim.run(until=done)
    assert job.recovery_count == kills
    for rank, u in enumerate(results):
        assert np.array_equal(u, expected_bsp_state(rank, 4, 40))
    return job


@pytest.mark.parametrize("recovery", ["global", "logged", "replicated"])
def test_a_recovery_leaves_nothing_behind(recovery):
    # What a finished job still holds, after 2 recoveries and after 10:
    # counted at the end, when no message is in flight, the difference
    # is what each recovery left.  The ceiling is below the 4 objects a
    # recovery's released H1 and H2 rendezvous and their lists would
    # add if no later epoch dropped them.
    _killed_job(recovery, 2)  # what a first job sets up once
    base, _ = _objects_left_behind()
    job = _killed_job(recovery, 2)
    after_two, instances_two = _objects_left_behind()
    del job
    job = _killed_job(recovery, 10)
    after_ten, instances_ten = _objects_left_behind()
    assert (after_ten - after_two) / 8 < 2.5, (after_two - base,
                                               after_ten - base)
    # no macro instance waits on a consult that never comes (a dead
    # replica's, under replication)
    assert instances_ten <= instances_two, (instances_two, instances_ten)


def test_a_finished_global_rollback_leaves_no_dead_epoch_instance():
    # A survivor that calls a collective after ``begin_recovery``'s
    # reset, before its notification, opens an instance at the old
    # epoch that nobody completes.  Once every rank is back in H3 at
    # the new epoch, no rank can consult it: the rollback's completion
    # drops it (it held one, ``(1, 0, 'allreduce', 0)``, consulted by
    # ranks 0 and 3 only), and the old epoch's sequence counters.
    job = _killed_job("global", 2)
    macro = job.transport.macro
    assert macro._pending == {} and not macro._live
    assert macro._seq and all(key[0] == job.epoch for key in macro._seq), (
        job.epoch, list(macro._seq))
