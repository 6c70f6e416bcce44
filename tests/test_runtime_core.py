"""The shared runtime core: both launch stacks on one chassis.

MpiJob and FmiJob are the same :class:`~repro.runtime.core.JobBase`
machinery behind different :class:`~repro.runtime.core.FaultPolicy`
strategies -- these tests pin that contract, plus the error paths of
fmirun's graceful drain.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.runtime import Fmirun
from repro.mpi.runtime import FailStop, MpiJob
from repro.runtime import FaultPolicy, JobBase, RankProcess
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def make(num_nodes=12, seed=0):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))


def fmi_app(num_loops, work=0.4):
    def app(fmi):
        u = np.zeros(4, dtype=np.float64)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= num_loops:
                break
            yield fmi.elapse(work)
            u[0] = n + 1.0
        yield from fmi.finalize()
        return u.copy()

    return app


def launch_fmi(sim, machine, num_loops=6, work=0.4, spares=1):
    job = FmiJob(
        machine, fmi_app(num_loops, work), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=spares),
    )
    return job, job.launch()


# --------------------------------------------------------- shared machinery
def test_both_stacks_share_the_runtime_core():
    sim, machine = make()

    def mpi_app(mpi):
        yield mpi.elapse(0.1)
        return mpi.rank

    mpi_job = MpiJob(machine, mpi_app, nprocs=8, procs_per_node=2,
                     charge_init=False)
    fmi_job = FmiJob(machine, fmi_app(1, work=0.1), num_ranks=8,
                     procs_per_node=2,
                     config=FmiConfig(interval=1, xor_group_size=2))

    # One chassis, two fault policies.
    assert isinstance(mpi_job, JobBase) and isinstance(fmi_job, JobBase)
    assert isinstance(mpi_job.policy, FailStop)
    assert isinstance(fmi_job.policy, FaultPolicy)
    assert fmi_job.fmirun is fmi_job.policy
    assert isinstance(fmi_job.fmirun, Fmirun)

    done_mpi = mpi_job.launch()
    done_fmi = fmi_job.launch()
    sim.run(until=done_mpi)
    sim.run(until=done_fmi)

    # Both stacks fill the same blackboard: rank processes and the
    # virtual-rank endpoint table.
    for job in (mpi_job, fmi_job):
        assert sorted(job.rank_procs) == list(range(8))
        assert all(isinstance(rp, RankProcess) for rp in job.rank_procs.values())
        assert sorted(job.addr_table) == list(range(8))
        assert job.finished


def test_double_launch_rejected():
    sim, machine = make()

    def app(mpi):
        yield mpi.elapse(0.1)

    job = MpiJob(machine, app, nprocs=4, charge_init=False)
    done = job.launch()
    with pytest.raises(RuntimeError, match="already launched"):
        job.launch()
    sim.run(until=done)


def test_geometry_validation_shared():
    sim, machine = make()
    with pytest.raises(ValueError):
        FmiJob(machine, fmi_app(1), num_ranks=5, procs_per_node=2)
    with pytest.raises(ValueError):
        MpiJob(machine, lambda api: iter(()), nprocs=5, procs_per_node=2)


def test_failstop_failed_bind_releases_allocation():
    # Regression: when bind raised "not enough nodes" while an
    # srun-style allocation was held, the nodes were never returned to
    # the resource manager.
    sim, machine = make(num_nodes=6)
    idle0 = machine.rm.idle_count

    def app(mpi):
        yield mpi.elapse(0.1)

    policy = FailStop(charge_init=False)
    JobBase(machine, app, num_ranks=4, procs_per_node=2, policy=policy,
            name="a")
    assert machine.rm.idle_count == idle0 - 2
    # Re-binding the (single-use) policy to a bigger job fails while the
    # first bind's allocation is still held; the error path must give
    # those nodes back instead of leaking them.
    with pytest.raises(ValueError, match="not enough nodes"):
        JobBase(machine, app, num_ranks=8, procs_per_node=1,
                policy=policy, name="b")
    assert machine.rm.idle_count == idle0


# -------------------------------------------------------- drain error paths
def test_drain_finished_job_rejected():
    sim, machine = make()
    job, done = launch_fmi(sim, machine, num_loops=2)
    sim.run(until=done)
    with pytest.raises(RuntimeError, match="finished"):
        job.fmirun.drain_slot(0)


def test_drain_dead_node_rejected():
    sim, machine = make(seed=1)
    job, done = launch_fmi(sim, machine)
    checked = {}

    def driver():
        yield sim.timeout(1.0)
        # Crash the node and drain in the same instant: the task has
        # not observed the failure yet, but the node is already dead.
        job.fmirun.node_slots[5].crash("dead-node")
        try:
            job.fmirun.drain_slot(5)
        except RuntimeError as exc:
            checked["error"] = str(exc)

    sim.spawn(driver())
    sim.run(until=done)
    assert "not drainable" in checked["error"]


def test_drain_already_failed_task_rejected():
    sim, machine = make(seed=2)
    job, done = launch_fmi(sim, machine)
    checked = {}

    def driver():
        yield sim.timeout(1.0)
        job.fmirun.node_slots[3].crash("fail-first")
        # 10 ms later the replacement node is picked but the failed
        # task has not been re-spawned yet (spawn latency is 20 ms):
        # the slot holds a live node and a dead task.
        yield sim.timeout(0.01)
        assert job.fmirun.tasks[3].failed
        assert job.fmirun.node_slots[3].alive
        try:
            job.fmirun.drain_slot(3)
        except RuntimeError as exc:
            checked["error"] = str(exc)

    sim.spawn(driver())
    sim.run(until=done)
    assert "not drainable" in checked["error"]
