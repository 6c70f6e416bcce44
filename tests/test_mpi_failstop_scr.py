"""MPI fail-stop semantics, the restart driver, and SCR."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.mpi.runtime import JobAborted, MpiJob, MpiRestartDriver
from repro.mpi.scr import Scr
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def make(num_nodes=8, seed=0):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))


# ------------------------------------------------------------------ fail-stop
def test_node_crash_aborts_whole_job():
    sim, machine = make()

    def app(mpi):
        yield mpi.elapse(100.0)
        return "done"

    job = MpiJob(machine, app, nprocs=8, procs_per_node=2, charge_init=False)
    done = job.launch()

    def killer():
        yield sim.timeout(5.0)
        machine.node(1).crash("hw")

    sim.spawn(killer())
    with pytest.raises(JobAborted):
        sim.run(until=done)
    # Fail-stop: every rank process is dead, not just node 1's.
    assert all(not rp.proc.alive for rp in job.rank_procs.values())
    assert sim.now < 100.0


def test_rank_exception_aborts_job():
    def app(mpi):
        yield mpi.elapse(1.0)
        if mpi.rank == 2:
            raise ValueError("app bug")
        yield mpi.elapse(100.0)

    sim, machine = make()
    job = MpiJob(machine, app, nprocs=4, charge_init=False)
    with pytest.raises(JobAborted):
        sim.run(until=job.launch())


def test_mpi_init_cost_charged():
    def app(mpi):
        return mpi.now
        yield  # pragma: no cover

    sim, machine = make()
    job = MpiJob(machine, app, nprocs=8, procs_per_node=2, charge_init=True)
    results = sim.run(until=job.launch())
    expected = machine.spec.mpi_init_time(8)
    assert job.init_done_at >= expected
    assert all(t >= expected for t in results)


def test_own_allocation_released_on_completion():
    def app(mpi):
        yield mpi.elapse(1.0)

    sim, machine = make()
    assert machine.rm.idle_count == 8
    job = MpiJob(machine, app, nprocs=4, procs_per_node=1)
    sim.run(until=job.launch())
    assert machine.rm.idle_count == 8


def test_job_validation():
    sim, machine = make()
    with pytest.raises(ValueError):
        MpiJob(machine, lambda api: iter(()), nprocs=5, procs_per_node=2)
    with pytest.raises(ValueError):
        MpiJob(machine, lambda api: iter(()), nprocs=0)


# ------------------------------------------------------------- restart driver
def make_scr_app(num_loops, work, record):
    """Traditional C/R app: restart from SCR, loop, checkpoint each
    iteration."""

    def app(mpi):
        scr = Scr(mpi, procs_per_node=2, group_size=4, interval=1)
        u = np.zeros(8, dtype=np.float64)
        start = 0
        found = yield from scr.restart()
        if found is not None:
            dataset_id, payloads = found
            yield from scr.restore_into([u], payloads)
            start = dataset_id + 1
        record.append((mpi.rank, "start", start))
        for n in range(start, num_loops):
            yield mpi.elapse(work)
            u[0] = n + 1.0
            total = yield from mpi.allreduce(float(n))
            u[1] = total
            yield from scr.checkpoint([u], dataset_id=n)
        yield from mpi.barrier()
        return u.copy()

    return app


def test_restart_driver_completes_without_failures():
    sim, machine = make(10)
    record = []
    driver = MpiRestartDriver(
        machine, make_scr_app(4, 0.1, record), nprocs=8, procs_per_node=2
    )
    proc = sim.spawn(driver.run())
    sim.run()
    results = proc.value
    assert driver.restarts == 0
    for u in results:
        assert u[0] == 4.0


def test_restart_driver_recovers_from_node_crash():
    sim, machine = make(10, seed=1)
    record = []
    driver = MpiRestartDriver(
        machine, make_scr_app(6, 0.5, record), nprocs=8, procs_per_node=2
    )
    proc = sim.spawn(driver.run())

    def killer():
        # Crash a node of the first job's allocation mid-run.
        yield sim.timeout(machine.spec.mpi_init_time(8) + 1.5)
        node = driver.jobs[0].nodes[1]
        node.crash("injected")

    sim.spawn(killer())
    sim.run()
    results = proc.value
    assert driver.restarts == 1
    for u in results:
        assert u[0] == 6.0
    # Second attempt resumed from a checkpoint, not from scratch.
    starts = [s for r, tag, s in record if tag == "start"]
    assert max(starts) > 0
    # The replaced node's ranks rebuilt their files from the XOR group:
    # they also resumed from the same dataset (group-consistent).
    assert len({s for s in starts[8:]}) == 1


# ------------------------------------------------------------------------ SCR
def test_scr_rejects_what_fmi_loop_rejects():
    """SCR packs and copies in through the routines FMI_Loop uses, so a
    non-array buffer, a wrong buffer count and a wrong buffer size are
    the same TypeError / ValueError -- not a NumPy broadcast error, and
    not a 1-byte payload silently filling the array."""
    sim, machine = make(10)

    def app(mpi):
        scr = Scr(mpi, procs_per_node=2, group_size=4, interval=1)
        with pytest.raises(TypeError, match="numpy arrays or Payloads"):
            yield from scr.checkpoint([[1.0, 2.0]], dataset_id=0)
        yield from scr.checkpoint(
            [np.full(1, mpi.rank, dtype=np.uint8), np.zeros(4)], dataset_id=0
        )
        _ds, payloads = yield from scr.restart()
        with pytest.raises(ValueError, match="2 buffers, app passed 1"):
            yield from scr.restore_into([np.zeros(1, dtype=np.uint8)], payloads)
        wide = np.full(16, 7.0)
        with pytest.raises(ValueError, match="shape mismatch"):
            yield from scr.restore_into([wide, np.zeros(4)], payloads)
        assert (wide == 7.0).all()  # the 1-byte payload was not broadcast
        return "checked"

    job = MpiJob(machine, app, nprocs=8, procs_per_node=2, charge_init=False)
    assert sim.run(until=job.launch()) == ["checked"] * 8


def test_scr_vaidya_mtbf_mode_sets_interval():
    sim, machine = make(10)
    intervals = {}

    def app(mpi):
        scr = Scr(mpi, procs_per_node=2, group_size=4, mtbf_seconds=60.0)
        u = np.zeros(1024, dtype=np.float64)
        # the first call always checkpoints
        assert (yield from scr.need_checkpoint_collective())
        yield from scr.checkpoint([u], dataset_id=0)
        intervals[mpi.rank] = scr.policy.time_interval
        return None

    job = MpiJob(machine, app, nprocs=8, procs_per_node=2, charge_init=False)
    sim.run(until=job.launch())
    assert all(iv is not None and iv > 0 for iv in intervals.values())


def test_scr_tmpfs_cost_exceeds_fmi_memcpy():
    """The SCR filesystem detour must be slower than FMI's raw memcpy
    for the same data -- the mechanism behind Fig 15's 10.3 % gap."""
    from repro.fmi.checkpoint import MemoryStorage, TmpfsStorage
    from repro.fmi.payload import Payload

    sim, machine = make(2)
    node = machine.node(0)
    p = Payload.synthetic(800e6, seed=0)

    def timed(storage):
        t0 = sim.now

        def run():
            yield from storage.store("k", p)

        proc = sim.spawn(run())
        sim.run(until=proc)
        return sim.now - t0

    t_mem = timed(MemoryStorage(node))
    t_fs = timed(TmpfsStorage(node, "x"))
    assert t_fs > t_mem * 2
