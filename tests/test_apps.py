"""Ping-pong and Himeno applications on both runtimes."""

import numpy as np
import pytest

from repro.apps.himeno import HimenoParams, himeno_fmi_app, himeno_mpi_app, jacobi_step
from repro.apps.pingpong import pingpong_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.mpi.runtime import MpiJob
from repro.mpi.scr import Scr
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def make(num_nodes=8, seed=0):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))


# ------------------------------------------------------------------ ping-pong
def test_pingpong_mpi_latency_matches_table3():
    sim, machine = make(2)
    job = MpiJob(machine, pingpong_app(1.0), nprocs=2, charge_init=False)
    results = sim.run(until=job.launch())
    latency, _bw = results[0]
    assert latency == pytest.approx(3.555e-6, rel=0.02)


def test_pingpong_fmi_latency_matches_table3():
    sim, machine = make(3)
    job = FmiJob(
        machine, pingpong_app(1.0), num_ranks=2,
        config=FmiConfig(xor_group_size=2, spare_nodes=0),
    )
    results = sim.run(until=job.launch())
    latency, _bw = results[0]
    assert latency == pytest.approx(3.573e-6, rel=0.02)


def test_pingpong_bandwidth_8mb_matches_table3():
    sim, machine = make(2)
    nbytes = 8 * 1024 * 1024
    job = MpiJob(machine, pingpong_app(nbytes, iterations=20), nprocs=2,
                 charge_init=False)
    results = sim.run(until=job.launch())
    _lat, bw = results[0]
    assert bw == pytest.approx(3.227e9, rel=0.02)


def test_pingpong_fmi_slightly_slower_than_mpi():
    # Table III: FMI 1-byte latency 3.573 us vs MPI 3.555 us.
    sim1, m1 = make(2)
    job1 = MpiJob(m1, pingpong_app(1.0), nprocs=2, charge_init=False)
    lat_mpi = sim1.run(until=job1.launch())[0][0]
    sim2, m2 = make(3)
    job2 = FmiJob(m2, pingpong_app(1.0), num_ranks=2,
                  config=FmiConfig(xor_group_size=2, spare_nodes=0))
    lat_fmi = sim2.run(until=job2.launch())[0][0]
    assert lat_mpi < lat_fmi < lat_mpi * 1.02


def test_pingpong_validation():
    with pytest.raises(ValueError):
        pingpong_app(0.0)


# -------------------------------------------------------------------- kernel
def test_jacobi_step_reduces_residual():
    rng = np.random.default_rng(0)
    shape = (10, 8, 8)
    rhs = rng.normal(scale=1e-3, size=shape)
    u = np.zeros(shape)
    prev = None
    for _ in range(30):
        new = jacobi_step(u, rhs)
        res = float(np.sum((new[1:-1] - u[1:-1]) ** 2))
        u = new
        if prev is not None:
            assert res < prev * 1.01
        prev = res
    assert prev < 1e-4


# ---------------------------------------------------------------- Himeno real
def himeno_params(iters=5):
    return HimenoParams(iterations=iters, nx=8, ny=8, nz=16)


def test_himeno_mpi_converges():
    sim, machine = make(4)
    job = MpiJob(machine, himeno_mpi_app(himeno_params()), nprocs=4,
                 charge_init=False)
    results = sim.run(until=job.launch())
    res = results[0]["residuals"]
    assert len(res) == 5
    assert res[-1] < res[0]
    # Residual is a global allreduce: identical on every rank.
    assert all(r["residuals"] == res for r in results)


def test_himeno_fmi_matches_mpi_bit_exact():
    sim1, m1 = make(4)
    job1 = MpiJob(m1, himeno_mpi_app(himeno_params()), nprocs=4,
                  charge_init=False)
    mpi_out = sim1.run(until=job1.launch())

    sim2, m2 = make(6)
    job2 = FmiJob(m2, himeno_fmi_app(himeno_params()), num_ranks=4,
                  config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=0))
    fmi_out = sim2.run(until=job2.launch())

    for a, b in zip(mpi_out, fmi_out):
        assert a["field_sum"] == pytest.approx(b["field_sum"], rel=1e-12)
        assert a["residuals"] == pytest.approx(b["residuals"], rel=1e-12)


def test_himeno_fmi_survives_failure_same_answer():
    """The headline property: the answer with a mid-run node crash is
    bit-identical to the failure-free answer."""
    params = HimenoParams(iterations=6, nx=8, ny=8, nz=16, extra_work_s=0.4)

    sim1, m1 = make(6, seed=1)
    job1 = FmiJob(m1, himeno_fmi_app(params), num_ranks=4,
                  config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=0))
    clean = sim1.run(until=job1.launch())

    sim2, m2 = make(6, seed=2)
    job2 = FmiJob(m2, himeno_fmi_app(params), num_ranks=4,
                  config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1))
    done = job2.launch()

    def killer():
        yield sim2.timeout(0.7)
        m2.node(2).crash("injected")

    sim2.spawn(killer())
    faulty = sim2.run(until=done)
    assert job2.recovery_count == 1
    for a, b in zip(clean, faulty):
        assert a["field_sum"] == b["field_sum"]
        assert a["residuals"][-1] == b["residuals"][-1]


def test_himeno_mpi_scr_restart_resumes():
    from repro.mpi.runtime import MpiRestartDriver

    params = HimenoParams(iterations=6, nx=8, ny=8, nz=16, extra_work_s=0.4)
    sim, machine = make(6, seed=3)

    def scr_factory(api):
        return Scr(api, procs_per_node=1, group_size=4, interval=1)

    driver = MpiRestartDriver(
        machine, himeno_mpi_app(params, scr_factory), nprocs=4, procs_per_node=1
    )
    proc = sim.spawn(driver.run())

    def killer():
        yield sim.timeout(machine.spec.mpi_init_time(4) + 0.8)
        driver.jobs[0].nodes[1].crash("x")

    sim.spawn(killer())
    sim.run()
    results = proc.value
    assert driver.restarts == 1
    # Converged result matches a failure-free FMI run of the same problem.
    sim2, m2 = make(6)
    ref_job = MpiJob(m2, himeno_mpi_app(params), nprocs=4, charge_init=False)
    ref = sim2.run(until=ref_job.launch())
    assert results[0]["field_sum"] == pytest.approx(ref[0]["field_sum"], rel=1e-12)


# ------------------------------------------------------------ Himeno synthetic
def test_himeno_synthetic_mode_scales_time_with_flops():
    params = HimenoParams(iterations=3, synthetic=True,
                          points_per_rank=1e6, halo_bytes=1e4, ckpt_bytes=1e6)
    sim, machine = make(4)
    job = MpiJob(machine, himeno_mpi_app(params), nprocs=4, charge_init=False)
    results = sim.run(until=job.launch())
    # 3 iterations x 1e6 points x 34 flops / 1.37 GF/s ~= 0.0745 s
    expected = 3 * 1e6 * 34.0 / machine.spec.node.core_flops
    assert sim.now >= expected
    assert results[0]["points"] == pytest.approx(3e6)


def test_himeno_synthetic_fmi_with_failure():
    params = HimenoParams(iterations=5, synthetic=True,
                          points_per_rank=5e7, halo_bytes=1e5, ckpt_bytes=5e7)
    sim, machine = make(10, seed=4)
    job = FmiJob(machine, himeno_fmi_app(params), num_ranks=8, procs_per_node=2,
                 config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1))
    done = job.launch()

    def killer():
        yield sim.timeout(2.5)
        machine.node(1).crash("boom")

    sim.spawn(killer())
    results = sim.run(until=done)
    assert job.recovery_count == 1
    # Replacement ranks restart counting from the restored iteration,
    # so points vary; everyone must have made real progress though.
    assert all(r["points"] > 0 for r in results)
