"""Synthetic workloads + the failure-soak test: many random failures
over a long run, driven by a chaos-DSL Poisson (MTBF) rule, with a
verifiable state recurrence -- the strongest end-to-end evidence that
rollback never corrupts application state."""

import numpy as np
import pytest

from repro.apps.synthetic import (
    bsp_app,
    comm_storm_app,
    expected_bsp_state,
    imbalanced_app,
)
from repro.chaos import ChaosEngine, KillRandomSlot, Poisson, Rule, Scenario
from repro.chaos.__main__ import main as chaos_main
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.mpi.runtime import MpiJob
from repro.sched.__main__ import main as sched_main
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def make(num_nodes, seed=0):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))


# --------------------------------------------------------------- workloads
def test_bsp_state_recurrence_mpi():
    sim, machine = make(4)
    job = MpiJob(machine, bsp_app(6, work_s=0.01), nprocs=4, charge_init=False)
    results = sim.run(until=job.launch())
    for rank, u in enumerate(results):
        assert np.allclose(u, expected_bsp_state(rank, 4, 6)), rank


def test_bsp_state_recurrence_fmi():
    sim, machine = make(6)
    job = FmiJob(machine, bsp_app(6, work_s=0.01), num_ranks=4,
                 config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=0))
    results = sim.run(until=job.launch())
    for rank, u in enumerate(results):
        assert np.allclose(u, expected_bsp_state(rank, 4, 6)), rank


def test_imbalance_costs_stragglers():
    sim, machine = make(4)
    job = MpiJob(machine, imbalanced_app(10, base_work_s=0.05, skew=2.0),
                 nprocs=4, charge_init=False)
    results = sim.run(until=job.launch())
    # Everyone pays the slowest rank's 3x time per iteration.
    assert min(results) >= 10 * 0.05 * 3.0 * 0.99


def test_comm_storm_runs_and_times():
    sim, machine = make(4)
    job = MpiJob(machine, comm_storm_app(3, nbytes_per_peer=1e6),
                 nprocs=4, charge_init=False)
    results = sim.run(until=job.launch())
    # 3 peers x 1 MB through a 3.24 GB/s NIC: ~1 ms/round minimum.
    assert all(r > 0.9e-3 for r in results)


# --------------------------------------------------------------------- soak
@pytest.mark.parametrize("seed", [11, 23])
def test_fmi_soak_many_random_failures(seed):
    """~40 s simulated run at MTBF 6 s: several node crashes at random
    times (including, sometimes, during checkpoints and recoveries).
    The run must finish with the exact recurrence state."""
    iterations = 30
    sim, machine = make(30, seed=seed)  # deep node pool: crashed nodes
    # never reboot in the closed simulation, so the soak needs spares
    job = FmiJob(
        machine, bsp_app(iterations, work_s=0.4), num_ranks=16,
        procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=4,
                         level2_every=2),
    )
    done = job.launch()
    engine = ChaosEngine(machine, machine.rng.stream("soak"), [job])
    engine.arm(Scenario("soak", [Rule(Poisson(4.0), KillRandomSlot())]))
    done.callbacks.append(lambda _e: engine.disarm())
    results = sim.run(until=done)
    assert job.recovery_count >= 2, "soak too gentle; raise the rate"
    for rank, u in enumerate(results):
        assert np.allclose(u, expected_bsp_state(rank, 16, iterations)), (
            f"rank {rank} state corrupted after "
            f"{job.recovery_count} recoveries"
        )
    # The run made progress despite the storm.
    assert sim.now < 10 * iterations * 0.4


def test_fmi_soak_statistics_sane():
    iterations = 20
    sim, machine = make(30, seed=99)
    job = FmiJob(
        machine, bsp_app(iterations, work_s=0.4), num_ranks=16,
        procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=4,
                         level2_every=2),
    )
    done = job.launch()
    engine = ChaosEngine(machine, machine.rng.stream("soak2"), [job])
    engine.arm(Scenario("soak", [Rule(Poisson(8.0), KillRandomSlot())]))
    done.callbacks.append(lambda _e: engine.disarm())
    sim.run(until=done)
    # Every recovery that completed has a latency record.
    for epoch in range(1, job.recovery_count + 1):
        if epoch in job.recovered_at:
            lat = job.recovery_latency(epoch)
            assert lat is None or 0.0 < lat < 60.0
    assert job.checkpoints_done >= iterations  # >= one round per loop


# ------------------------------------------------------------ soak drivers
def test_the_soak_drivers_exit_clean_on_their_own_oracles(capsys):
    """Both soak CLIs end on their own checks -- the scheduler's
    ``check_invariants`` (bitwise per-tenant answers, no double
    booking, node conservation) and a chaos campaign's trace
    invariants -- and exit 0 only when all of them hold."""
    assert sched_main(["--seeds", "1", "--mtbf", "60"]) == 0
    assert chaos_main(["--campaign", "lossy-links", "--seed-list", "0"]) == 0
    out = capsys.readouterr().out
    assert "soak: 1/1 seeds clean" in out
    assert "all invariants green across 1 runs" in out
