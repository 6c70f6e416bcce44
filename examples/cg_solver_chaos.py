#!/usr/bin/env python
"""Conjugate gradient under chaos engineering.

Solves the same SPD linear system three times on a simulated cluster:

1. failure-free, for the reference solution;
2. with one graceful node *drain* mid-solve (planned maintenance:
   ranks migrate, the healthy node returns to the pool);
3. with a random crash *storm* (MTBF ~ a few seconds) plus level-2
   PFS checkpoints, so even same-XOR-group double failures survive.

All three produce the bit-identical solution; each run's trace report
(``repro.obs.summary``) shows what the disruption cost.

Run:  python examples/cg_solver_chaos.py
"""

import numpy as np

from repro.apps.cg import cg_fmi_app, make_spd_problem
from repro.chaos import ChaosEngine, KillRandomSlot, Poisson, Rule, Scenario
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.obs import Tracer
from repro.obs.summary import report
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

N, ITERS = 32, 24
NRANKS, PPN = 8, 2


def launch(machine, level2=False, spares=1):
    return FmiJob(
        machine,
        cg_fmi_app(N, ITERS, extra_work_s=0.4),
        num_ranks=NRANKS,
        procs_per_node=PPN,
        config=FmiConfig(
            interval=1, xor_group_size=4, spare_nodes=spares,
            level2_every=2 if level2 else None,
        ),
    )


def run_clean():
    sim = Simulator()
    Tracer(sim)
    machine = Machine(sim, SIERRA.with_nodes(8), RngRegistry(1))
    job = launch(machine, spares=0)
    x = sim.run(until=job.launch())[0]
    return x, job


def run_with_drain():
    sim = Simulator()
    Tracer(sim)
    machine = Machine(sim, SIERRA.with_nodes(8), RngRegistry(2))
    job = launch(machine)

    def maintenance():
        yield sim.timeout(4.0)
        print(f"  [t={sim.now:.2f}s] draining node "
              f"{job.fmirun.node_slots[1].id} for maintenance")
        job.fmirun.drain_slot(1)

    done = job.launch()
    sim.spawn(maintenance())
    x = sim.run(until=done)[0]
    return x, job


def run_with_storm():
    sim = Simulator()
    Tracer(sim)
    machine = Machine(sim, SIERRA.with_nodes(20), RngRegistry(3))
    job = launch(machine, level2=True, spares=3)
    done = job.launch()
    engine = ChaosEngine(machine, machine.rng.stream("storm"), [job])
    engine.arm(Scenario("storm", [Rule(Poisson(5.0), KillRandomSlot())]))
    done.callbacks.append(lambda _e: engine.disarm())
    x = sim.run(until=done)[0]
    return x, job


def show(title, job):
    print(f"#### {title}")
    print(report(job.sim.tracer))
    print(f"level-2 flushes / restores: "
          f"{job.level2_flushes} / {job.level2_restores}")
    print()


def main():
    _a, _b, x_true = make_spd_problem(N)

    x_clean, job_clean = run_clean()
    show("1) failure-free", job_clean)

    x_drain, job_drain = run_with_drain()
    show("2) graceful drain mid-solve", job_drain)

    x_storm, job_storm = run_with_storm()
    show("3) crash storm (MTBF 5s, multilevel C/R)", job_storm)

    assert np.array_equal(x_clean, x_drain)
    assert np.array_equal(x_clean, x_storm)
    assert np.allclose(x_clean, x_true, atol=1e-6)
    print("all three solutions are bit-identical and correct "
          f"(|x - x_true| <= {np.abs(x_clean - x_true).max():.2e})")


if __name__ == "__main__":
    main()
