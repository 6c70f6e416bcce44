"""Fig 14 -- MPI_Init vs FMI_Init.

FMI_Init = PMGR bootstrapping (H1) + log-ring overlay build (H2);
the baseline is MVAPICH2's MPI_Init under SLURM.  The paper's shape:
FMI's bootstrap is about 2x faster than MVAPICH2, and the log-ring
build is a small logarithmic addition.
"""

import numpy as np
import pytest

from _harness import PROC_COUNTS, PROCS_PER_NODE, make_machine, nodes_for
from repro.analysis.tables import Table
from repro.fmi import FmiConfig, FmiJob
from repro.mpi.runtime import MpiJob


def trivial_fmi(fmi):
    yield from fmi.init()
    yield from fmi.finalize()


def trivial_mpi(mpi):
    yield from mpi.barrier()


def measure(nprocs: int):
    # MPI_Init (MVAPICH2/SLURM model).
    sim, machine = make_machine(nodes_for(nprocs), seed=1)
    job = MpiJob(machine, trivial_mpi, nprocs, procs_per_node=PROCS_PER_NODE)
    sim.run(until=job.launch())
    spawn = machine.spec.proc_spawn_latency + machine.spec.exec_load_latency
    mpi_init = job.init_done_at - job.launched_at - spawn

    # FMI_Init = H1 + H2.
    sim, machine = make_machine(nodes_for(nprocs), seed=2)
    fjob = FmiJob(
        machine, trivial_fmi, num_ranks=nprocs, procs_per_node=PROCS_PER_NODE,
        config=FmiConfig(xor_group_size=4, spare_nodes=0,
                         checkpoint_enabled=False),
    )
    sim.run(until=fjob.launch())
    h1_done = fjob._rdv["H1", 0].released_at
    h2_done = fjob.recovered_at[0]
    bootstrap = h1_done - fjob.launched_at - spawn
    logring = h2_done - h1_done
    return mpi_init, bootstrap, logring


def run_sweep():
    return {n: measure(n) for n in PROC_COUNTS}


def test_fig14_init_time(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = Table(
        "Fig 14: MPI_Init vs FMI_Init (bootstrap + log-ring)",
        ["Procs", "SLURM/MVAPICH2 (s)", "FMI bootstrap (s)", "log-ring (s)",
         "FMI total (s)", "speedup"],
    )
    for nprocs, (mpi_init, bootstrap, logring) in out.items():
        fmi_total = bootstrap + logring
        table.add(nprocs, round(mpi_init, 3), round(bootstrap, 3),
                  round(logring, 3), round(fmi_total, 3),
                  round(mpi_init / fmi_total, 2))
        # "The FMI bootstrapping time (H1 state) is about two times
        # faster than that of MVAPICH2" (Section VI-A).
        assert 1.5 < mpi_init / bootstrap < 2.6, nprocs
        # Even with the log-ring build added, FMI_Init wins clearly.
        assert mpi_init / fmi_total > 1.25, nprocs
        # The log-ring build is small and logarithmic.
        assert logring < 0.5
    table.show()
    # Both grow with scale.
    series = list(out.values())
    assert series[-1][0] > series[0][0]
    assert series[-1][1] > series[0][1]
