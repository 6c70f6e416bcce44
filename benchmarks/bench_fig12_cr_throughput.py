"""Fig 12 -- checkpoint/restart throughput vs number of processes.

6 GB/node split over 12 processes/node, XOR group of up to 16 nodes.
The paper's point: aggregate throughput grows linearly with node count
(per-node throughput constant, ~2.4 GB/s checkpoint and ~1.3 GB/s
restart) because the XOR C/R cost is independent of the total process
count.
"""

import pytest

from _harness import FULL, PROCS_PER_NODE, make_machine
from repro.analysis.tables import Table
from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage
from repro.fmi.payload import Payload
from repro.fmi.redundancy import make_scheme
from repro.fmi.xor_group import XorGroupLayout
from repro.mpi.communicator import Communicator
from repro.mpi.runtime import MpiJob

BYTES_PER_NODE = 6e9
BYTES_PER_RANK = BYTES_PER_NODE / PROCS_PER_NODE
PROC_COUNTS = [48, 96, 192, 384, 768, 1536] if FULL else [48, 96, 192, 384]

PAPER_CKPT_PER_NODE = 2.4e9
PAPER_RESTART_PER_NODE = 1.3e9


def measure(nprocs: int):
    num_nodes = nprocs // PROCS_PER_NODE
    group = min(16, num_nodes)
    sim, machine = make_machine(num_nodes, seed=nprocs)
    layout = XorGroupLayout(nprocs, PROCS_PER_NODE, group)
    ckpt_times = {}
    restart_times = {}

    def app(api):
        gid = layout.group_of(api.rank)
        comm = Communicator(api, (1 << 28) + gid, layout.members(gid))
        storage = MemoryStorage(api.node)
        engine = CheckpointEngine(comm, storage, api.memcpy,
                                  scheme=make_scheme("xor"))
        payload = Payload.synthetic(BYTES_PER_RANK, seed=api.rank, rep_bytes=32)
        yield from api.barrier()
        t0 = api.now
        yield from engine.checkpoint([payload], dataset_id=0)
        yield from api.barrier()
        ckpt_times[api.rank] = api.now - t0
        # One rank per node-slot 0 loses its checkpoint (a whole node's
        # worth of replacements would double-load the gather; the paper
        # restarts the failed node's processes -- group-local view is
        # one lost member per group).
        if layout.node_of(api.rank) == 0:
            storage.clear()
        yield from api.barrier()
        t1 = api.now
        yield from engine.restore()
        yield from api.barrier()
        restart_times[api.rank] = api.now - t1

    job = MpiJob(machine, app, nprocs, procs_per_node=PROCS_PER_NODE,
                 charge_init=False)
    sim.run(until=job.launch())
    total = BYTES_PER_RANK * nprocs
    return (total / max(ckpt_times.values()), total / max(restart_times.values()),
            num_nodes)


def run_sweep():
    return {n: measure(n) for n in PROC_COUNTS}


def test_fig12_cr_throughput(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = Table(
        "Fig 12: C/R throughput, 6 GB/node, 12 procs/node, XOR group <=16",
        ["Procs", "Nodes", "ckpt GB/s", "ckpt GB/s/node", "restart GB/s",
         "restart GB/s/node"],
    )
    per_node_ckpt = {}
    per_node_restart = {}
    for nprocs, (ckpt_bw, restart_bw, nodes) in out.items():
        per_node_ckpt[nprocs] = ckpt_bw / nodes
        per_node_restart[nprocs] = restart_bw / nodes
        table.add(nprocs, nodes, round(ckpt_bw / 1e9, 1),
                  round(ckpt_bw / nodes / 1e9, 2), round(restart_bw / 1e9, 1),
                  round(restart_bw / nodes / 1e9, 2))
    table.show()
    print(f"paper: ~{PAPER_CKPT_PER_NODE/1e9} GB/s/node checkpoint, "
          f"~{PAPER_RESTART_PER_NODE/1e9} GB/s/node restart")
    # Shape assertions: scalability = per-node throughput roughly flat
    # across a 8-32x range of process counts (compare at group size 16,
    # i.e. from 192 procs up, where the group geometry is constant).
    ref = per_node_ckpt[192]
    for nprocs in PROC_COUNTS:
        if nprocs >= 192:
            assert per_node_ckpt[nprocs] == pytest.approx(ref, rel=0.15)
    # Magnitudes in the paper's ballpark.
    biggest = PROC_COUNTS[-1]
    assert per_node_ckpt[biggest] == pytest.approx(PAPER_CKPT_PER_NODE, rel=0.35)
    assert per_node_restart[biggest] == pytest.approx(PAPER_RESTART_PER_NODE, rel=0.45)
    # Restart is slower than checkpoint (the gather stage).
    for nprocs in PROC_COUNTS:
        assert per_node_restart[nprocs] < per_node_ckpt[nprocs]
