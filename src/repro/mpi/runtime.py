"""MPI job launch and the fail-stop model.

An :class:`MpiJob` spawns one process per rank (block placement,
``procs_per_node`` ranks per node), charges the modelled ``MPI_Init``
cost through a PMGR rendezvous, and then runs the application.  If
*any* rank dies -- a node crash, an injected kill, an uncaught
exception -- the whole job is torn down (every surviving rank killed)
and the job event fails with :class:`JobAborted`.  That is MPI's
fail-stop contract, the thing FMI exists to avoid.

The launch machinery (allocation, context table, rank spawning, abort)
lives in :mod:`repro.runtime`; this module is only the MPI-specific
glue: the :class:`~repro.runtime.policy.FailStop` policy plus a rank
body that runs ``MPI_Init`` and hands the application an
:class:`~repro.mpi.api.MpiApi`.

:class:`MpiRestartDriver` is the ``mpirun``-in-a-batch-script loop of
traditional C/R: relaunch the job after each abort (replacing dead
nodes through the resource manager, keeping rank→node placement stable
so SCR finds its node-local checkpoints), paying the job relaunch
latency and a fresh ``MPI_Init`` every time.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.mpi.api import MpiApi
from repro.runtime.core import JobAborted, JobBase, RankProcess
from repro.runtime.policy import FailStop

__all__ = ["MpiJob", "JobAborted", "MpiRestartDriver"]

AppFactory = Callable[[MpiApi], Any]  # callable(api) -> generator


class MpiRankProcess(RankProcess):
    """One MPI rank: boot, ``MPI_Init`` rendezvous, run the app."""

    def __init__(self, job: "MpiJob", rank: int, node: Node, rendezvous):
        self.rendezvous = rendezvous
        super().__init__(job, rank, node)

    def _main(self):
        job = self.job
        yield self.sim.timeout(job.boot_latency)
        yield self.rendezvous.arrive()  # MPI_Init
        if self.rank == 0:
            job.init_done_at = self.sim.now
        api = MpiApi(job.transport, self.ctx, self.rank, job.num_ranks,
                     job.addr_table)
        api.job = job  # SCR & apps reach machine-level services through this
        result = yield from job.app(api)
        return result


class MpiJob(JobBase):
    """One launch of an MPI application (one ``srun``/``mpirun``)."""

    def __init__(
        self,
        machine: Machine,
        app: AppFactory,
        nprocs: int,
        procs_per_node: int = 1,
        nodes: Optional[List[Node]] = None,
        charge_init: bool = True,
        name: str = "mpi",
        alloc=None,
        job_id: Optional[str] = None,
    ):
        super().__init__(
            machine, app, nprocs, procs_per_node,
            policy=FailStop(nodes=nodes, charge_init=charge_init),
            name=name,
            sw_overhead=machine.spec.network.sw_overhead_mpi,
            alloc=alloc, job_id=job_id,
        )

    # -- rank factory ---------------------------------------------------------
    def make_rank_process(self, rank: int, node: Node, rendezvous=None,
                          **kwargs) -> MpiRankProcess:
        return MpiRankProcess(self, rank, node, rendezvous)


class MpiRestartDriver:
    """Traditional C/R execution: relaunch the fail-stop job until the
    application completes.

    Keeps rank→node placement stable across restarts so SCR's
    node-local (tmpfs) checkpoints are where the ranks expect them;
    dead nodes are replaced through the resource manager and their
    ranks rebuild from the XOR group.
    """

    def __init__(
        self,
        machine: Machine,
        app: AppFactory,
        nprocs: int,
        procs_per_node: int = 1,
        max_restarts: Optional[int] = None,
        name: str = "mpirun",
    ):
        self.machine = machine
        self.sim = machine.sim
        self.app = app
        self.nprocs = nprocs
        self.ppn = procs_per_node
        self.max_restarts = max_restarts
        self.name = name
        self.restarts = 0
        self.num_nodes = nprocs // procs_per_node
        self.jobs: List[MpiJob] = []

    def run(self):
        """Generator: drive launches until success; returns rank results."""
        alloc = self.machine.rm.allocate(self.num_nodes)
        nodes = list(alloc.nodes)
        try:
            while True:
                # Replace dead nodes, keeping slot positions stable.
                # grow() keeps the replacements owned by the allocation
                # so the final release returns them to the pool.
                for i, node in enumerate(nodes):
                    if not node.alive:
                        nodes[i] = yield alloc.grow()
                job = MpiJob(
                    self.machine, self.app, self.nprocs, self.ppn,
                    nodes=nodes, name=f"{self.name}#{self.restarts}",
                )
                self.jobs.append(job)
                try:
                    results = yield job.launch()
                    return results
                except JobAborted:
                    self.restarts += 1
                    if (
                        self.max_restarts is not None
                        and self.restarts > self.max_restarts
                    ):
                        raise
                    # Scheduler tear-down + re-submission latency.
                    yield self.sim.timeout(self.machine.spec.job_relaunch_latency)
        finally:
            alloc.release()
