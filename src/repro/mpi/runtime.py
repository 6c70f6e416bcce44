"""MPI job launch and the fail-stop model.

An :class:`MpiJob` spawns one process per rank (block placement,
``procs_per_node`` ranks per node), charges the modelled ``MPI_Init``
cost through a PMGR rendezvous, and then runs the application.  If
*any* rank dies -- a node crash, an injected kill, an uncaught
exception -- the whole job is torn down (every surviving rank killed)
and the job event fails with :class:`JobAborted`.  That is MPI's
fail-stop contract, the thing FMI exists to avoid.

The launch chassis (context table, result collection, abort) lives in
:mod:`repro.runtime`; this module is the MPI-specific rest: the
:class:`FailStop` policy (srun-style allocation, one launch, abort on
the first death) plus a rank body that runs ``MPI_Init`` and hands the
application an :class:`~repro.mpi.api.MpiApi`.

:class:`MpiRestartDriver` is the ``mpirun``-in-a-batch-script loop of
traditional C/R: relaunch the job after each abort (replacing dead
nodes through the resource manager, keeping rank→node placement stable
so SCR finds its node-local checkpoints), paying the job relaunch
latency and a fresh ``MPI_Init`` every time.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, List, Optional

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.mpi.api import MpiApi
from repro.net.pmgr import PmgrRendezvous
from repro.runtime.core import (
    FaultPolicy,
    JobAborted,
    JobBase,
    RankProcess,
    check_geometry,
)
from repro.simt.kernel import Event, Timeout

__all__ = ["FailStop", "MpiJob", "JobAborted", "MpiRestartDriver"]

AppFactory = Callable[[MpiApi], Any]  # callable(api) -> generator


class MpiRankProcess(RankProcess):
    """One MPI rank: boot, ``MPI_Init`` rendezvous, run the app."""

    __slots__ = ("rendezvous",)

    def __init__(self, job: "MpiJob", rank: int, node: Node, rendezvous):
        self.rendezvous = rendezvous
        super().__init__(job, rank, node)

    def _main(self):
        job = self.job
        yield Timeout(self.sim, job.boot_latency)
        yield self.rendezvous.arrive()  # MPI_Init
        if self.rank == 0:
            job.init_done_at = self.sim.now
        api = MpiApi(job.transport, self.ctx, self.rank, job.num_ranks,
                     job.addr_table)
        api.job = job  # SCR & apps reach machine-level services through this
        app = job.app(api)
        if app.__class__ is not GeneratorType:
            # not a body: an event is waited on, anything else is named
            # by the trampoline
            return (yield app)
        return app  # the tail hand-off (simt.process): nothing left to do


class FailStop(FaultPolicy):
    """MPI semantics: eager whole-job allocation, one launch, and any
    rank death kills every rank."""

    def __init__(self, nodes: Optional[List[Node]] = None, charge_init: bool = True):
        self.nodes = nodes
        self.charge_init = charge_init
        self.alloc = None
        # True only for the srun-style self-allocation: an externally
        # owned allocation (service mode) is never released on a failed
        # bind -- its owner decides.
        self._owns_alloc = False

    def bind(self, job: JobBase) -> None:
        super().bind(job)
        nodes = self.nodes
        if nodes is None and job.alloc is not None:
            # Service mode: the scheduler granted the allocation; the
            # job runs on it and releases it when done (the scheduler
            # watches the idle pool, not the allocation object).
            self.alloc = job.alloc
            nodes = self.alloc.nodes
        elif nodes is None:
            # srun-style: the allocation is grabbed when the job object
            # is created, released when the job event triggers.
            self.alloc = job.machine.rm.allocate(job.num_nodes)
            nodes = self.alloc.nodes
            self._owns_alloc = True
        if len(nodes) < job.num_nodes:
            # A failed bind must not keep holding nodes: release any
            # srun-style allocation before propagating the error.  An
            # externally owned allocation stays with its owner.
            if self._owns_alloc and self.alloc is not None:
                self.alloc.release()
                self.alloc = None
                self._owns_alloc = False
            raise ValueError("not enough nodes for the requested ranks")
        self.nodes = nodes[: job.num_nodes]
        job.nodes = self.nodes
        if self.alloc is not None:
            alloc = self.alloc  # bind the object: self.alloc may be reset
            job.done.callbacks.append(lambda _e: alloc.release())

    def start(self) -> None:
        job = self.job
        for node in self.nodes:
            if not node.alive:
                job.abort(f"launch onto dead node {node.id}")
                return
        spec = job.machine.spec
        cost = spec.mpi_init_time(job.num_ranks) if self.charge_init else 0.0
        rendezvous = PmgrRendezvous(job.sim, job.num_ranks, cost=cost)
        for rank in range(job.num_ranks):
            rproc = MpiRankProcess(job, rank, self.nodes[rank // job.ppn],
                                   rendezvous)
            job.rank_procs[rank] = rproc
            # a first launch: no old address to close
            job.addr_table[rank] = rproc.ctx.addr

    def on_rank_exit(self, rproc: RankProcess, proc_evt: Event) -> None:
        if proc_evt._ok:
            self.job.rank_finished(rproc.rank, proc_evt._value)
        else:
            rproc.rendezvous.withdraw()  # every rank dies with the job
            self.job.abort(proc_evt._value)

    def wrap_abort(self, cause) -> BaseException:
        if isinstance(cause, JobAborted):
            return cause
        return JobAborted(cause)


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
    ):
        super().__init__(
            machine, app, nprocs, procs_per_node,
            policy=FailStop(nodes=nodes, charge_init=charge_init),
            name=name,
            sw_overhead=machine.spec.network.sw_overhead_mpi,
            alloc=alloc,
        )


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
    ):
        self.machine = machine
        self.sim = machine.sim
        self.app = app
        self.nprocs = nprocs
        self.ppn = procs_per_node
        self.restarts = 0
        self.num_nodes = check_geometry(nprocs, procs_per_node)
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
                    nodes=nodes, name=f"mpirun#{self.restarts}",
                )
                self.jobs.append(job)
                try:
                    results = yield job.launch()
                    return results
                except JobAborted:
                    self.restarts += 1
                    # Scheduler tear-down + re-submission latency.
                    yield self.sim.timeout(self.machine.spec.job_relaunch_latency)
        finally:
            alloc.release()
