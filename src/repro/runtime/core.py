"""Job and rank-process lifecycle shared by the MPI and FMI stacks.

:class:`JobBase` is the blackboard both runtimes read and write: the
placement geometry, the rank -> transport-address table, the per-rank
results, and the single ``done`` event.  The :class:`FaultPolicy`
attached at construction decides what happens when a rank dies:
:class:`~repro.mpi.runtime.FailStop` for MPI,
:class:`~repro.fmi.runtime.Fmirun` for FMI.

:class:`RankProcess` wraps one rank's simulated process: it creates
the rank's network context, spawns the stack-specific body (which
first charges the spawn + exec-load boot latency), and routes the
process's exit event to the job's fault policy: the rank is the exit
event's callback itself, no bound method per rank.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.net.transport import NetContext, Transport
from repro.simt.kernel import _PENDING, Event
from repro.simt.process import wait_chain

__all__ = [
    "FaultPolicy", "JobAborted", "JobBase", "RankProcess", "check_geometry",
]


def check_geometry(num_ranks: int, procs_per_node: int) -> int:
    """The one geometry rule of a job on either stack (block placement,
    ``procs_per_node`` ranks on every node); returns the node count."""
    if num_ranks < 1 or procs_per_node < 1:
        raise ValueError("num_ranks and procs_per_node must be >= 1")
    if num_ranks % procs_per_node != 0:
        raise ValueError("num_ranks must be a multiple of procs_per_node")
    return num_ranks // procs_per_node


class JobAborted(RuntimeError):
    """The fail-stop tear-down: some rank died, so every rank died."""

    def __init__(self, cause: Any):
        super().__init__(f"MPI job aborted: {cause}")
        self.cause = cause


class RankProcess:
    """One rank's runtime process (one incarnation).

    Subclasses write :meth:`_main`, the generator the process runs:
    wait out ``job.boot_latency`` once, then the stack's own lifecycle.
    """

    __slots__ = ("job", "rank", "node", "incarnation", "sim", "ctx", "proc")

    def __init__(self, job: "JobBase", rank: int, node: Node, incarnation: int = 0):
        self.job = job
        self.rank = rank
        self.node = node
        self.incarnation = incarnation
        self.sim = job.sim
        label, name = self._names()
        self.ctx: NetContext = job.transport.create_context(node, label)
        self.proc = node.spawn(self._main(), name)
        self.proc._callbacks = self  # the exit hook: __call__

    # -- naming hook --------------------------------------------------------
    def _names(self) -> Tuple[str, str]:
        """The rank's network-context label and process name."""
        return (f"{self.job.job_id}:r{self.rank}",
                f"{self.job.job_id}:rank{self.rank}")

    # -- liveness -----------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.proc.alive

    def kill(self, cause: str) -> None:
        self.proc.kill(cause=cause)

    # -- lifecycle ----------------------------------------------------------
    def _main(self):
        """The process body, one generator frame for the whole life of
        the rank: every resume walks the ``yield from`` chain above the
        yield it stopped at, so a level that only forwards (a base
        ``_main`` relaying to a hook) is a call per resume.  The body
        hands the application off (``simt.process``) -- with a bare
        ``yield`` when it has work after the application, else by
        returning it -- so it is not such a level either."""
        raise NotImplementedError

    def __call__(self, proc_evt: Event) -> None:
        """The process's exit: route it to the job's fault policy."""
        self.job.policy.on_rank_exit(self, proc_evt)


class _JobDone(Event):
    """A job's completion event.  A run that drains before it fires
    names the ranks still out, at most eight, each with its wait chain
    (:meth:`~repro.simt.kernel.Simulator._stall`), then what the fault
    policy adds (:meth:`FaultPolicy.stall_note`)."""

    __slots__ = ("job",)

    def _what(self) -> str:
        procs, done = self.job.rank_procs, self.job.results
        out = [r for r in sorted(procs) if r not in done]
        return (f"job {self.job.job_id!r} done, awaiting {len(out)} of "
                f"{self.job.num_ranks} ranks [" + "; ".join(
                    [f"rank {r}: {wait_chain(procs[r].proc)}" for r in out[:8]]
                    + ["..."] * (len(out) > 8)) + "]"
                + self.job.policy.stall_note(out[:8]))


class FaultPolicy:
    """Strategy object owning allocation, placement, rank spawning and
    rank-death handling for one :class:`JobBase`."""

    job: "JobBase"

    def bind(self, job: "JobBase") -> None:
        """Attach to a job (called once, at the end of job __init__).
        May allocate nodes and hook teardown onto ``job.done``."""
        self.job = job

    def start(self) -> None:
        """Create contexts and spawn every rank (job launch)."""
        raise NotImplementedError

    def on_rank_exit(self, rproc: RankProcess, proc_evt: Event) -> None:
        """A rank process exited (successfully or not)."""
        raise NotImplementedError

    def processes(self) -> List[RankProcess]:
        """Every rank process the policy spawned and still owns."""
        return list(self.job.rank_procs.values())

    def wrap_abort(self, cause) -> BaseException:
        """Turn an abort cause into the exception ``job.done`` fails with."""
        raise NotImplementedError

    def stall_note(self, ranks: List[int]) -> str:
        """What a drained launch's report adds about the unfinished
        ``ranks``, after their wait chains (nothing, by default)."""
        return ""

    def shutdown(self) -> None:
        """Job teardown (completion or abort)."""


class JobBase:
    """One launch of a parallel application on the simulated machine.

    Owns everything the two stacks used to duplicate: validation,
    transport creation, the context table, result collection, the
    completion event, and abort/teardown.  Allocation, placement and
    rank spawning are delegated to the attached :class:`FaultPolicy`
    (eager whole-job allocation for fail-stop, spare-backed slot
    allocation for FMI).
    """

    def __init__(
        self,
        machine: Machine,
        app: Callable[..., Any],
        num_ranks: int,
        procs_per_node: int,
        policy: FaultPolicy,
        name: str,
        sw_overhead: Optional[float] = None,
        alloc=None,
    ):
        self.num_nodes = check_geometry(num_ranks, procs_per_node)
        self.machine = machine
        self.sim = machine.sim
        self.app = app
        self.num_ranks = num_ranks
        self.ppn = procs_per_node
        #: the job's one name: the tenant label on every metric/trace
        #: record this job emits
        self.job_id = name
        #: externally owned allocation (service mode: the scheduler
        #: grants nodes and hands the job a ready allocation); None =
        #: the policy allocates for itself at bind/start
        self.alloc = alloc
        #: fork/exec + loading the executable: what every rank process
        #: waits out first, once per process
        self.boot_latency = (
            machine.spec.proc_spawn_latency + machine.spec.exec_load_latency
        )

        # -- shared runtime state --
        self.rank_procs: Dict[int, RankProcess] = {}
        self.addr_table: Dict[int, Tuple[int, int]] = {}
        #: rank -> its app's return value; the keys are the finished ranks
        self.results: Dict[int, Any] = {}
        self.done = _JobDone(self.sim)
        self.done.job = self
        # Jobs come and go on a long-lived machine: drop the machine-
        # level subscriptions (transport heal hook, and whatever
        # subclasses add via _detach) once the job is over, so a stream
        # of tenants does not accumulate dead listeners.
        self.done._callbacks = lambda _e: self._detach()
        self.launched_at: Optional[float] = None
        #: simulated time init (MPI_Init / FMI's first H2 exit) completed
        self.init_done_at: Optional[float] = None

        # The policy may refuse the job (too few nodes; FMI's legality
        # rule), allocate nodes (fail-stop does so eagerly, matching
        # srun's behaviour) and attach teardown hooks to ``done``.  It
        # binds before the transport subscribes to the fabric, so a
        # refused job leaves no listener behind.
        self.policy = policy
        policy.bind(self)
        self.transport = Transport(machine, sw_overhead=sw_overhead)

    # -- geometry -----------------------------------------------------------
    def ranks_of_slot(self, slot: int) -> List[int]:
        return list(range(slot * self.ppn, (slot + 1) * self.ppn))

    def slot_of_rank(self, rank: int) -> int:
        return rank // self.ppn

    # -- context table ------------------------------------------------------
    def register_endpoint(self, rank: int, ctx: NetContext) -> None:
        """Publish a rank's current transport address (for FMI this is
        the per-epoch endpoint update of Figure 8).

        A replacement incarnation supersedes the dead incarnation's
        context; close it so in-flight traffic to the stale address is
        dropped by the transport instead of parking forever in a
        matching engine nobody will ever read.
        """
        old_addr = self.addr_table.get(rank)
        if old_addr is not None and old_addr != ctx.addr:
            old_ctx = self.transport.context_at(old_addr)
            if old_ctx is not None and old_ctx is not ctx:
                old_ctx.close()
        self.addr_table[rank] = ctx.addr

    # -- launch -------------------------------------------------------------
    def launch(self) -> Event:
        """Start the job; returns the job-completion event (value: the
        list of per-rank app return values)."""
        if self.launched_at is not None:
            raise RuntimeError("job already launched")
        self.launched_at = self.sim.now
        self.policy.start()
        return self.done

    # -- completion & abort --------------------------------------------------
    def rank_finished(self, rank: int, result: Any) -> None:
        if self.done._value is not _PENDING:  # once per rank: no property
            return
        self.results[rank] = result
        self._on_rank_finished(rank)
        if len(self.results) == self.num_ranks:
            self.policy.shutdown()
            self.done.succeed([self.results[r] for r in range(self.num_ranks)])

    def _on_rank_finished(self, rank: int) -> None:
        """Hook for per-rank completion bookkeeping (FMI deregisters
        the rank from the failure detector here)."""

    def abort(self, cause: Any) -> None:
        if self.done.triggered:
            return
        for rproc in self.policy.processes():
            rproc.kill(cause="job-abort")
        self.policy.shutdown()
        self.done.fail(self.policy.wrap_abort(cause))

    def _detach(self) -> None:
        """Unhook this job's machine-level listeners (job teardown).
        Subclasses extend this with their own subscriptions (FMI's
        failure detector and connection manager)."""
        self.transport.detach()

    # -- observability -------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.done.triggered
