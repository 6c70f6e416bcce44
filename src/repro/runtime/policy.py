"""The fault-policy seam: what happens when a rank dies.

:class:`FailStop` is MPI's contract -- any rank death tears the whole
job down and the job event fails with
:class:`~repro.runtime.core.JobAborted`.  :class:`Survivable` is the
machinery behind FMI's fmirun master (Figure 6): pre-reserved spares,
per-node task monitoring, the recovery-epoch bump, replacement-node
acquisition, and graceful drain.  Both operate purely through the
:class:`~repro.runtime.core.JobBase` blackboard.  *How* a survivable
job gets its ranks computing again is the job's
:class:`RecoveryFamily` (``job.recovery``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.node import Node
from repro.net.pmgr import PmgrRendezvous
from repro.runtime.core import JobAborted, JobBase, RankProcess
from repro.simt.kernel import Event
from repro.simt.process import ProcessKilled

__all__ = [
    "FaultPolicy", "FailStop", "Survivable",
    "RecoveryFamily",
]


class RecoveryFamily:
    """Which recovery family a :class:`Survivable` job belongs to, and
    everything the runtime does differently because of it.

    One instance per job (``job.recovery``), selected by
    ``FmiConfig(recovery=...)``; orthogonal to the
    :class:`~repro.fmi.redundancy.RedundancyScheme` (what state
    survives) and to detection (who hears about a death).  This base
    class *is* global rollback, the paper's behaviour: every rank
    unwinds to H1, re-rendezvouses world-wide and restores the last
    coordinated checkpoint.  :class:`~repro.fmi.msglog.RecoveryPlane`
    (``"logged"``) and :class:`~repro.fmi.replication.ReplicationPlane`
    (``"replicated"``) override the methods below; the runtime never
    asks which one it is talking to.
    """

    #: what ``Transport.hop_fidelity_reason`` answers for this family
    #: (None: individual hops are not load-bearing, macro tier allowed)
    hop_fidelity: Optional[str] = None
    #: physical rank-processes per virtual rank; physical slot ``s``
    #: hosts copy ``s // num_nodes`` of virtual slot ``s % num_nodes``
    num_copies = 1
    #: whether a slot whose processes died on a still-healthy node may
    #: respawn onto that same node instead of taking a spare
    reuse_healthy_node = False
    #: per-send hook ``on_send(src, dst, env, ctx)`` stamping the
    #: channel lseq; ``Communicator.send_async`` tests this attribute,
    #: so global rollback pays no call per message
    on_send = None

    def __init__(self, job):
        self.job = job
        self.sim = job.sim
        job.transport.recovery_hops = self.hop_fidelity

    # -- process wiring ----------------------------------------------------
    def adopt(self, fproc) -> None:
        """Record a freshly spawned rank process."""
        self.job.rank_procs[fproc.rank] = fproc

    def on_h1(self, fproc) -> None:
        """Wire a process's context for the epoch it is entering."""
        ctx = fproc.ctx
        ctx.epoch = self.job.epoch  # stale pre-failure traffic now drops
        ctx.matching.reset()
        self.job.register_endpoint(fproc.rank, ctx)

    def rendezvous_scope(self, fproc):
        """``(key, participants, bootstrap scale)`` of the H1/H2
        rendezvous ``fproc`` joins: every unfinished rank, per epoch."""
        job = self.job
        return job.epoch, job.num_ranks - len(job.finished_ranks), job.num_ranks

    def overlay_epoch(self, fproc) -> Optional[int]:
        """The detection-overlay epoch ``fproc`` joins in H2, or None
        when it stays out of the ring."""
        return self.job.epoch

    # -- FMI_Loop ----------------------------------------------------------
    def post_wildcard(self, fmi_ctx, source: int, tag: int, comm_id: int):
        """An event replacing a wildcard receive's native post, or
        None to post natively."""
        return None

    def restore(self, fmi_ctx):
        """Bring a restarted rank's state back (generator returning
        ``(meta, payloads)``, None on a cold start, or "beyond-xor")."""
        return fmi_ctx.engine.restore(
            world_agree=fmi_ctx._agree_min,
            allow_beyond_xor=fmi_ctx.l2store is not None,
        )

    def note_ckpt_begin(self, rank: int, dataset_id: int, ctx) -> None:
        """``rank`` is about to write checkpoint ``dataset_id``."""

    def note_rank_checkpoint(self, rank: int, dataset_id: int, ctx) -> None:
        """``rank`` completed checkpoint ``dataset_id``."""

    # -- failure handling --------------------------------------------------
    def absorb_notification(self, fproc, generation: int) -> bool:
        """True if ``fproc`` should record this failure notification
        without acting on it (no unwind to H1)."""
        return False

    def try_failover(self, policy: "Survivable", cause: str) -> bool:
        """Attempt to recover without any rollback at all.  True means
        the failure was absorbed: the policy then skips the rank
        notifications and the safety sweep entirely, and survivors
        never learn a failure happened."""
        return False

    def notify_targets(self) -> list:
        """Processes a recovery must reach."""
        return list(self.job.rank_procs.values())

    def slot_procs(self, slot: int) -> list:
        """The rank processes hosted on physical slot ``slot``."""
        return [self.job.rank_procs[r] for r in self.job.ranks_of_slot(slot)]

    def unfinished_ranks(self, vslot: int) -> List[int]:
        """The ranks of virtual slot ``vslot`` still running the app."""
        job = self.job
        return [
            r for r in job.ranks_of_slot(vslot) if r not in job.finished_ranks
        ]


class FaultPolicy:
    """Strategy object owning allocation, placement, and rank-death
    handling for one :class:`~repro.runtime.core.JobBase`."""

    job: JobBase

    def bind(self, job: JobBase) -> None:
        """Attach to a job (called once, at the end of job __init__).
        May allocate nodes and hook teardown onto ``job.done``."""
        self.job = job

    def node_of_rank(self, rank: int) -> Node:
        raise NotImplementedError

    def start(self) -> None:
        """Create contexts and spawn every rank (job launch)."""
        raise NotImplementedError

    def on_rank_exit(self, rproc: RankProcess, proc_evt: Event) -> None:
        """A rank process exited (successfully or not)."""
        raise NotImplementedError

    def wrap_abort(self, cause) -> BaseException:
        """Turn an abort cause into the exception ``job.done`` fails with."""
        if isinstance(cause, BaseException):
            return cause
        return RuntimeError(str(cause))

    def shutdown(self) -> None:
        """Job teardown (completion or abort)."""


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

    def node_of_rank(self, rank: int) -> Node:
        return self.nodes[self.job.slot_of_rank(rank)]

    def init_cost(self) -> float:
        spec = self.job.machine.spec
        return spec.mpi_init_time(self.job.num_ranks) if self.charge_init else 0.0

    def start(self) -> None:
        job = self.job
        for rank in range(job.num_ranks):
            node = self.node_of_rank(rank)
            if not node.alive:
                job.abort(f"launch onto dead node {node.id}")
                return
        rendezvous = PmgrRendezvous(job.sim, job.num_ranks, cost=self.init_cost())
        for rank in range(job.num_ranks):
            rproc = job.make_rank_process(
                rank, self.node_of_rank(rank), rendezvous=rendezvous
            )
            job.rank_procs[rank] = rproc
            job.register_endpoint(rank, rproc.ctx)

    def on_rank_exit(self, rproc: RankProcess, proc_evt: Event) -> None:
        if proc_evt._ok:
            self.job.rank_finished(rproc.rank, proc_evt._value)
        else:
            self.job.abort(proc_evt._value)

    def wrap_abort(self, cause) -> BaseException:
        if isinstance(cause, JobAborted):
            return cause
        return JobAborted(cause)


class Survivable(FaultPolicy):
    """In-place recovery: spare-backed slots, per-node tasks, and the
    recovery-epoch machine.

    Subclasses provide the per-node task object (:meth:`make_task`,
    FMI's ``fmirun.task``) and the policy knobs below; everything else
    -- slot bookkeeping, epoch bumps with same-instant coalescing,
    replacement acquisition (spares first, then the resource manager),
    the re-sync of ranks that cannot hear the detection overlay, the
    safety sweep, and graceful drain -- is shared machinery.  The job
    must carry its :class:`RecoveryFamily` as ``job.recovery``.
    """

    #: pre-reserved spare nodes requested with the allocation
    num_spares: int = 0
    #: give up after this many recoveries; None = unlimited
    max_recoveries: Optional[int] = None
    #: seconds to wait for a replacement node; None = wait forever
    replacement_timeout: Optional[float] = None
    #: exception type raised on policy-level aborts
    abort_error = RuntimeError

    def bind(self, job: JobBase) -> None:
        super().bind(job)
        self.sim = job.sim
        self.machine = job.machine
        self.alloc = None
        self.node_slots: List[Node] = []
        self.tasks: Dict[int, object] = {}
        self._last_bump_time: Optional[float] = None
        self._recovery_proc = None

    def node_of_rank(self, rank: int) -> Node:
        return self.node_slots[self.job.slot_of_rank(rank)]

    # -- per-node task factory (stack-specific) ------------------------------
    def make_task(self, slot: int, node: Node):
        raise NotImplementedError

    # -- launch --------------------------------------------------------------
    def start(self) -> None:
        job = self.job
        need = job.num_nodes * job.recovery.num_copies
        if job.alloc is not None:
            # Service mode: run on the scheduler-granted allocation.
            if len(job.alloc.nodes) < need:
                raise ValueError(
                    f"allocation has {len(job.alloc.nodes)} compute nodes, "
                    f"job needs {need}"
                )
            self.alloc = job.alloc
        else:
            self.alloc = self.machine.rm.allocate(
                need, num_spares=self.num_spares
            )
        self.node_slots = list(self.alloc.nodes[:need])
        for slot, node in enumerate(self.node_slots):
            self._start_task(slot, node, incarnation=0)

    def _start_task(self, slot: int, node: Node, incarnation: int) -> None:
        task = self.make_task(slot, node)
        self.tasks[slot] = task
        task.spawn_ranks(
            self.job.ranks_of_slot(slot % self.job.num_nodes), incarnation
        )

    # -- rank death ----------------------------------------------------------
    def on_rank_exit(self, rproc: RankProcess, proc_evt: Event) -> None:
        if proc_evt._ok or rproc.rank in self.job.finished_ranks:
            return
        exc = proc_evt._value
        if isinstance(exc, ProcessKilled):
            # Injected failure / node crash: the survivable path.
            self.job.process_lost(rproc, exc)
        else:
            # Programming error or unrecoverable condition: abort.
            self.job.abort(exc)

    def on_task_failure(self, task, cause: str) -> None:
        if self.job.finished:
            return
        self.begin_recovery(f"task[{task.slot}]: {cause}")

    # -- recovery ------------------------------------------------------------
    def begin_recovery(self, cause: str) -> None:
        """Bump the recovery epoch (coalescing same-instant failures)
        and make sure the replacement machinery is running."""
        job = self.job
        if self._last_bump_time == self.sim.now:
            return
        self._last_bump_time = self.sim.now
        job.epoch += 1
        job.recovery_causes.append((self.sim.now, cause))
        failover = job.recovery.try_failover(self, cause)
        if not failover:
            # In-flight macro collective instances are dead timelines
            # now: every rank will unwind to H1 and replay the
            # collective sequence from the restored iteration, so the
            # coordinator's counters and pending completions must start
            # clean.  A failover keeps every survivor's timeline, so
            # the fidelity guard (not a reset) handles it.
            job.transport.macro_reset()
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "recovery.begin", "recovery", epoch=job.epoch, cause=cause,
                failover=failover, job=job.job_id,
            )
        if self.sim.metrics.enabled:
            self.sim.metrics.counter("fmi.recoveries", job=job.job_id).inc()
            self.sim.metrics.gauge("fmi.epoch", job=job.job_id).set(job.epoch)
        if self.max_recoveries is not None and job.epoch > self.max_recoveries:
            job.abort(self.abort_error(
                f"exceeded max_recoveries={self.max_recoveries}"
            ))
            return
        if not failover:
            # Processes already recovering from an earlier failure have
            # no detection overlay to hear through; the master re-syncs
            # them directly.  Running processes hear via the overlay
            # (log-ring).
            for rproc in job.recovery.notify_targets():
                if rproc.alive and rproc.needs_resync:
                    rproc.notify_failure(job.epoch, "fmirun re-sync")
        if self._recovery_proc is None or not self._recovery_proc.alive:
            self._recovery_proc = self.sim.spawn(
                self._recover(), name="fmirun.recover"
            )
        if not failover:
            # Safety sweep: anything still un-notified well after the
            # overlay should have reached it gets a direct poke.
            sweep = self.sim.timeout(1.0)
            target = job.epoch
            sweep.callbacks.append(lambda _e: self._sweep(target))

    def _sweep(self, generation: int) -> None:
        job = self.job
        if job.finished or job.epoch != generation:
            return
        for rproc in job.recovery.notify_targets():
            if rproc.alive and rproc.notified_gen < generation:
                rproc.notify_failure(generation, "fmirun sweep")

    def _recover(self):
        """Replace failed nodes and respawn their ranks (Figure 6)."""
        job = self.job
        spec = self.machine.spec
        while True:
            target_epoch = job.epoch
            for slot in range(job.num_nodes * job.recovery.num_copies):
                node = self.node_slots[slot]
                task = self.tasks.get(slot)
                procs = job.recovery.slot_procs(slot)
                if all(
                    p.alive or p.rank in job.finished_ranks
                    for p in procs
                ) and node.alive and task is not None and not task.failed:
                    continue
                # This slot needs a fresh node (spare list first, then
                # the resource manager).  Any node we acquire can be
                # killed while we wait -- the spare while idle in the
                # reserve pool, the granted node during the grant
                # latency, or either during the task-spawn window -- so
                # every acquisition is re-checked after each wait and
                # retried until a task starts on a *live* node.
                if task is not None and not task.failed:
                    # A broken slot whose guard never reported: this
                    # scan can land on a fresh failure before the
                    # guard's exit callback fires (shutting it down
                    # below would then suppress the report forever).
                    # Open the failure's epoch first so the recovery
                    # family classifies it before the respawn; a
                    # report already in flight at this instant
                    # coalesces in begin_recovery.
                    self.on_task_failure(task, "discovered during recovery")
                if task is not None:
                    task.shutdown()
                while True:
                    if (node is not None and node.alive
                            and job.recovery.reuse_healthy_node):
                        new_node = node
                        node = None  # one reuse attempt only
                    else:
                        new_node = self.alloc.take_spare()
                    if new_node is None:
                        # On-demand tier: the allocation's grow() seam
                        # (shared spare pool first when the scheduler
                        # attached one, else a resource-manager grant).
                        request = self.alloc.grow()
                        deadline = self.replacement_timeout
                        if deadline is None:
                            new_node = yield request
                        else:
                            from repro.simt.primitives import AnyOf

                            idx, value = yield AnyOf(
                                self.sim, [request, self.sim.timeout(deadline)]
                            )
                            if idx == 1:
                                # Withdraw before aborting: a grant
                                # racing this deadline re-enters the
                                # pool instead of stranding.
                                request.cancel()
                                job.abort(self.abort_error(
                                    f"no replacement node granted within "
                                    f"{deadline}s (machine exhausted?)"
                                ))
                                return
                            new_node = value
                    if not new_node.alive:
                        continue  # died during the grant; ask again
                    self.node_slots[slot] = new_node
                    yield self.sim.timeout(spec.proc_spawn_latency)  # start the task
                    if new_node.alive:
                        break
                    # Killed in the spawn window: acquire another node.
                incarnation = max(p.incarnation for p in procs) + 1
                self._start_task(slot, new_node, incarnation)
            if job.epoch == target_epoch:
                return

    # -- dynamic leave (maintenance drain) ------------------------------------
    def drain_slot(self, slot: int) -> None:
        """Gracefully vacate a node ("compute nodes ... leave the job
        dynamically", Section III-A).

        The slot's ranks are migrated onto a replacement node through
        the ordinary recovery machinery -- one rollback to the last
        checkpoint, redundancy-group rebuild of the leaving ranks'
        state -- and the *healthy* node goes back to the resource
        manager's idle pool, immediately available to other jobs (or as
        this job's next replacement).
        """
        if self.job.finished:
            raise RuntimeError("cannot drain a finished job")
        task = self.tasks.get(slot)
        node = self.node_slots[slot]
        if task is None or task.failed or not node.alive:
            raise RuntimeError(f"slot {slot} is not drainable")
        for child in list(task.children):
            if child.proc.alive:
                child.proc.kill(cause=f"drain slot {slot}")
                break  # the sibling-kill path takes down the rest
        # The node is healthy; put it back in the pool once its guard
        # process is gone (the child-death path killed it synchronously).
        # It leaves through the allocation so release() won't reclaim it
        # a second time (that double entry could grant one node to two
        # tenants at once).
        self.alloc.return_node(node)

    # -- teardown ---------------------------------------------------------------
    def shutdown(self) -> None:
        for task in self.tasks.values():
            task.shutdown()
        if self.alloc is not None:
            self.alloc.release()
