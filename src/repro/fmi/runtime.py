"""The survivable FMI runtime: fmirun, fmirun.task, rank processes, and
the recovery-family seam.

Hierarchy (Figure 6):

* :class:`Fmirun` -- the master process and the job's
  :class:`~repro.runtime.core.FaultPolicy`.  Lives on the login node
  (outside the compute failure domain -- the paper acknowledges this
  single point of failure and argues its MTBF is years): allocation
  with pre-reserved spares, per-node task monitoring, recovery-epoch
  bumps, replacement acquisition, and graceful drain, with its knobs
  read from :class:`~repro.fmi.config.FmiConfig`.
* :class:`FmirunTask` -- one per node; spawns the node's application
  processes, kills its remaining children when one dies, and reports
  EXIT_FAILURE up to fmirun.
* :class:`FmiProcess` -- one per rank slot; runs the H1 -> H2 -> H3
  state machine (Figure 5).  A failure notification anywhere inside H3
  (including mid-collective, mid-checkpoint) unwinds the application
  generator and loops back to H1 -- the paper's Notified transition.

*How* the ranks compute again after a failure is the job's
:class:`RecoveryFamily` (``job.recovery``); this base class is global
rollback, and the two planes (:mod:`repro.fmi.msglog`,
:mod:`repro.fmi.replication`) subclass it through the channel layer of
:mod:`repro.fmi.channel`.

Survivor processes are *never* restarted as processes; their
in-memory checkpoint storage survives recovery, which is what makes
FMI's restart so much cheaper than MPI's relaunch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.node import Node
from repro.fmi.api import FmiContext
from repro.fmi.checkpoint import MemoryStorage
from repro.fmi.errors import FailureNotified, FmiAbort
from repro.fmi.interval import IntervalPolicy
from repro.fmi.state import ProcState
from repro.runtime.core import FaultPolicy, RankProcess
from repro.simt.kernel import Event, Timeout
from repro.simt.process import Interrupt, ProcessKilled

__all__ = [
    "Fmirun", "FmirunTask", "FmiProcess", "RecoveryFamily",
]


class RecoveryFamily:
    """Which recovery family an FMI job belongs to, and everything the
    runtime does differently because of it.

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

    #: the reason ``MacroCollectives.verdict`` gives for this family
    #: (None: individual hops are not load-bearing, macro tier allowed)
    hop_fidelity: Optional[str] = None
    #: per-send hook ``on_send(src, dst, env, ctx)`` stamping the
    #: channel lseq (and logging, or sending mirror clones, ahead of
    #: the envelope's own ``Transport.send``);
    #: ``Communicator.send_async`` tests this attribute, so global
    #: rollback pays no call per message
    on_send = None

    def __init__(self, job):
        self.job = job
        self.sim = job.sim

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
        return job.epoch, job.num_ranks - len(job.results), job.num_ranks

    def overlay_epoch(self, fproc) -> Optional[int]:
        """The detection-overlay epoch ``fproc`` joins in H2, or None
        when it stays out of the ring."""
        return self.job.epoch

    # -- FMI_Loop ----------------------------------------------------------
    def post_wildcard(self, fmi_ctx, source: int, tag: int, comm_id: int):
        """An event replacing a wildcard receive's native post, or
        None to post natively."""
        return None

    def restores(self, fproc) -> bool:
        """True if ``fproc``, entering H3 after a failure, must restore
        before it runs: under global rollback every rank does."""
        return True

    def restore(self, fmi_ctx):
        """Bring a restarted rank's state back (generator returning
        ``(meta, payloads)``, None on a cold start, or "beyond-xor")."""
        return fmi_ctx.engine.restore(
            world=fmi_ctx,
            allow_beyond_xor=fmi_ctx.l2store is not None,
            fresh=fmi_ctx.fproc.fresh,
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

    def try_failover(self, fmirun: "Fmirun", cause: str) -> bool:
        """Attempt to recover without any rollback at all.  True means
        the failure was absorbed: fmirun then skips the rank
        notifications and the safety sweep entirely, and survivors
        never learn a failure happened."""
        return False

    def unfinished_ranks(self, vslot: int) -> List[int]:
        """The ranks of virtual slot ``vslot`` still running the app."""
        job = self.job
        return [
            r for r in job.ranks_of_slot(vslot) if r not in job.results
        ]


class FmiProcess(RankProcess):
    """One rank's runtime process (one incarnation)."""

    def __init__(self, job, rank: int, node: Node, incarnation: int,
                 copy: int = 0):
        #: which physical copy of the virtual rank this process is
        #: (always 0 unless recovery="replicated")
        self.copy = copy
        self.storage = MemoryStorage(node)
        #: FMI_Loop's bookkeeping, which survives application restarts
        #: but not the process: the next loop id (a checkpoint's
        #: dataset id), whether the next call restores, and the
        #: checkpoint interval policy
        self.loop_id = 0
        self.restore_pending = False
        #: a replacement holding no dataset of its own, until its first
        #: restore returns (the restore agreement reads it)
        self.fresh = incarnation > 0
        self.policy = IntervalPolicy(job.config)
        self.state = ProcState.H1_BOOTSTRAPPING
        self.notified_gen = -1
        #: True from a failure notice until H1 clears it; while set,
        #: every FMI communication call raises FailureNotified
        self.notified_pending = False
        super().__init__(job, rank, node, incarnation)

    def _names(self) -> Tuple[str, str]:
        copy = f"c{self.copy}" if self.copy else ""
        return (f"fmi:r{self.rank}{copy}i{self.incarnation}",
                f"fmi:rank{self.rank}{copy}.{self.incarnation}")

    # -- liveness / notification ------------------------------------------------
    @property
    def needs_resync(self) -> bool:
        # H1/H2 processes have no log-ring overlay yet; fmirun must
        # poke them directly over the PMGR tree.
        return self.state in (
            ProcState.H1_BOOTSTRAPPING, ProcState.H2_CONNECTING
        )

    def notify_failure(self, generation: int, reason: str = "") -> None:
        """Deliver a failure notification (log-ring event or fmirun
        re-sync).  Idempotent per generation."""
        if not self.alive or self.state is ProcState.DONE:
            return
        if self.notified_gen >= generation:
            return
        # A family may absorb the notice: this survivor keeps computing.
        # Record the generation (so re-sync sweeps stay quiet) but do
        # not unwind the application.
        absorbed = self.job.recovery.absorb_notification(self, generation)
        self.notified_gen = generation
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "fmi.notify", "recovery", rank=self.rank, node=self.node.id,
                incarnation=self.incarnation, epoch=generation, reason=reason,
                **({"absorbed": True} if absorbed else {}),
                job=self.job.job_id,
            )
        if absorbed:
            return
        self.notified_pending = True
        self.proc.interrupt(FailureNotified(generation, reason))

    # -- the state machine ----------------------------------------------------------
    def _set_state(self, state: ProcState) -> None:
        self.state = state
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "fmi.state", "state", rank=self.rank, node=self.node.id,
                incarnation=self.incarnation, epoch=self.job.epoch,
                state=state.value, job=self.job.job_id,
            )

    def _main(self):
        # The boot latency is paid once per *process*, but H1 -> H2 ->
        # H3 loops on every Notified transition -- a notification
        # during boot must not re-charge the fork/exec cost.  The
        # application generator is handed off to the process
        # trampoline (``simt.process``), so a resume of the rank enters
        # the application's frames only, never this one to forward.
        job = self.job
        booted = False
        while True:
            try:
                if not booted:
                    yield Timeout(self.sim, job.boot_latency)
                    booted = True
                yield from self._h1()
                yield from self._h2()
                # H3, running: the (re)started application
                self._set_state(ProcState.H3_RUNNING)
                if job.epoch > 0 and job.recovery.restores(self):
                    # Recovery restart: FMI_Loop must restore the checkpoint.
                    self.restore_pending = True
                result = yield job.app(FmiContext(self))
                epoch = job.epoch
                if (epoch > self.notified_gen
                        and not job.recovery.absorb_notification(self, epoch)):
                    # The app ran to its end on messages already on the
                    # wire when a failure opened ``epoch``, before any
                    # notice reached this rank: that epoch's restore
                    # waits for it, so it does not finish.
                    raise FailureNotified(epoch, "finished in a dead epoch")
                self._set_state(ProcState.DONE)
                job.rank_finished(self.rank, result)
                return result
            except (FailureNotified, Interrupt) as exc:
                self.notified_pending = True  # stays set until H1 resets it
                gen = getattr(exc, "epoch", None)
                if gen is None and isinstance(exc, Interrupt):
                    cause = exc.cause
                    gen = getattr(cause, "epoch", None)
                self.notified_gen = max(
                    self.notified_gen, gen if gen is not None else job.epoch
                )
                continue  # Notified transition: back to H1

    def _h1(self):
        """Bootstrapping: synchronise every rank, exchange endpoints."""
        self._set_state(ProcState.H1_BOOTSTRAPPING)
        job = self.job
        self.notified_pending = False
        self.notified_gen = max(self.notified_gen, job.epoch)
        job.recovery.on_h1(self)
        yield job.rendezvous("H1", self).arrive()

    def _h2(self):
        """Connecting: build this epoch's log-ring overlay."""
        self._set_state(ProcState.H2_CONNECTING)
        job = self.job
        n_conn = job.detector.connections_per_rank(job.num_ranks)
        yield self.sim.timeout(job.machine.spec.network.overlay_connect_cost * n_conn)
        # Followers and standbys of a replicated rank stay out of the
        # ring (None); only overlay members complete the recovery.
        overlay_epoch = job.recovery.overlay_epoch(self)
        if overlay_epoch is not None:
            job.detector.join(self, overlay_epoch)
        yield job.rendezvous("H2", self).arrive()
        if overlay_epoch is not None:
            job.note_recovery_complete()


class FmirunTask:
    """Per-node process manager (the second tier of Figure 6)."""

    def __init__(self, fmirun: "Fmirun", slot: int, node: Node):
        self.fmirun = fmirun
        self.slot = slot
        self.node = node
        self.sim = fmirun.sim
        #: the one record of a death fmirun and the recovery families
        #: read: set when the guard's exit or the first child's fires
        self.failed = False
        #: set with ``failed`` by the guard's exit: the node went down
        #: (a child's exit leaves it up)
        self.node_lost = False
        self.children: List[FmiProcess] = []
        self._guard = node.spawn(self._task_main(), name=f"fmirun.task[{node.id}]")
        self._guard.callbacks.append(self._on_guard_exit)

    def _task_main(self):
        yield Event(self.sim)  # exists until killed (node crash / teardown)

    def _on_guard_exit(self, evt: Event) -> None:
        # Only reached by kill (node crash or job teardown).
        if not self.failed and not self.fmirun.job.finished:
            self.failed = self.node_lost = True
            self.fmirun.begin_recovery(f"task[{self.slot}]: node-crash")

    def spawn_ranks(self, ranks: List[int], incarnation: int) -> None:
        job = self.fmirun.job
        copy = self.slot // job.num_nodes  # replica tier of this slot
        for rank in ranks:
            fproc = FmiProcess(job, rank, self.node, incarnation, copy=copy)
            fproc.task = self
            self.children.append(fproc)
            fproc.proc.callbacks.append(self._child_exit(fproc))
            job.recovery.adopt(fproc)

    def _child_exit(self, fproc: FmiProcess):
        def cb(evt: Event) -> None:
            # On a node crash the guard, spawned first, died first: its
            # exit has already reported and set ``failed``.
            if evt._ok or self.failed or self.fmirun.job.finished:
                return
            if not isinstance(evt._value, ProcessKilled):
                return  # app exception: job.abort already triggered
            # A child died while the node stayed up: kill the other
            # children and exit with EXIT_FAILURE (Section IV-B).
            self.failed = True
            for sibling in self.children:
                if sibling is not fproc:
                    sibling.proc.kill(cause="fmirun.task sibling kill")
            # Only a *lead* copy's death is overlay-visible: follower
            # and standby deaths never joined the ring and must not
            # trigger a detector broadcast under their rank's name.
            if self.fmirun.job.rank_procs.get(fproc.rank) is fproc:
                self.fmirun.job.detector.process_died(fproc.rank, "child-death")
            self._guard.kill(cause="fmirun.task EXIT_FAILURE")
            self.fmirun.begin_recovery(
                f"task[{self.slot}]: child rank {fproc.rank} died")

        return cb

    def shutdown(self) -> None:
        self.failed = True
        self._guard.kill(cause="job teardown")


class Fmirun(FaultPolicy):
    """The master runtime process (head-node side).

    Slot bookkeeping, epoch bumps with same-instant coalescing,
    replacement acquisition (spares first, then the resource manager),
    the re-sync of ranks that cannot hear the detection overlay, the
    safety sweep, and graceful drain.  Everything that differs between
    recovery families is asked of ``job.recovery``.
    """

    def bind(self, job) -> None:
        super().bind(job)
        #: physical node slots (compute nodes x copies) and reserved
        #: spares: the job's footprint under its one legality rule
        self.num_slots, self.num_spares = job.config.check_job(
            job.num_ranks, job.ppn
        )
        if job.alloc is not None and len(job.alloc.nodes) < self.num_slots:
            # An externally owned allocation stays with its owner.
            raise ValueError(
                f"allocation has {len(job.alloc.nodes)} compute nodes, "
                f"job needs {self.num_slots}"
            )
        self.sim = job.sim
        self.machine = job.machine
        self.alloc = None
        self.node_slots: List[Node] = []
        self.tasks: Dict[int, FmirunTask] = {}
        self._recovery_proc = None
        #: whether the open epoch's classification was a failover
        self._failover = False

    # -- launch --------------------------------------------------------------
    def start(self) -> None:
        job = self.job
        if job.alloc is not None:
            # Service mode: run on the scheduler-granted allocation.
            self.alloc = job.alloc
        else:
            self.alloc = self.machine.rm.allocate(
                self.num_slots, num_spares=self.num_spares
            )
        self.node_slots = list(self.alloc.nodes[:self.num_slots])
        for slot, node in enumerate(self.node_slots):
            self._start_task(slot, node, incarnation=0)

    def _start_task(self, slot: int, node: Node, incarnation: int) -> None:
        task = FmirunTask(self, slot, node)
        self.tasks[slot] = task
        task.spawn_ranks(
            self.job.ranks_of_slot(slot % self.job.num_nodes), incarnation
        )

    def processes(self) -> List[FmiProcess]:
        """Every process the tasks spawned, slot by slot: each rank's
        current incarnation, and under replication every copy."""
        return [p for task in self.tasks.values() for p in task.children]

    # -- rank death ----------------------------------------------------------
    def on_rank_exit(self, rproc: RankProcess, proc_evt: Event) -> None:
        # A killed rank (injected failure / node crash) is the
        # survivable path, driven by the tasks' node monitoring; any
        # other death is a programming error or unrecoverable: abort.
        if proc_evt._ok or rproc.rank in self.job.results:
            return
        if not isinstance(proc_evt._value, ProcessKilled):
            self.job.abort(proc_evt._value)

    # -- recovery ------------------------------------------------------------
    def begin_recovery(self, cause: str) -> None:
        """Bump the recovery epoch and make sure the replacement
        machinery is running.

        An exit at the instant of the open epoch's cause folds into
        that epoch, unless the epoch was a failover: its classification
        saw only the deaths already reported, so a same-instant exit
        still queued behind it is classified on its own."""
        job = self.job
        causes = job.recovery_causes
        if causes and causes[-1][0] == self.sim.now and not self._failover:
            return
        job.epoch += 1
        # every rendezvous key names its epoch (``rendezvous_scope``):
        # a released one is never asked for again, while one released
        # in this epoch meets a late arrival and refuses it
        job._rdv = {key: rdv for key, rdv in job._rdv.items()
                    if rdv.released_at is None}
        causes.append((self.sim.now, cause))
        failover = self._failover = job.recovery.try_failover(self, cause)
        if not failover:
            # In-flight macro collective instances are dead timelines
            # now: every rank will unwind to H1 and replay the
            # collective sequence from the restored iteration, so the
            # coordinator's counters and pending completions must start
            # clean.  A failover keeps every survivor's timeline, so
            # the fidelity guard (not a reset) handles it.
            macro = job.transport.macro
            if macro is not None:
                macro.reset()
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "recovery.begin", "recovery", epoch=job.epoch, cause=cause,
                failover=failover, job=job.job_id,
            )
        if not failover:
            # Processes already recovering from an earlier failure have
            # no detection overlay to hear through; the master re-syncs
            # them directly.  Running processes hear via the overlay
            # (log-ring).
            for rproc in self.processes():
                if rproc.needs_resync:
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
        for rproc in self.processes():
            rproc.notify_failure(generation, "fmirun sweep")

    def _recover(self):
        """Replace failed nodes and respawn their ranks (Figure 6),
        until no task is failed or the job is over."""
        job = self.job
        spec = self.machine.spec
        while True:
            for slot, task in self.tasks.items():
                if not task.failed:
                    continue
                # This slot needs a fresh node (spare list first, then
                # the resource manager).  Any node we acquire can be
                # killed while we wait -- the spare while idle in the
                # reserve pool, the granted node during the grant
                # latency, or either during the task-spawn window -- so
                # every acquisition is re-checked after each wait and
                # retried until a task starts on a *live* node.
                # A task whose child died (not its node) respawns on
                # its own still-healthy node when its ranks have other
                # copies -- re-arming a replica must not exhaust the
                # spare pool.
                reuse = not task.node_lost and job.config.num_copies > 1
                while True:
                    if reuse:
                        new_node, reuse = task.node, False  # one attempt
                    else:
                        new_node = self.alloc.take_spare()
                    if new_node is None:
                        # On-demand tier: the allocation's grow() seam
                        # (shared spare pool first when the scheduler
                        # attached one, else a resource-manager grant).
                        # fmirun waits until the node is granted (§II-B);
                        # on an exhausted machine the run stalls, and
                        # the drained launch names this slot.
                        new_node = yield self.alloc.grow()
                    if not new_node.alive:
                        continue  # died during the grant; ask again
                    self.node_slots[slot] = new_node
                    yield self.sim.timeout(spec.proc_spawn_latency)  # start the task
                    if new_node.alive:
                        break
                    # Killed in the spawn window: acquire another node.
                incarnation = max(p.incarnation for p in task.children) + 1
                self._start_task(slot, new_node, incarnation)
            if job.finished or not any(
                task.failed for task in self.tasks.values()
            ):
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

    def wrap_abort(self, cause) -> BaseException:
        if isinstance(cause, FmiAbort):
            return cause
        return FmiAbort(repr(cause))

    def stall_note(self, ranks: List[int]) -> str:
        """The slots still waiting for a node (on an exhausted machine,
        what the job waits on is a grant), then each unfinished rank's
        H-state and the newest epoch it has heard of, or ``lost`` while
        its task awaits a respawn."""
        procs = self.job.rank_procs
        refilling = [slot for slot, task in self.tasks.items() if task.failed]
        return (f"; epoch {self.job.epoch}, refilling slots {refilling}: "
                + ", ".join(
                    f"rank {r} lost" if procs[r].task.failed else
                    f"rank {r} {procs[r].state.value} epoch "
                    f"{procs[r].notified_gen}" for r in ranks))

    # -- teardown ---------------------------------------------------------------
    def shutdown(self) -> None:
        for task in self.tasks.values():
            task.shutdown()
        if self.alloc is not None:
            self.alloc.release()
