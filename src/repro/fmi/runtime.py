"""The survivable FMI runtime: fmirun, fmirun.task, and rank processes.

Hierarchy (Figure 6):

* :class:`Fmirun` -- the master process.  Lives on the login node
  (outside the compute failure domain -- the paper acknowledges this
  single point of failure and argues its MTBF is years).  It is the
  FMI face of the shared :class:`~repro.runtime.policy.Survivable`
  fault policy: allocation with pre-reserved spares, per-node task
  monitoring, recovery-epoch bumps, replacement acquisition, and
  graceful drain all live in :mod:`repro.runtime`; this subclass binds
  the knobs to :class:`~repro.fmi.config.FmiConfig` and supplies the
  FMI task/process classes.
* :class:`FmirunTask` -- one per node; spawns the node's application
  processes, kills its remaining children when one dies, and reports
  EXIT_FAILURE up to fmirun.
* :class:`FmiProcess` -- one per rank slot; runs the H1 -> H2 -> H3
  state machine (Figure 5).  A failure notification anywhere inside H3
  (including mid-collective, mid-checkpoint) unwinds the application
  generator and loops back to H1 -- the paper's Notified transition.

Survivor processes are *never* restarted as processes; their
in-memory checkpoint storage survives recovery, which is what makes
FMI's restart so much cheaper than MPI's relaunch.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.node import Node
from repro.fmi.checkpoint import MemoryStorage
from repro.fmi.errors import FailureNotified, FmiAbort
from repro.fmi.interval import IntervalPolicy
from repro.fmi.state import ProcState
from repro.runtime.core import RankProcess
from repro.runtime.policy import Survivable
from repro.simt.kernel import Event
from repro.simt.process import Interrupt, ProcessKilled

__all__ = ["Fmirun", "FmirunTask", "FmiProcess", "RankState"]


class RankState:
    """Per-rank FMI bookkeeping that survives application restarts
    (but not process death -- replacements start fresh)."""

    def __init__(self, config):
        self.loop_id = 0
        self.last_ckpt_loop: Optional[int] = None
        self.restore_pending = False
        self.policy = IntervalPolicy(config)


class FmiProcess(RankProcess):
    """One rank's runtime process (one incarnation)."""

    def __init__(self, job, rank: int, node: Node, incarnation: int,
                 copy: int = 0):
        #: which physical copy of the virtual rank this process is
        #: (always 0 unless recovery="replicated")
        self.copy = copy
        self.storage = MemoryStorage(node)
        self.rank_state = RankState(job.config)
        self.state = ProcState.H1_BOOTSTRAPPING
        self.notified_gen = -1
        #: True from a failure notice until H1 clears it; while set,
        #: every FMI communication call raises FailureNotified
        self.notified_pending = False
        super().__init__(job, rank, node, incarnation)

    def _ctx_label(self) -> str:
        if self.copy:
            return f"fmi:r{self.rank}c{self.copy}i{self.incarnation}"
        return f"fmi:r{self.rank}i{self.incarnation}"

    def _proc_name(self) -> str:
        if self.copy:
            return f"fmi:rank{self.rank}c{self.copy}.{self.incarnation}"
        return f"fmi:rank{self.rank}.{self.incarnation}"

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
        self.job.transitions.record(
            self.sim.now, self.rank, self.incarnation, state, self.job.epoch
        )
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
        # application generator is driven from this frame: every resume
        # of the rank walks the chain of ``yield from`` above the yield
        # it stopped at, so a level that only forwards is a call per
        # resume.
        job = self.job
        booted = False
        while True:
            try:
                if not booted:
                    yield self.sim.timeout(job.boot_latency)
                    booted = True
                yield from self._h1()
                yield from self._h2()
                result = yield from self._enter_h3()
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
        rdv = job.h1_rendezvous(self)
        yield rdv.arrive()

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
        rdv = job.h2_rendezvous(self)
        yield rdv.arrive()
        if overlay_epoch is not None:
            job.note_recovery_complete()

    def _enter_h3(self):
        """Running: the (re)started application generator."""
        self._set_state(ProcState.H3_RUNNING)
        job = self.job
        if job.epoch > 0:
            # Recovery restart: FMI_Loop must restore the checkpoint.
            self.rank_state.restore_pending = True
        return job.app(job.make_api(self))


class FmirunTask:
    """Per-node process manager (the second tier of Figure 6)."""

    def __init__(self, fmirun: "Fmirun", slot: int, node: Node):
        self.fmirun = fmirun
        self.slot = slot
        self.node = node
        self.sim = fmirun.sim
        self.failed = False
        self.children: List[FmiProcess] = []
        self._guard = node.spawn(self._task_main(), name=f"fmirun.task[{node.id}]")
        self._guard.callbacks.append(self._on_guard_exit)

    def _task_main(self):
        yield Event(self.sim)  # exists until killed (node crash / teardown)

    def _on_guard_exit(self, evt: Event) -> None:
        # Only reached by kill (node crash or job teardown).
        if not self.failed and not self.fmirun.job.finished:
            self.failed = True
            self.fmirun.on_task_failure(self, "node-crash")

    def spawn_ranks(self, ranks: List[int], incarnation: int) -> None:
        job = self.fmirun.job
        copy = self.slot // job.num_nodes  # replica tier of this slot
        for rank in ranks:
            fproc = job.make_rank_process(
                rank, self.node, incarnation=incarnation, copy=copy
            )
            self.children.append(fproc)
            fproc.proc.callbacks.append(self._child_exit(fproc))
            job.recovery.adopt(fproc)

    def _child_exit(self, fproc: FmiProcess):
        def cb(evt: Event) -> None:
            if evt._ok or self.failed or self.fmirun.job.finished:
                return
            if not self.node.alive:
                return  # node crash: guard path reports it
            if not isinstance(evt._value, ProcessKilled):
                return  # app exception: job.abort already triggered
            # A child died while the node stayed up: kill the other
            # children and exit with EXIT_FAILURE (Section IV-B).
            self.failed = True
            for sibling in self.children:
                if sibling is not fproc and sibling.proc.alive:
                    sibling.proc.kill(cause="fmirun.task sibling kill")
            # Only a *lead* copy's death is overlay-visible: follower
            # and standby deaths never joined the ring and must not
            # trigger a detector broadcast under their rank's name.
            if self.fmirun.job.rank_procs.get(fproc.rank) is fproc:
                self.fmirun.job.detector.process_died(fproc.rank, "child-death")
            self._guard.kill(cause="fmirun.task EXIT_FAILURE")
            self.fmirun.on_task_failure(self, f"child rank {fproc.rank} died")

        return cb

    def shutdown(self) -> None:
        self.failed = True
        if self._guard.alive:
            self._guard.kill(cause="job teardown")


class Fmirun(Survivable):
    """The master runtime process (head-node side).

    All the recovery machinery is inherited from
    :class:`~repro.runtime.policy.Survivable`; this subclass wires the
    policy knobs to the job's :class:`~repro.fmi.config.FmiConfig` and
    supplies :class:`FmirunTask` as the per-node monitor.
    """

    abort_error = FmiAbort

    # -- knobs from FmiConfig -------------------------------------------------
    @property
    def num_spares(self) -> int:
        return self.job.config.spare_nodes

    @property
    def max_recoveries(self) -> Optional[int]:
        return self.job.config.max_recoveries

    @property
    def replacement_timeout(self) -> Optional[float]:
        return self.job.config.replacement_timeout

    # -- FMI-specific pieces ---------------------------------------------------
    def make_task(self, slot: int, node: Node) -> FmirunTask:
        return FmirunTask(self, slot, node)

    def wrap_abort(self, cause) -> BaseException:
        if isinstance(cause, FmiAbort):
            return cause
        return FmiAbort(repr(cause))
