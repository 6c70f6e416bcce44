"""FmiJob -- launch an FMI application and run it through failures."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.machine import Machine
from repro.fmi.config import FmiConfig
from repro.fmi.api import FmiContext
from repro.fmi.detector import LogRingDetector
from repro.fmi.msglog import RecoveryPlane
from repro.fmi.replication import ReplicationPlane
from repro.fmi.runtime import Fmirun, FmiProcess, RecoveryFamily
from repro.fmi.xor_group import XorGroupLayout
from repro.net.pmgr import PmgrRendezvous
from repro.runtime.core import JobBase

__all__ = ["FmiJob"]

#: ``FmiConfig.recovery`` -> the job's recovery family
_FAMILIES = {
    "global": RecoveryFamily,
    "logged": RecoveryPlane,
    "replicated": ReplicationPlane,
}

AppFactory = Callable[[FmiContext], Any]  # callable(fmi) -> generator


class FmiJob(JobBase):
    """One FMI application run (the ``fmirun`` invocation).

    The job object is also the runtime's shared blackboard: the
    recovery epoch, the virtual-rank endpoint table, the per-epoch H1
    rendezvous, the log-ring detector, and the statistics every
    benchmark reads.  Launch/context/abort machinery is inherited from
    :class:`~repro.runtime.core.JobBase`; the survivable behaviour is
    the attached :class:`~repro.fmi.runtime.Fmirun` policy, whose bind
    refuses an illegal job (:meth:`FmiConfig.check_job`) at
    construction.

    Typical use::

        job = FmiJob(machine, app, num_ranks=48, procs_per_node=12,
                     config=FmiConfig(interval=5, xor_group_size=4))
        results = sim.run(until=job.launch())
    """

    def __init__(
        self,
        machine: Machine,
        app: AppFactory,
        num_ranks: int,
        procs_per_node: int = 1,
        config: Optional[FmiConfig] = None,
        name: str = "fmi",
        alloc=None,
    ):
        self.config = config or FmiConfig()
        super().__init__(
            machine, app, num_ranks, procs_per_node,
            policy=Fmirun(), name=name,
            sw_overhead=machine.spec.network.sw_overhead_fmi,
            alloc=alloc,
        )
        self.fmirun: Fmirun = self.policy  # the runtime's public name
        #: the recovery epoch: bumped by ``Fmirun.begin_recovery``,
        #: stamped on every envelope of the global family
        self.epoch = 0
        #: (time, cause) of the failure that opened each epoch >= 1
        self.recovery_causes: List[Tuple[float, str]] = []
        self.xor_layout = XorGroupLayout(
            num_ranks, procs_per_node, self.config.xor_group_size
        )
        self.detector = LogRingDetector(self)
        #: everything that differs between global rollback, message
        #: logging and replication sits behind this one object
        self.recovery: RecoveryFamily = _FAMILIES[self.config.recovery](self)
        #: ``("H1" | "H2", scope key)`` -> that rendezvous
        self._rdv: Dict[Tuple[str, Any], PmgrRendezvous] = {}

        # -- statistics --
        self.recovered_at: Dict[int, float] = {}
        self.checkpoints_done = 0
        self.restores_done = 0
        #: level-2 (multilevel C/R) bookkeeping
        self.next_l2_at = 0
        self.level2_flushes = 0
        self.level2_restores = 0

    # -- runtime services (called by FmiProcess) -------------------------------------
    def rendezvous(self, state: str, fproc: FmiProcess) -> PmgrRendezvous:
        """The ``"H1"`` or ``"H2"`` rendezvous ``fproc`` joins in its
        scope; only H1 pays the PMGR bootstrap."""
        key, size, scale = self.recovery.rendezvous_scope(fproc)
        rdv = self._rdv.get((state, key))
        if rdv is None:
            cost = (self.machine.spec.fmi_bootstrap_time(scale)
                    if state == "H1" else 0.0)
            rdv = self._rdv[state, key] = PmgrRendezvous(self.sim, size, cost)
        return rdv

    def note_recovery_complete(self) -> None:
        epoch = self.epoch
        if epoch not in self.recovered_at:
            # the first world rendezvous to complete ends init, in
            # epoch 0 or, after a failure before boot, a later one
            if not self.recovered_at:
                self.init_done_at = self.sim.now
            self.recovered_at[epoch] = self.sim.now
            # under global rollback every rank is back in H3 at
            # ``epoch`` now, so an older epoch's instance is dead; a
            # hop-only family keeps none, and its survivors go on
            # counting their calls at the epoch they run in
            macro = self.transport.macro
            if macro is not None and self.recovery.hop_fidelity is None:
                macro.retire(epoch)
            if self.sim.tracer.enabled and epoch > 0:
                # begin_recovery bumps the epoch and records its cause
                # together
                start, cause = self.recovery_causes[epoch - 1]
                self.sim.tracer.complete(
                    "recovery", "recovery", start, epoch=epoch, cause=cause,
                    job=self.job_id,
                )

    def _on_rank_finished(self, rank: int) -> None:
        self.detector.leave(rank)

    def _detach(self) -> None:
        super()._detach()
        self.detector.detach()

    # -- observability ---------------------------------------------------------------
    @property
    def recovery_count(self) -> int:
        return self.epoch

    def recovery_latency(self, epoch: int) -> Optional[float]:
        """Seconds from the failure that opened ``epoch`` to the moment
        every rank was back in H3; None for epoch 0 (no failure opened
        it) or an epoch not yet recovered."""
        if epoch < 1 or epoch not in self.recovered_at:
            return None
        # begin_recovery bumps the epoch and records its cause together
        return self.recovered_at[epoch] - self.recovery_causes[epoch - 1][0]
