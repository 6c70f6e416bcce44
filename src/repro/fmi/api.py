"""FmiContext -- the per-rank handle FMI applications program against.

MPI-like semantics come from :class:`~repro.mpi.api.ParallelApi`; the
FMI specifics are:

* **virtual ranks** -- ``addr_table`` is the job's *current* endpoint
  table, so a rank keeps its identity across process replacement
  (Figure 2);
* **epoch stamping** -- every envelope carries ``ctx.epoch``, the
  current recovery epoch, and the transport drops stale pre-failure
  messages (Section IV-D);
* **failure errors** -- once ``fproc`` has been notified of a failure,
  every communication call raises
  :class:`~repro.fmi.errors.FailureNotified` until recovery completes
  (the runtime driver catches it; applications do not);
* **the recovery family** -- ``recovery.on_send`` sees every outgoing
  envelope, ``recovery.post_wildcard`` every wildcard receive;
* **FMI_Loop** -- :meth:`loop` synchronises, checkpoints, and
  rolls back / restores, per Section III-B.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.fmi.checkpoint import CheckpointEngine
from repro.fmi.errors import FailureNotified
from repro.fmi.redundancy import make_scheme
from repro.fmi.payload import Payload, copy_into, pack, unpack
from repro.mpi.api import ParallelApi
from repro.mpi.communicator import Communicator
from repro.mpi.ops import MAX, MIN

__all__ = ["FmiContext"]

#: reserved communicator-id space for XOR-group communicators
GROUP_COMM_BASE = 1 << 30

CkptBuffer = Union[np.ndarray, Payload]


class FmiContext(ParallelApi):
    """What an FMI application generator receives."""

    def __init__(self, fproc):
        job = fproc.job
        super().__init__(job.transport, fproc.ctx, fproc.rank, job.num_ranks,
                         job.addr_table)
        self.fproc = fproc
        self.fmi_job = job
        self.recovery = job.recovery
        layout = job.xor_layout
        group_idx = layout.group_of(fproc.rank)
        self.group_comm = Communicator(
            self, GROUP_COMM_BASE + group_idx, layout.members(group_idx)
        )
        self.engine = CheckpointEngine(
            self.group_comm, fproc.storage, self.memcpy,
            scheme=make_scheme(job.config.redundancy),
        )
        self.l2store = None
        if job.config.level2_every is not None:
            from repro.fmi.multilevel import Level2Store

            self.l2store = Level2Store(job.machine.pfs, job.job_id, fproc.rank)

    def _check_ok(self) -> None:
        if self.fproc.notified_pending:
            raise FailureNotified(
                self.fproc.notified_gen, "communication after failure notice"
            )

    # -- the programming model (Figure 3) ------------------------------------------
    def init(self):
        """``FMI_Init``.  The heavy lifting (PMGR bootstrap, log-ring
        build) happened in the runtime's H1/H2 states before the
        application generator started, so this is a cheap sync point
        kept for API fidelity."""
        self._check_ok()
        return None
        yield  # pragma: no cover - makes this a generator

    def finalize(self):
        """``FMI_Finalize``: global barrier, then teardown."""
        yield self.barrier()

    def loop(self, ckpts: Sequence[CkptBuffer], nbytes: Optional[Sequence[float]] = None):
        """``FMI_Loop(ckpts, sizes, len)``.

        Returns the loop id (0, 1, 2, ... in failure-free execution).
        On the first call after a recovery it restores the last good
        checkpoint *into* ``ckpts`` and returns the loop id at which
        that checkpoint was written; the application then redoes the
        lost iterations.  Checkpoints are written on the first call and
        thereafter per the interval policy (fixed interval or
        Vaidya-tuned from the configured MTBF).

        The whole call runs in a ``_hop_only`` scope: checkpoint
        rendezvous, restore agreement and log replay are exactly where
        per-hop message timing is load-bearing, so the collectives
        inside never take the macro-event fast path.
        """
        # The protocol subroutines below (the restore, the checkpoint
        # decision, the checkpoint, the level-2 flush) are handed off
        # with a bare ``yield`` (``simt.process``): a resume of a rank
        # inside one enters its frames only, never the application's
        # or this one to forward.  Helpers of an event or two
        # (``copy_into``, the level-2 store's) delegate: handed off,
        # each would cost a ``send`` and a re-entry more than it saves.
        # The ``_hop_only`` scope is a counter, not a ``with``, for the
        # same reason; a kill closes the subroutine, then the
        # application, so the ``finally`` runs once.
        self._hop_only += 1
        try:
            self._check_ok()
            fproc = self.fproc
            family = self.recovery
            if fproc.restore_pending:
                fproc.restore_pending = False
                restored = yield family.restore(self)
                fproc.fresh = False
                if restored == "beyond-xor":
                    restored = yield self._restore_from_level2()
                if restored is not None:
                    meta, payloads = restored
                    yield from copy_into(self.memcpy, ckpts, payloads)
                    fproc.loop_id = meta.dataset_id + 1
                    fproc.policy.reset_after_recovery(self.now)
                    self.fmi_job.restores_done += 1
                    return meta.dataset_id
                # Cold start: the failure predates the first checkpoint.
                fproc.loop_id = 0
                fproc.policy = type(fproc.policy)(self.fmi_job.config)

            want = fproc.policy.should_checkpoint(self.now)
            if self.fmi_job.config.checkpoint_enabled:
                # "FMI_Loop ... synchronizes the application": the
                # checkpoint decision is global, so a time-based (Vaidya)
                # policy can never split the ranks.
                want = bool((yield self.allreduce(1 if want else 0, MAX)))
            if want:
                t0 = self.now
                payloads = pack(ckpts, nbytes)
                family.note_ckpt_begin(self.rank, fproc.loop_id, self.ctx)
                meta = yield self.engine.checkpoint(
                    payloads, dataset_id=fproc.loop_id)
                fproc.policy.record_checkpoint(self.now, self.now - t0)
                self.fmi_job.checkpoints_done += 1
                family.note_rank_checkpoint(self.rank, fproc.loop_id, self.ctx)
                if (
                    self.l2store is not None
                    and fproc.loop_id >= self.fmi_job.next_l2_at
                ):
                    yield self._flush_level2(meta)

            current = fproc.loop_id
            fproc.loop_id += 1
            return current
        finally:
            self._hop_only -= 1

    # -- level 2 (multilevel C/R, §VIII) ---------------------------------------
    def _flush_level2(self, meta):
        """Copy the just-written level-1 dataset to the PFS and stamp
        it complete once every rank has flushed."""
        job = self.fmi_job
        ds = meta.dataset_id
        blob = yield from self.engine.load_blob(ds)
        yield from self.l2store.flush(ds, blob, meta.sections)
        yield self.barrier()  # everyone's blob is on the PFS
        if self.rank == 0:
            yield from self.l2store.mark_complete(ds, self.size)
        yield self.barrier()  # marker visible before proceeding
        keep = self.l2store.complete_datasets()[-2:]
        self.l2store.prune(keep)
        job.next_l2_at = ds + job.config.level2_every
        if self.rank == 0:
            job.level2_flushes += 1

    def _restore_from_level2(self):
        """The failure exceeded XOR protection: roll the whole job back
        to the newest complete PFS dataset, then re-seed level 1."""
        job = self.fmi_job
        ds = yield self.allreduce(self.l2store.latest_for_me(), MIN)
        if ds < 0:
            return None  # no level-2 dataset either: cold start
        blob, sections = yield from self.l2store.read(ds)
        payloads = unpack(blob, sections)
        # Local level-1 state is a stale timeline; wipe and re-encode
        # so the XOR tier protects the restored state immediately.
        yield from self.engine.reset_local()
        meta = yield self.engine.checkpoint(payloads, dataset_id=ds)
        if self.rank == 0:
            job.level2_restores += 1
        return meta, payloads

