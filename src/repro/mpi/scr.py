"""SCR -- the Scalable Checkpoint/Restart library (the MPI-side C/R).

The paper's baseline writes checkpoints "to memory via a file system"
(tmpfs) with the same XOR encoding FMI uses, plus optional level-2
copies to the parallel filesystem.  We reuse the XOR engine with the
:class:`~repro.fmi.checkpoint.TmpfsStorage` adapter; the filesystem
detour (bandwidth + open latency) is what makes MPI+C ~10 % slower
than FMI+C in Fig 15.

Because MPI is fail-stop, SCR is *application-driven*: the app calls
:meth:`Scr.restart` at startup (after a relaunch it finds the latest
dataset, rebuilding a replaced node's files from the XOR group) and
:meth:`Scr.checkpoint` inside its loop.  ``need_checkpoint_collective``
implements the same fixed-interval / Vaidya-MTBF policy as FMI_Loop,
with FMI_Loop's job-wide agreement.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.fmi.checkpoint import CheckpointEngine, TmpfsStorage
from repro.fmi.config import FmiConfig
from repro.fmi.interval import IntervalPolicy
from repro.fmi.payload import Payload, copy_into, pack
from repro.fmi.xor_group import XorGroupLayout
from repro.mpi.api import MpiApi
from repro.mpi.communicator import Communicator

__all__ = ["Scr"]

#: reserved communicator-id space for SCR's XOR groups
SCR_COMM_BASE = 1 << 29


class Scr:
    """Per-rank SCR context (create one inside the application)."""

    def __init__(
        self,
        api: MpiApi,
        procs_per_node: int,
        group_size: int = 16,
        interval: Optional[int] = None,
        mtbf_seconds: Optional[float] = None,
    ):
        self.api = api
        self.layout = XorGroupLayout(api.size, procs_per_node, group_size)
        gid = self.layout.group_of(api.rank)
        self.group_comm = Communicator(
            api, SCR_COMM_BASE + gid, self.layout.members(gid)
        )
        self.storage = TmpfsStorage(api.node, prefix=f"scr/r{api.rank}")
        self.engine = CheckpointEngine(self.group_comm, self.storage, api.memcpy)
        self.policy = IntervalPolicy(
            FmiConfig(interval=interval, mtbf_seconds=mtbf_seconds)
        )

    # -- write path --------------------------------------------------------
    def need_checkpoint_collective(self):
        """Job-wide checkpoint decision: any rank's yes is everyone's, so
        a time-based policy cannot split the ranks."""
        from repro.mpi.ops import MAX

        want = self.policy.should_checkpoint(self.api.now)
        agreed = yield from self.api.allreduce(1 if want else 0, MAX)
        return bool(agreed)

    def checkpoint(self, buffers: Sequence[np.ndarray], dataset_id: int,
                   nbytes: Optional[Sequence[float]] = None):
        """Level-1 checkpoint: tmpfs write + XOR encode across nodes."""
        t0 = self.api.now
        meta = yield from self.engine.checkpoint(pack(buffers, nbytes), dataset_id)
        self.policy.record_checkpoint(self.api.now, self.api.now - t0)
        return meta

    # -- read path -----------------------------------------------------------
    def restart(self):
        """Find and restore the latest dataset after a (re)launch.

        Returns ``(dataset_id, payloads)`` or ``None`` on a cold start.
        Rebuilds a missing member's files from the XOR group when a
        replacement node joined the allocation.  A relaunch cannot tell
        a replaced node from a survivor that never checkpointed, so no
        member is ``fresh``: a group that lost every node cold-starts.
        """
        restored = yield from self.engine.restore(world=self.api)
        if restored is None:
            return None
        meta, payloads = restored
        self.policy.reset_after_recovery(self.api.now)
        return meta.dataset_id, payloads

    def restore_into(self, buffers: Sequence[np.ndarray], payloads: List[Payload]):
        """Copy restored payloads into application arrays (generator;
        the checks and the charge FMI_Loop applies)."""
        return copy_into(self.api.memcpy, buffers, payloads)
