"""Per-rank messaging APIs.

:class:`ParallelApi` is the shared machinery (communicators,
collectives, compute charging, and the data the one send and post body
in :class:`~repro.mpi.communicator.Communicator` reads); MPI and FMI
differ in that data, not in code:

* :class:`MpiApi`: the address table never changes (MPI's rank *is*
  the process), nobody bumps ``ctx.epoch`` off 0, and ``fproc`` /
  ``recovery`` keep their class-level defaults -- never notified of a
  failure, no plane looking at the sends.
* ``FmiContext`` (in :mod:`repro.fmi.api`): the table is the job's
  *current* endpoint table, ``ctx.epoch`` the current recovery epoch,
  ``fproc`` the process whose failure-notification flag gates every
  operation -- the "all FMI communication calls return an error until
  recovery" rule -- and ``recovery`` the job's recovery family.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from repro.mpi.communicator import WORLD_ID, Communicator
from repro.net.matching import ANY_SOURCE, ANY_TAG
from repro.net.transport import NetContext, Transport

__all__ = ["ParallelApi", "MpiApi", "Request"]


class Request:
    """Handle on a non-blocking operation (MPI_Request).

    ``yield from req.wait()`` completes it (returning received data for
    an ``irecv``); :meth:`done` polls without blocking (MPI_Test).
    """

    __slots__ = ("event", "_is_recv")

    def __init__(self, event, is_recv: bool):
        self.event = event
        self._is_recv = is_recv

    def done(self) -> bool:
        return self.event.processed

    def wait(self):
        result = yield self.event
        if self._is_recv:
            return result.data  # Envelope -> payload
        return None

    @staticmethod
    def waitall(requests):
        """``yield from Request.waitall(reqs)`` -> list of results."""
        out = []
        for req in requests:
            out.append((yield from req.wait()))
        return out


@lru_cache(maxsize=None)
def _world_members(size: int) -> range:
    """The world group of ``size`` ranks, one shared ``range`` per size:
    it is immutable, so every rank's world communicator holds the same."""
    return range(size)


class _NoFaultTolerance:
    """``fproc`` and ``recovery`` of an API with no FMI under it."""

    notified_pending = False
    on_send = None
    hop_fidelity = None

    @staticmethod
    def post_wildcard(api, source: int, tag: int, comm_id: int):
        return None


class ParallelApi:
    """Common per-rank API: what MPI and FMI semantics share.

    Slotted, one instance per rank; a subclass that shadows ``fproc`` /
    ``recovery`` per instance (``FmiContext``) keeps a dict for them.
    """

    __slots__ = ("transport", "sim", "ctx", "node", "addr_table",
                 "rank", "size", "_comm_seq", "world", "_hop_only")

    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG

    #: the process whose ``notified_pending`` flag gates every send and
    #: post, and the recovery family: its ``on_send`` (None: nobody
    #: looks) is the one per-message seam, its ``post_wildcard`` may
    #: replace the post of a receive whose pattern holds a wildcard,
    #: its ``hop_fidelity`` is one of the collective verdict's reasons
    fproc = recovery = _NoFaultTolerance

    def __init__(self, transport: Transport, ctx: NetContext,
                 rank: int, size: int,
                 addr_table: Dict[int, Tuple[int, int]]):
        self.transport = transport
        self.sim = transport.sim
        self.ctx = ctx
        self.node = ctx.node
        #: world rank -> transport address; the owner mutates it in
        #: place when a rank moves, so every holder sees the new route
        self.addr_table = addr_table
        #: world rank and size: plain data, read on every call of an app
        self.rank = rank
        self.size = size
        self._comm_seq = WORLD_ID
        self.world = Communicator(self, WORLD_ID, _world_members(size))
        #: while > 0, collectives issued through this API must run on
        #: the hop-level engine (checkpoint rendezvous, restore
        #: agreement -- sections where per-hop fidelity is load-bearing).
        #: A scope is ``+= 1`` then ``try: ... finally: -= 1`` around a
        #: section every participating rank runs together (SPMD), so the
        #: whole instance lands on the same engine
        self._hop_only = 0

    def _check_ok(self) -> None:
        """Raise if communication is currently forbidden: what a set
        ``fproc.notified_pending`` sends the send and post body to
        (FMI overrides it; the one specialisation hook)."""

    def _next_comm_id(self) -> int:
        self._comm_seq += 1
        return self._comm_seq

    # -- world-communicator sugar -----------------------------------------------
    def send(self, dst: int, data: Any, nbytes: Optional[float] = None,
             tag: int = 0):
        return self.world.send_async(dst, data, nbytes, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        return self.world.recv(source, tag)

    def sendrecv(self, dst: int, data: Any, source: int = ANY_SOURCE,
                 nbytes: Optional[float] = None, tag: int = 0):
        return self.world.sendrecv(dst, data, source, nbytes, tag)

    def isend(self, dst: int, data: Any, nbytes: Optional[float] = None,
              tag: int = 0) -> Request:
        """Non-blocking send; complete with ``yield from req.wait()``."""
        return Request(self.world.send_async(dst, data, nbytes, tag), is_recv=False)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``wait()`` returns the payload."""
        return Request(self.world.post_recv(source, tag), is_recv=True)

    def barrier(self):
        return self.world.barrier()

    def bcast(self, value: Any = None, root: int = 0, nbytes=None):
        return self.world.bcast(value, root, nbytes)

    def reduce(self, value: Any, op=None, root: int = 0, nbytes=None):
        return self.world.reduce(value, op, root, nbytes)

    def allreduce(self, value: Any, op=None, nbytes=None):
        return self.world.allreduce(value, op, nbytes)

    def gather(self, value: Any, root: int = 0, nbytes=None):
        return self.world.gather(value, root, nbytes)

    def allgather(self, value: Any, nbytes=None):
        return self.world.allgather(value, nbytes)

    def scatter(self, values=None, root: int = 0, nbytes=None):
        return self.world.scatter(values, root, nbytes)

    def alltoall(self, values, nbytes=None):
        return self.world.alltoall(values, nbytes)

    # -- local work -----------------------------------------------------------
    def compute(self, flops: float):
        """Event charging ``flops`` of stencil-grade compute time."""
        return self.node.compute(flops)

    def elapse(self, seconds: float):
        """Event charging raw wall time (I/O waits, sleeps...)."""
        return self.sim.timeout(seconds)

    def memcpy(self, nbytes: float):
        return self.node.memcpy(nbytes)

    @property
    def now(self) -> float:
        return self.sim.now


class MpiApi(ParallelApi):
    """The fail-stop MPI flavour: static routing, epoch always 0."""

    #: the launching job, set by the rank body: SCR and apps reach
    #: machine-level services through it
    __slots__ = ("job",)
