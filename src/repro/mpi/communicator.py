"""Communicators: ordered groups of ranks with an id for matching.

A communicator holds *logical* ranks; translation to a physical
process address happens at send time through the owning API's address
table.  That indirection is exactly what FMI virtualises: after a
recovery the same communicator object keeps working because only the
route changed (Section IV-D, "Transparent Communicator Recovery").

The eight collective methods are the collective stack's one dispatch
point (engine choice and argument validation; the algorithms live in
:mod:`repro.mpi.collectives` and :mod:`repro.mpi.macro`).
``dup``/``split`` are collective generators.  Context ids are assigned
from a per-process counter; since communicator creation is collective
and SPMD programs execute those calls in the same global order, every
member derives the same id -- the standard MPI context-id argument.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.mpi.collectives import (
    _macro_instance,
    allgather_hops,
    allreduce_hops,
    alltoall_hops,
    barrier_hops,
    bcast_hops,
    gather_hops,
    reduce_hops,
    scatter_hops,
)
from repro.mpi.datatypes import _IMMUTABLE, sizeof, snapshot
from repro.mpi.ops import SUM
from repro.net.matching import ANY_SOURCE, ANY_TAG
from repro.net.message import _Filled

__all__ = ["Communicator"]

WORLD_ID = 0


class Communicator:
    """An ordered rank group bound to one :class:`ParallelApi`."""

    __slots__ = ("api", "id", "members", "rank", "size")

    def __init__(self, api, comm_id: int, members: List[int]):
        if api.rank not in members:
            raise ValueError("cannot build a communicator I am not a member of")
        self.api = api
        self.id = comm_id
        if type(members) is range:
            # The world's ``range(size)`` (``mpi.api``) is kept as-is:
            # it is immutable, O(1) to index both ways, and costs no
            # per-rank memory -- at 16k ranks a copied world members
            # list would be O(n^2) bytes across the job.  Rank and
            # size are read off it, no call per rank.
            self.members = members
            self.rank = api.rank - members.start
            self.size = members.stop - members.start
        else:
            self.members = list(members)
            self.rank = self.members.index(api.rank)
            self.size = len(self.members)

    # -- point-to-point (events) ------------------------------------------
    # The message path: everything between a collective and
    # ``Transport.send`` / ``MatchingEngine.post`` is these two bodies.
    # What MPI and FMI differ in is data on the API they read inline
    # (``fproc``, ``ctx.epoch``, ``addr_table``, ``recovery``), so a
    # message costs no hook calls; ``recovery.on_send`` is the one seam.
    def send_async(self, dst: int, data: Any, nbytes: Optional[float] = None,
                   tag: int = 0):
        """Event firing when the message has been moved (buffered send)."""
        api = self.api
        if api.fproc.notified_pending:
            api._check_ok()
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range")
        if nbytes is None:
            size = sizeof(data)
        else:
            size = nbytes if nbytes.__class__ is float else float(nbytes)
        if not size >= 0:  # negative or NaN, before any plane sees it
            raise ValueError(f"message size must be >= 0 bytes, got {size}")
        ctx = api.ctx
        # Envelope(...)'s fill, with no __init__ frame (``net.message``)
        env = _Filled()
        env.src = self.rank
        env.dst = dst
        env.tag = tag
        env.comm_id = self.id
        env.epoch = ctx.epoch
        env.nbytes = size
        env.data = data if data.__class__ in _IMMUTABLE else snapshot(data)
        env.lseq = None
        dst_world = self.members[dst]
        on_send = api.recovery.on_send
        if on_send is not None:
            # the plane's look at every outgoing envelope: lseq
            # stamping, sender-side logging, mirror clones
            on_send(api.rank, dst_world, env, ctx)
        return api.transport.send(ctx, api.addr_table[dst_world], env)

    def post_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Event firing with the matching :class:`Envelope`."""
        api = self.api
        if api.fproc.notified_pending:
            api._check_ok()
        if source == ANY_SOURCE or tag == ANY_TAG:
            # Wildcard matches are the one nondeterministic event: a
            # logging or replicating family may pin the post to a
            # recorded match.
            evt = api.recovery.post_wildcard(api, source, tag, self.id)
            if evt is not None:
                return evt
        return api.ctx.matching.post(source, tag, self.id)

    # -- point-to-point (generators) ----------------------------------------
    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """``data = yield from comm.recv(src)``"""
        env = yield self.post_recv(source, tag)
        return env.data

    def sendrecv(self, dst: int, data: Any, source: int = ANY_SOURCE,
                 nbytes: Optional[float] = None, tag: int = 0):
        """Concurrent send+receive (deadlock-free ring/halo building block)."""
        recv_evt = self.post_recv(source, tag)
        send_evt = self.send_async(dst, data, nbytes, tag)
        env = (yield recv_evt, send_evt)[0]  # the pair: one resume
        return env.data

    # -- collectives: the one dispatch point ----------------------------------
    # Each method asks the per-transport coordinator which engine this
    # instance runs on (``None`` -> the hop-level oracle) and *returns*
    # that engine's generator: a generator here would only forward, one
    # frame under every resume of a rank inside a collective.  The
    # engine is therefore chosen (and the rank's macro sequence counter
    # advanced) when the collective is called, not at the first
    # ``next()`` of what it returns -- one line earlier for the ``yield
    # from comm.allreduce(...)`` every caller writes; do not create a
    # collective and drive it later.
    def barrier(self):
        """No rank exits before every rank has entered."""
        inst = _macro_instance(self, "barrier")
        if inst is None:
            return barrier_hops(self)
        return inst.join(self, ())

    def bcast(self, value: Any = None, root: int = 0,
              nbytes: Optional[float] = None):
        """Returns the root's value everywhere."""
        inst = _macro_instance(self, "bcast")
        if inst is None:
            return bcast_hops(self, value, root, nbytes)
        return inst.join(self, (value, root, nbytes))

    def reduce(self, value: Any, op=None, root: int = 0, nbytes=None):
        """Returns the result at root, None elsewhere."""
        inst = _macro_instance(self, "reduce")
        if inst is None:
            return reduce_hops(self, value, op or SUM, root, nbytes)
        return inst.join(self, (value, op or SUM, root, nbytes))

    def allreduce(self, value: Any, op=None, nbytes: Optional[float] = None):
        """Every rank returns the combined value."""
        inst = _macro_instance(self, "allreduce")
        if inst is None:
            return allreduce_hops(self, value, op or SUM, nbytes)
        return inst.join(self, (value, op or SUM, nbytes))

    def gather(self, value: Any, root: int = 0, nbytes=None):
        """Root returns the list ordered by rank, None elsewhere."""
        inst = _macro_instance(self, "gather")
        if inst is None:
            return gather_hops(self, value, root, nbytes)
        return inst.join(self, (value, root, nbytes))

    def allgather(self, value: Any, nbytes: Optional[float] = None):
        """Every rank returns the list ordered by rank."""
        inst = _macro_instance(self, "allgather")
        if inst is None:
            return allgather_hops(self, value, nbytes)
        return inst.join(self, (value, nbytes))

    def scatter(self, values=None, root: int = 0, nbytes=None):
        """Rank i returns ``values[i]`` from the root."""
        if self.rank == root and (values is None or len(values) != self.size):
            raise ValueError("root must pass one value per rank")
        inst = _macro_instance(self, "scatter")
        if inst is None:
            return scatter_hops(self, values, root, nbytes)
        return inst.join(self, (values, root, nbytes))

    def alltoall(self, values, nbytes: Optional[float] = None):
        """Personalized exchange; ``values[i]`` goes to rank i."""
        if len(values) != self.size:
            raise ValueError("alltoall needs one value per rank")
        inst = _macro_instance(self, "alltoall")
        if inst is None:
            return alltoall_hops(self, values, nbytes)
        return inst.join(self, (values, nbytes))

    # -- construction of derived communicators ------------------------------------
    def dup(self):
        """Collective duplicate (same members, fresh context id)."""
        yield from self.barrier()  # the agreement round
        new_id = self.api._next_comm_id()
        return Communicator(self.api, new_id, self.members)

    def split(self, color: Optional[int], key: Optional[int] = None):
        """Collective split by ``color``; rank order within each child
        follows ``(key, old rank)``.  ``color=None`` opts out
        (returns ``None``)."""
        me = (color, self.rank if key is None else key, self.rank)
        entries = yield from self.allgather(me, nbytes=24.0)
        seq = self.api._next_comm_id()
        if color is None:
            return None
        colors = sorted({c for c, _k, _r in entries if c is not None})
        color_index = colors.index(color)
        mine = sorted(
            (k, r) for c, k, r in entries if c == color
        )
        members = [self.members[r] for _k, r in mine]
        new_id = (seq << 20) | color_index
        return Communicator(self.api, new_id, members)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Comm id={self.id} rank={self.rank}/{self.size}>"
