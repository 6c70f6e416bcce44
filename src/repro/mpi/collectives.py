"""Collective algorithms over a communicator.

Two engines sit behind each of the eight collectives a
:class:`~repro.mpi.communicator.Communicator` offers (``bcast``,
``reduce``, ``allreduce``, ``barrier``, ``gather``, ``allgather``,
``scatter``, ``alltoall``):

* The **hop-level** engine (the ``*_hops`` generators): real
  message-passing algorithms, not analytic shortcuts -- the cost of a
  collective emerges from the individual messages moving through the
  simulated fabric, so log-scaling, NIC contention and message-size
  effects come out of the same calibrated constants as everything
  else.  This is the conformance oracle: its behaviour is the ground
  truth the fast path is tested against.
* The **macro-event** fast path (:mod:`repro.mpi.macro`): when
  nothing makes per-hop fidelity load-bearing, the whole collective
  becomes one closed-form-priced kernel event.  That is what makes
  16k-rank simulations tractable.

Selection is the library's own decision (mode ``auto``): each
collective instance runs macro unless
:meth:`MacroCollectives.verdict <repro.mpi.macro.MacroCollectives.verdict>`
names a reason; its docstring lists them in priority order, and a
tracer is not one of them.  The one process-level override is
:func:`set_collective_mode`:

* ``auto`` (default, and what ``None`` restores);
* ``hops``: always the hop-level engine, without consulting the
  coordinator at all;
* ``macro``: the same as ``auto``, still accepted for the callers that
  pass it.

Nothing here reads the environment.

Hop-level algorithms (the usual MPICH choices):

* ``bcast``      -- binomial tree
* ``reduce``     -- binomial tree (commutative ops)
* ``allreduce``  -- recursive doubling with the standard fold-in
                    pre/post steps for non-power-of-two sizes
* ``barrier``    -- dissemination
* ``gather``     -- binomial tree
* ``allgather``  -- ring
* ``scatter``    -- linear from root (small comms only in our apps)
* ``alltoall``   -- ring-schedule pairwise exchange

The ``*_hops`` functions are the generators themselves; the comm
object supplies ``rank``, ``size``, ``send_async(dst, data, nbytes,
tag)`` and ``post_recv(src, tag)``.  Nobody calls them by name but the
one dispatch point: ``Communicator.<kind>`` validates its arguments,
asks :func:`_macro_instance` which engine this instance runs on and
hands that engine's generator back.  What this module keeps is what
only it can: the tags, the process-level mode switch, the coordinator
lookup and the oracle algorithms.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.mpi.datatypes import sizeof, wire_bytes
from repro.mpi.ops import SUM

__all__ = [
    "bcast_hops",
    "reduce_hops",
    "allreduce_hops",
    "barrier_hops",
    "gather_hops",
    "allgather_hops",
    "scatter_hops",
    "alltoall_hops",
    "set_collective_mode",
    "TAG_BCAST",
    "TAG_REDUCE",
    "TAG_ALLREDUCE",
    "TAG_BARRIER",
    "TAG_GATHER",
    "TAG_ALLGATHER",
    "TAG_SCATTER",
    "TAG_ALLTOALL",
]

# Reserved tag space, far above anything applications use.  Collectives
# of the same kind on the same communicator match FIFO pairwise, so a
# single tag per kind is safe (the usual MPI-internals trick).
_BASE = 1 << 24
TAG_BCAST = _BASE + 1
TAG_REDUCE = _BASE + 2
TAG_ALLREDUCE = _BASE + 3
TAG_BARRIER = _BASE + 4
TAG_GATHER = _BASE + 5
TAG_ALLGATHER = _BASE + 6
TAG_SCATTER = _BASE + 7
TAG_ALLTOALL = _BASE + 8

#: bytes of a zero-payload control message (the macro path prices its
#: barrier with the same constant)
_TINY = 4.0


# -- engine selection --------------------------------------------------------

#: ``macro`` selects what ``auto`` does; it stays valid for the callers
#: that still pass it
_VALID_MODES = ("auto", "hops", "macro")

_MODE = "auto"


def set_collective_mode(mode: Optional[str]) -> str:
    """Override the engine mode (``None`` restores ``"auto"``).

    Returns the previous mode so callers can save/restore.
    """
    global _MODE
    if mode is None:
        mode = "auto"
    elif mode not in _VALID_MODES:
        raise ValueError(
            f"unknown collective mode {mode!r}: expected one of {_VALID_MODES}"
        )
    prev = _MODE
    _MODE = mode
    return prev


def _macro_instance(comm, kind: str):
    """Consult the per-transport coordinator; ``None`` means hop path.

    Single-rank communicators never consult (the hop generators
    short-circuit them for free), so per-rank sequence counters stay
    aligned across ranks trivially.
    """
    if comm.size == 1 or _MODE == "hops":
        return None
    transport = comm.api.transport
    macro = transport.macro
    if macro is None:
        from repro.mpi.macro import MacroCollectives

        macro = transport.macro = MacroCollectives(transport)
    return macro.instance(comm, kind)


# -- hop-level engine (the conformance oracle) -------------------------------


def bcast_hops(comm, value: Any = None, root: int = 0, nbytes: Optional[float] = None):
    """Binomial-tree broadcast; returns the root's value everywhere."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            src = (relative - mask + root) % size
            env = yield comm.post_recv(src, TAG_BCAST)
            value = env.data
            nbytes = env.nbytes
            break
        mask <<= 1
    if nbytes is None:
        nbytes = sizeof(value)
    mask >>= 1
    while mask >= 1:
        if relative + mask < size:
            dst = (relative + mask + root) % size
            yield comm.send_async(dst, value, nbytes, TAG_BCAST)
        mask >>= 1
    return value


def reduce_hops(comm, value: Any, op: Callable = SUM, root: int = 0,
                nbytes: Optional[float] = None):
    """Binomial-tree reduction; returns the result at root, None elsewhere."""
    size, rank = comm.size, comm.rank
    nbytes = wire_bytes(value, nbytes)
    if size == 1:
        return value
    relative = (rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if relative & mask:
            dst = (relative - mask + root) % size
            yield comm.send_async(dst, acc, nbytes, TAG_REDUCE)
            return None
        src_rel = relative + mask
        if src_rel < size:
            env = yield comm.post_recv((src_rel + root) % size, TAG_REDUCE)
            acc = op(acc, env.data)
        mask <<= 1
    return acc


def allreduce_hops(comm, value: Any, op: Callable = SUM,
                   nbytes: Optional[float] = None):
    """Recursive-doubling allreduce (handles non-power-of-two sizes)."""
    size, rank = comm.size, comm.rank
    nbytes = wire_bytes(value, nbytes)
    if size == 1:
        return value
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2

    acc = value
    newrank = -1
    # Fold the first 2*rem ranks pairwise so pof2 participants remain.
    if rank < 2 * rem:
        if rank % 2 == 0:
            yield comm.send_async(rank + 1, acc, nbytes, TAG_ALLREDUCE)
            newrank = -1  # spectator until the post-step
        else:
            env = yield comm.post_recv(rank - 1, TAG_ALLREDUCE)
            acc = op(acc, env.data)
            newrank = rank // 2
    else:
        newrank = rank - rem

    if newrank != -1:
        # Hot loop: hoist the bound methods so each hop pays two local
        # calls instead of repeated attribute walks through the comm.
        post_recv = comm.post_recv
        send_async = comm.send_async
        mask = 1
        while mask < pof2:
            partner = newrank ^ mask
            # back to a real rank: the folded pairs kept their odd half
            partner = partner * 2 + 1 if partner < rem else partner + rem
            recv_evt = post_recv(partner, TAG_ALLREDUCE)
            # the pair (simt.process): the send, then the receive, in
            # one resume; indexed, not unpacked, so the frame has no
            # slot for the send's value
            env = (yield send_async(
                partner, acc, nbytes, TAG_ALLREDUCE), recv_evt)[1]
            acc = op(acc, env.data)
            mask <<= 1

    # Post-step: odd folded ranks push the result back to their pair.
    if rank < 2 * rem:
        if rank % 2 == 1:
            yield comm.send_async(rank - 1, acc, nbytes, TAG_ALLREDUCE)
        else:
            env = yield comm.post_recv(rank + 1, TAG_ALLREDUCE)
            acc = env.data
    return acc


def barrier_hops(comm):
    """Dissemination barrier: ceil(log2 n) rounds of tiny messages."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    post_recv = comm.post_recv
    send_async = comm.send_async
    mask = 1
    while mask < size:
        dst = (rank + mask) % size
        src = (rank - mask) % size
        recv_evt = post_recv(src, TAG_BARRIER)
        yield send_async(dst, None, _TINY, TAG_BARRIER), recv_evt
        mask <<= 1


def gather_hops(comm, value: Any, root: int = 0,
                nbytes: Optional[float] = None):
    """Binomial-tree gather; root returns the list ordered by rank."""
    size, rank = comm.size, comm.rank
    nbytes = wire_bytes(value, nbytes)
    items = {rank: value}
    if size == 1:
        return [value]
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            dst = (relative - mask + root) % size
            yield comm.send_async(dst, items, nbytes * len(items), TAG_GATHER)
            return None
        src_rel = relative + mask
        if src_rel < size:
            env = yield comm.post_recv((src_rel + root) % size, TAG_GATHER)
            items.update(env.data)
        mask <<= 1
    return [items[r] for r in range(size)]


def allgather_hops(comm, value: Any, nbytes: Optional[float] = None):
    """Ring allgather: size-1 steps, each forwarding one block."""
    size, rank = comm.size, comm.rank
    nbytes = wire_bytes(value, nbytes)
    blocks: List[Any] = [None] * size
    blocks[rank] = value
    if size == 1:
        return blocks
    right = (rank + 1) % size
    left = (rank - 1) % size
    send_block = rank
    post_recv = comm.post_recv
    send_async = comm.send_async
    for _step in range(size - 1):
        recv_evt = post_recv(left, TAG_ALLGATHER)
        env = (yield send_async(
            right, (send_block, blocks[send_block]), nbytes, TAG_ALLGATHER
        ), recv_evt)[1]
        idx, blk = env.data
        blocks[idx] = blk
        send_block = idx
    return blocks


def scatter_hops(comm, values: Optional[List[Any]] = None, root: int = 0,
                 nbytes: Optional[float] = None):
    """Root sends item i to rank i (linear; fine for small comms).
    ``Communicator.scatter`` has checked the root's list."""
    size, rank = comm.size, comm.rank
    if rank == root:
        for dst in range(size):
            if dst != root:
                # price each destination's own item (an explicit
                # nbytes still applies uniformly)
                yield comm.send_async(
                    dst, values[dst], wire_bytes(values[dst], nbytes),
                    TAG_SCATTER,
                )
        return values[root]
    env = yield comm.post_recv(root, TAG_SCATTER)
    return env.data


def alltoall_hops(comm, values: List[Any], nbytes: Optional[float] = None):
    """Pairwise exchange on a ring schedule; values[i] goes to rank i.
    ``Communicator.alltoall`` has checked the list's length."""
    size, rank = comm.size, comm.rank
    result: List[Any] = [None] * size
    result[rank] = values[rank]
    post_recv = comm.post_recv
    send_async = comm.send_async
    for step in range(1, size):
        dst = (rank + step) % size
        src = (rank - step) % size
        recv_evt = post_recv(src, TAG_ALLTOALL)
        # price each destination's own item, not values[0]'s size
        env = (yield send_async(
            dst, values[dst], wire_bytes(values[dst], nbytes), TAG_ALLTOALL
        ), recv_evt)[1]
        result[src] = env.data
    return result
