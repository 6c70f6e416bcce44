"""Message envelopes.

An :class:`Envelope` is what travels through the transport: addressing
(rank, tag, communicator), the *epoch* stamp used to discard stale
pre-failure traffic (Section IV-D), a declared byte count for timing,
and the actual payload object for data fidelity.  It carries no
identity of its own: each envelope is sent once, so the object is the
message, and an omission duplicate's twin travels with the same one
(``net.transport``).  The lseq planes stamp the one identity a
re-executing sender reproduces.

The hot site, ``Communicator.send_async``, builds a :class:`_Filled`
and fills its slots itself, with no ``__init__`` frame; ``Envelope(...)``
is the constructor everywhere else.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Envelope"]


class Envelope:
    """One message in flight.

    A plain ``__slots__`` class (not a dataclass): one envelope is
    allocated per simulated message, so construction cost and per-
    instance dicts matter.
    """

    __slots__ = ("src", "dst", "tag", "comm_id", "epoch", "nbytes",
                 "data", "lseq")

    def __init__(
        self,
        src: int,
        dst: int,
        tag: int,
        comm_id: int,
        epoch: int,
        nbytes: float,
        data: Any = None,
    ):
        #: sender's / destination rank within ``comm_id``
        self.src = src
        self.dst = dst
        self.tag = tag
        self.comm_id = comm_id
        #: recovery epoch the message was sent in; receivers drop
        #: envelopes from older epochs (stale pre-failure messages)
        self.epoch = epoch
        #: declared size for timing purposes
        self.nbytes = nbytes
        #: the payload object (numpy array, Python object, Payload...)
        self.data = data
        #: channel identity ``(sender_world_rank, dst_world_rank, n)``;
        #: stamped only when an lseq recovery plane is active.  It is
        #: *reproduced* when a rolled-back sender re-executes, so
        #: receivers can suppress duplicate re-sends during replay.
        self.lseq = None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Env {self.src}->{self.dst} tag={self.tag} comm={self.comm_id} "
            f"epoch={self.epoch} {self.nbytes:.0f}B>"
        )


class _Filled(Envelope):
    """An envelope whose one building site fills every slot
    :meth:`Envelope.__init__` writes, ``lseq`` included: built with no
    Python frame, as the kernel's records are (``simt.kernel``)."""

    __slots__ = ()
    __init__ = object.__init__
