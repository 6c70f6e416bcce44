"""Pluggable checkpoint-redundancy schemes (SCR's level-1 trio).

The paper's Section II describes SCR's level-1 redundancy options --
node-local only, partner replication, and XOR encoding -- of which the
2014 FMI prototype hardwires XOR.  Here each option is a
:class:`RedundancyScheme` the generic
:class:`~repro.fmi.checkpoint.CheckpointEngine` drives, so the engine
owns the protocol (geometry agreement, dataset versioning, keep-2
pruning, group/world restore agreement) and the scheme owns only the
data plane:

* :class:`XorScheme` -- the paper's ring-pipelined parity (Figure 9):
  ``s/(n-1)`` storage overhead, tolerates one lost member per group.
* :class:`PartnerScheme` -- full-copy replication to the next group
  member (a la ReStore / FTHP-MPI): 100 % storage overhead, cheaper
  encode (``s`` instead of ``s + s/(n-1)`` on the wire), tolerates any
  failure pattern without two *adjacent* members lost.
* :class:`SingleScheme` -- node-local only: zero overhead, zero
  network cost, tolerates no lost member (pair with level 2 to get
  SCR's LOCAL+PFS configuration).

Group members are laid out across distinct nodes
(:class:`~repro.fmi.xor_group.XorGroupLayout`), so a partner copy is
automatically off-node.  Each scheme's analytic cost and storage
overhead live in :mod:`repro.models.cr_model`, keyed by the scheme's
``name``; benchmarks and regression tests check each scheme against
its own prediction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fmi.payload import Payload
from repro.fmi.xor_codec import chunk_of_slot, slot_of_chunk, split_into_chunks
from repro.net.matching import ANY_SOURCE

__all__ = [
    "RedundancyScheme",
    "XorScheme",
    "PartnerScheme",
    "SingleScheme",
    "make_scheme",
    "SCHEMES",
    "TAG_XOR_RING",
    "TAG_XOR_GATHER",
    "TAG_XOR_META",
    "TAG_XOR_PARITY",
    "TAG_PARTNER",
    "TAG_PARTNER_META",
]

TAG_XOR_RING = (1 << 25) + 1
TAG_XOR_GATHER = (1 << 25) + 2
TAG_XOR_META = (1 << 25) + 3
TAG_XOR_PARITY = (1 << 25) + 4
TAG_PARTNER = (1 << 25) + 5
TAG_PARTNER_META = (1 << 25) + 6


def _blob_key(ds: int) -> str:
    return f"ckpt@{ds}"


def _meta_key(ds: int) -> str:
    return f"meta@{ds}"


class RedundancyScheme:
    """The data-plane strategy behind one checkpoint engine.

    Bound to exactly one :class:`~repro.fmi.checkpoint.CheckpointEngine`
    (which supplies the group communicator, the storage adapter, and
    the memory-charge hook).  ``encode``/``assist_rebuild``/
    ``rebuild_replacement`` are generators driven from inside a rank
    process; they move *real bytes* so restores are bit-exact.
    """

    name = "?"

    def bind(self, engine) -> None:
        self.engine = engine
        self.comm = engine.comm
        self.storage = engine.storage
        self.mem_charge = engine.mem_charge

    # -- geometry ----------------------------------------------------------
    def pad_multiple(self, n: int) -> int:
        """Blobs are padded to a multiple of this (XOR needs chunks to
        split evenly)."""
        return 1

    def redundancy_key(self, dataset: int) -> Optional[str]:
        """Storage key of this scheme's redundancy data, or None."""
        return None

    # -- encode -------------------------------------------------------------
    def encode(self, blob: Payload):
        """Generator: produce this member's redundancy payload for the
        (padded) ``blob``, or None when the scheme stores none."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- repair --------------------------------------------------------------
    def can_repair(self, missing: List[int], n: int) -> bool:
        """Can this scheme rebuild the given missing group positions?"""
        return not missing

    def rebuild_replacement(self, f: int, dataset: int):
        """Generator, run on the replacement member ``f``: receive the
        rebuilt blob.  Returns ``(blob, redundancy_or_None,
        group_meta)``; the engine stores all three."""
        raise NotImplementedError
        yield  # pragma: no cover

    def assist_rebuild(self, f: int, dataset: int):
        """Generator, run on every survivor while ``f`` rebuilds.
        Returns this survivor's own (padded) blob when the assist
        loaded it anyway (saves the engine a second read), else None.
        """
        raise NotImplementedError
        yield  # pragma: no cover


class XorScheme(RedundancyScheme):
    """Ring-pipelined XOR parity -- the paper's Section V scheme.

    * **encode** (Figure 9): every group member starts a zeroed parity
      buffer, sends it around the ring for ``n`` steps, XORing in one
      local chunk per step; after ``n`` steps each member holds its
      completed parity slot.  Per member: ``s + s/(n-1)`` bytes
      transferred, ``s`` bytes XORed -- exactly the Section V-B model.
    * **rebuild**: the ``n - 1`` chunk reconstructions run as rotated
      pipelines over the survivor ring (decode time ~ encode time),
      then the replacement gathers one rebuilt chunk per survivor (the
      extra ``s/net_bw`` stage of Figs 11/12) while a binomial pass
      regenerates the lost parity slot.
    """

    name = "xor"

    def pad_multiple(self, n: int) -> int:
        return max(1, n - 1)

    def redundancy_key(self, dataset: int) -> str:
        return f"parity@{dataset}"

    def can_repair(self, missing: List[int], n: int) -> bool:
        return len(missing) <= 1

    def encode(self, blob: Payload):
        n = self.comm.size
        i = self.comm.rank
        if n == 1:  # degenerate group: no parity partner
            return Payload.zeros_like(blob)
        chunks = split_into_chunks(blob, n)
        right = (i + 1) % n
        left = (i - 1) % n
        buf = Payload.zeros_like(chunks[0])
        for step in range(n):
            recv_evt = self.comm.post_recv(left, TAG_XOR_RING)
            env = (yield self.comm.send_async(
                right, buf, buf.nbytes, TAG_XOR_RING), recv_evt)[1]
            buf = env.data
            slot = (i - 1 - step) % n
            if slot != i:
                yield self.mem_charge(buf.nbytes)
                buf.xor_inplace(chunks[chunk_of_slot(i, slot, n)])
        return buf  # my parity slot P_i, complete after n hops

    def assist_rebuild(self, f: int, dataset: int):
        """Survivor side of the decode (same ring structure as encode).

        The ``n - 1`` chunk reconstructions run as *rotated* pipelines
        over the survivor ring: chunk ``m`` starts at survivor
        ``m mod (n-1)``, visits every survivor (each XORs in its
        contribution), and terminates at a *different* survivor for
        each ``m`` -- so at every step all survivor links are busy
        (decode time ~ encode time), and afterwards each survivor holds
        exactly one rebuilt chunk.  The replacement then "collects the
        decoded checkpoint chunks from the other ranks" (Section V-A),
        the extra ``s/net_bw`` Gather stage of Fig 11.  A final pass
        regenerates the lost parity slot ``P_f`` so the group is fully
        protected again.
        """
        n = self.comm.size
        me = self.comm.rank
        blob = yield from self.storage.load(_blob_key(dataset))
        parity = yield from self.storage.load(self.redundancy_key(dataset))
        chunks = split_into_chunks(blob, n)
        survivors = [r for r in range(n) if r != f]
        ns = len(survivors)
        p = survivors.index(me)
        if p == 0:
            # Ship the replicated group metadata so the replacement can
            # slice its rebuilt blob.
            meta = yield from self.storage.load_meta(_meta_key(dataset))
            yield self.comm.send_async(f, meta, 128.0, TAG_XOR_META)

        def contribution(m: int) -> Payload:
            j = slot_of_chunk(f, m, n)
            return parity if me == j else chunks[chunk_of_slot(me, j, n)]

        terminal: Optional[Payload] = None
        terminal_m = (p + 1) % ns  # the chunk whose pipeline ends at me
        for t in range(ns):
            m = (p - t) % ns  # the chunk I handle at step t
            if t == 0:
                buf = contribution(m).copy()
            else:
                env = yield self.comm.post_recv(
                    survivors[(p - 1) % ns], TAG_XOR_RING
                )
                buf = env.data
                yield self.mem_charge(buf.nbytes)
                buf.xor_inplace(contribution(m))
            if t == ns - 1:
                terminal = buf
            else:
                yield self.comm.send_async(
                    survivors[(p + 1) % ns], buf, buf.nbytes, TAG_XOR_RING
                )
        # Gather stage: every survivor forwards its one rebuilt chunk.
        yield self.comm.send_async(f, (terminal_m, terminal),
                                   terminal.nbytes, TAG_XOR_GATHER)
        # Parity regeneration: P_f = XOR of every survivor's chunk
        # assigned to slot f.  A binomial XOR-reduce (log2 depth, one
        # chunk per link) keeps this cheap next to the gather; the head
        # survivor forwards the finished slot to the replacement.
        acc = chunks[chunk_of_slot(me, f, n)].copy()
        mask = 1
        while mask < ns:
            if p & mask:
                dst = survivors[p - mask]
                yield self.comm.send_async(dst, acc, acc.nbytes, TAG_XOR_PARITY)
                break
            src = p + mask
            if src < ns:
                env = yield self.comm.post_recv(survivors[src], TAG_XOR_PARITY)
                yield self.mem_charge(acc.nbytes)
                acc.xor_inplace(env.data)
            mask <<= 1
        if p == 0:
            yield self.comm.send_async(f, acc, acc.nbytes, TAG_XOR_PARITY)
        return blob

    def rebuild_replacement(self, f: int, dataset: int):
        """Replacement side: collect one rebuilt chunk per survivor,
        plus the regenerated parity slot."""
        n = self.comm.size
        survivors = [r for r in range(n) if r != f]
        env = yield self.comm.post_recv(survivors[0], TAG_XOR_META)
        group_meta = env.data
        mine = group_meta["group"][str(f)]
        chunks: List[Optional[Payload]] = [None] * (n - 1)
        for _ in range(n - 1):
            env = yield self.comm.post_recv(ANY_SOURCE, TAG_XOR_GATHER)
            m, payload = env.data
            chunks[m] = payload
        blob = Payload.join(chunks, data_len=mine["blob_len"],
                            nbytes=mine["blob_nbytes"])
        env = yield self.comm.post_recv(survivors[0], TAG_XOR_PARITY)
        parity = env.data
        return blob, parity, group_meta


class PartnerScheme(RedundancyScheme):
    """Full-copy replication to the next group member.

    Each member ships its whole (padded) blob to its right neighbour
    in the group ring and stores the left neighbour's copy -- the
    ReStore / FTHP-MPI trade: double the storage and ``s`` bytes on
    the wire (cheaper than XOR's ``s + s/(n-1)``), but a restore is a
    single copy-back instead of a group-wide decode, and *multiple*
    simultaneous losses are repairable as long as no two adjacent
    members are gone.

    Rebuild of member ``f`` involves three parties: the *helper*
    ``(f+1) % n`` returns f's copy, and the *feeder* ``(f-1) % n``
    re-sends its own blob so the replacement is immediately protective
    again (the re-protection pass XOR gets from parity regeneration).
    With a group of two, helper and feeder are the same rank; the
    matching engine's FIFO-per-(source, tag) order keeps the two
    transfers unambiguous.
    """

    name = "partner"

    def redundancy_key(self, dataset: int) -> str:
        return f"partner@{dataset}"

    def can_repair(self, missing: List[int], n: int) -> bool:
        if missing and n < 2:
            return False
        return all((f + 1) % n not in missing for f in missing)

    def encode(self, blob: Payload):
        n = self.comm.size
        i = self.comm.rank
        if n == 1:  # degenerate group: nobody to replicate to
            return None
        recv_evt = self.comm.post_recv((i - 1) % n, TAG_PARTNER)
        env = (yield self.comm.send_async(
            (i + 1) % n, blob, blob.nbytes, TAG_PARTNER), recv_evt)[1]
        return env.data  # the left neighbour's blob: my partner copy

    def assist_rebuild(self, f: int, dataset: int):
        n = self.comm.size
        me = self.comm.rank
        ret = None
        if me == (f + 1) % n:
            # Helper: return the lost member's copy (and the group
            # metadata so the replacement can slice its blob).
            group_meta = yield from self.storage.load_meta(_meta_key(dataset))
            yield self.comm.send_async(f, group_meta, 128.0, TAG_PARTNER_META)
            copy = yield from self.storage.load(self.redundancy_key(dataset))
            yield self.comm.send_async(f, copy, copy.nbytes, TAG_PARTNER)
        if me == (f - 1) % n:
            # Feeder: re-send my own blob so the replacement holds my
            # partner copy again (re-protection).
            blob = yield from self.storage.load(_blob_key(dataset))
            yield self.comm.send_async(f, blob, blob.nbytes, TAG_PARTNER)
            ret = blob
        return ret

    def rebuild_replacement(self, f: int, dataset: int):
        n = self.comm.size
        helper = (f + 1) % n
        feeder = (f - 1) % n
        env = yield self.comm.post_recv(helper, TAG_PARTNER_META)
        group_meta = env.data
        env = yield self.comm.post_recv(helper, TAG_PARTNER)
        blob = env.data
        env = yield self.comm.post_recv(feeder, TAG_PARTNER)
        redundancy = env.data
        return blob, redundancy, group_meta


class SingleScheme(RedundancyScheme):
    """Node-local only: no redundancy data at all.

    Zero network and storage cost per checkpoint, but a lost member is
    beyond level-1 repair -- pair with the level-2 (PFS) tier
    (``FmiConfig(level2_every=...)``) to complete SCR's LOCAL+PFS
    configuration from the paper's Section II.
    """

    name = "single"

    def encode(self, blob: Payload):
        return None
        yield  # pragma: no cover - makes this a generator

    def can_repair(self, missing: List[int], n: int) -> bool:
        return not missing


SCHEMES = {
    XorScheme.name: XorScheme,
    PartnerScheme.name: PartnerScheme,
    SingleScheme.name: SingleScheme,
}


def make_scheme(name: str) -> RedundancyScheme:
    """Instantiate a redundancy scheme by config name."""
    try:
        cls = SCHEMES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown redundancy scheme {name!r} "
            f"(choose from {sorted(SCHEMES)})"
        ) from None
    return cls()
