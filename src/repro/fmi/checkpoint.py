"""The in-memory (and, for SCR, filesystem) checkpoint engine.

Implements Section V, and is the only code that agrees on, rebuilds,
slices or clones a dataset.  Its clients call one of three entries:
``checkpoint`` (FMI_Loop, ``Scr.checkpoint``, the level-2 re-seed),
``restore`` (the coordinated rollback: FMI_Loop through the recovery
family, ``Scr.restart``, the figure benches) and ``rebuild_missing``
(the logging plane's sidecar rebuild, survivors read-only); the two
restart entries share one survey and one rebuild-and-store body.

* **storage adapters** -- FMI writes checkpoints "directly to memory
  using memcpy" (:class:`MemoryStorage`, charged through the node's
  memory bus); SCR writes "to memory via a file system"
  (:class:`TmpfsStorage`, charged through the tmpfs bandwidth + open
  latency + a CRC verification pass).  This difference is the ~10 %
  Himeno gap in Fig 15.  Both speak one storage protocol: ``store`` /
  ``load`` / ``store_meta`` / ``load_meta`` are generators charged
  through the node; ``peek`` / ``peek_meta`` return the same things
  free of charge and read-only (:class:`MemoryStorage` hands out the
  stored object itself; None when absent); ``unstore`` /
  ``unstore_meta`` / ``clear`` drop.
  Nothing outside an adapter touches its backing store.  Only the
  in-memory tier is ever cloned (a standby copies its lead's process
  memory), so ``nbytes`` / ``clone_from`` are :class:`MemoryStorage`'s
  alone.

* **pluggable redundancy** -- the engine owns the *protocol* (geometry
  agreement, dataset versioning, keep-2 pruning, group/world restore
  agreement) and delegates the *data plane* to a
  :class:`~repro.fmi.redundancy.RedundancyScheme`: the paper's
  ring-pipelined XOR (Figure 9, the default), full-copy partner
  replication, or node-local-only storage.  See
  :mod:`repro.fmi.redundancy` for the schemes and their cost models.

* **dataset versioning** -- a failure can strike *during* a checkpoint,
  leaving some members with the new dataset and others without.  The
  engine therefore keeps the **two** most recent *complete* datasets
  (completion is marked only after the whole group encoded), and
  restore agrees -- group-wide and, through the job's ``world`` API,
  job-wide -- on the newest dataset every survivor still holds.  Any
  datasets newer than the agreed one belong to a rolled-back timeline
  and are pruned.

All of it moves *real bytes*: tests verify that a replacement rank's
restored checkpoint is bit-identical to what the failed rank saved --
for every scheme.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.node import Node
from repro.fmi.errors import UnrecoverableFailure
from repro.fmi.payload import Payload, unpack
from repro.fmi.redundancy import (
    RedundancyScheme,
    XorScheme,
    _blob_key,
    _meta_key,
)

__all__ = [
    "MemoryStorage",
    "TmpfsStorage",
    "CheckpointEngine",
    "CheckpointDataset",
]

_COMPLETED_KEY = "completed"


class CheckpointDataset:
    """Metadata describing one stored checkpoint."""

    def __init__(self, dataset_id: int, sections: List[tuple],
                 blob_len: int, blob_nbytes: float):
        self.dataset_id = dataset_id
        #: per-user-buffer (data_len, declared_nbytes)
        self.sections = list(sections)
        self.blob_len = blob_len
        self.blob_nbytes = blob_nbytes

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "sections": [list(s) for s in self.sections],
            "blob_len": self.blob_len,
            "blob_nbytes": self.blob_nbytes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckpointDataset":
        return cls(
            d["dataset_id"],
            [tuple(s) for s in d["sections"]],
            d["blob_len"],
            d["blob_nbytes"],
        )


class MemoryStorage:
    """FMI's diskless tier: raw memcpy into the process's memory.

    The backing dict lives in the owning process object, so it vanishes
    with the process -- which is precisely why redundancy across nodes
    exists.
    """

    def __init__(self, node: Node):
        self.node = node
        self._blobs: Dict[str, Payload] = {}
        self._meta: Dict[str, dict] = {}

    def store(self, key: str, payload: Payload):
        yield self.node.memcpy(payload.nbytes)
        self._blobs[key] = payload.copy()

    def load(self, key: str):
        payload = self._blobs[key]
        yield self.node.memcpy(payload.nbytes)
        return payload.copy()

    def peek(self, key: str) -> Optional[Payload]:
        return self._blobs.get(key)

    def unstore(self, key: str) -> None:
        self._blobs.pop(key, None)

    def store_meta(self, key: str, meta: dict):
        yield self.node.memcpy(64.0)
        self._meta[key] = dict(meta)

    def load_meta(self, key: str):
        yield self.node.memcpy(64.0)
        return dict(self._meta[key])

    def peek_meta(self, key: str) -> Optional[dict]:
        return self._meta.get(key)

    def unstore_meta(self, key: str) -> None:
        self._meta.pop(key, None)

    def clear(self) -> None:
        self._blobs.clear()
        self._meta.clear()

    @property
    def nbytes(self) -> float:
        """Declared bytes of every stored blob (what a clone moves)."""
        return sum(p.nbytes for p in self._blobs.values())

    def clone_from(self, other: "MemoryStorage") -> None:
        """Become a deep copy of ``other`` (the standby's in-memory
        clone of its lead; the caller charges the transfer)."""
        self._blobs = {k: p.copy() for k, p in other._blobs.items()}
        self._meta = {k: dict(m) for k, m in other._meta.items()}


class TmpfsStorage:
    """SCR's level-1 tier: node-local RAM *filesystem*.

    Real bytes land in the node's :class:`~repro.cluster.filesystem.Tmpfs`
    (so they survive an MPI job relaunch but die with the node), and
    every access pays filesystem bandwidth + open latency; writes add
    SCR's CRC32 verification read-back.
    """

    def __init__(self, node: Node, prefix: str):
        self.node = node
        self.prefix = prefix

    def _path(self, key: str) -> str:
        return f"{self.prefix}/{key}"

    def store(self, key: str, payload: Payload):
        yield self.node.tmpfs.write(
            self._path(key), payload.tobytes(), nbytes=payload.nbytes
        )
        # SCR verifies every file with a CRC32 pass after writing --
        # one more trip through the filesystem.
        yield self.node.tmpfs.read(self._path(key), nbytes=payload.nbytes)
        # sidecar meta records the declared size
        yield self.node.tmpfs.write(
            self._path(key) + ".size", repr(payload.nbytes).encode()
        )

    def load(self, key: str):
        size_raw = yield self.node.tmpfs.read(self._path(key) + ".size")
        declared = float(size_raw.decode())
        raw = yield self.node.tmpfs.read(self._path(key), nbytes=declared)
        return Payload(np.frombuffer(raw, dtype=np.uint8).copy(), nbytes=declared)

    def peek(self, key: str) -> Optional[Payload]:
        # the sidecar is written last: no size, no complete blob yet
        size_raw = self.node.tmpfs.peek(self._path(key) + ".size")
        if size_raw is None:
            return None
        raw = self.node.tmpfs.peek(self._path(key))
        return Payload(np.frombuffer(raw, dtype=np.uint8),  # read-only view
                       nbytes=float(size_raw.decode()))

    def unstore(self, key: str) -> None:
        self.node.tmpfs.unlink(self._path(key))
        self.node.tmpfs.unlink(self._path(key) + ".size")

    def store_meta(self, key: str, meta: dict):
        yield self.node.tmpfs.write(self._path(key) + ".meta", json.dumps(meta).encode())

    def load_meta(self, key: str):
        raw = yield self.node.tmpfs.read(self._path(key) + ".meta")
        return json.loads(raw.decode())

    def peek_meta(self, key: str) -> Optional[dict]:
        raw = self.node.tmpfs.peek(self._path(key) + ".meta")
        return None if raw is None else json.loads(raw.decode())

    def unstore_meta(self, key: str) -> None:
        self.node.tmpfs.unlink(self._path(key) + ".meta")

    def clear(self) -> None:
        for path in list(self.node.tmpfs.listdir()):
            if path.startswith(self.prefix + "/"):
                self.node.tmpfs.unlink(path)


class CheckpointEngine:
    """Group-collective checkpoint/restart for one redundancy-group
    member.

    ``comm`` is a communicator over exactly the group members (rank =
    position in group); ``storage`` is one of the adapters above;
    ``mem_charge(nbytes)`` charges encode compute time through the
    memory bus; ``scheme`` is a
    :class:`~repro.fmi.redundancy.RedundancyScheme` (XOR when omitted).
    Every public method that takes simulated time returns a generator,
    driven inside a rank process.
    ``FMI_Loop`` hands ``checkpoint`` and ``restore`` off (a bare
    ``yield``, ``simt.process``); beneath them every call delegates
    with ``yield from``, so each entry's inclusive time is the whole
    protocol's (the perf ledger's ``fmi.checkpoint`` entry points).
    """

    #: complete datasets retained (2 tolerates one in-flight checkpoint)
    KEEP = 2

    #: restore agreement sentinel: this group cannot recover at level 1.
    #: Smaller than every real dataset id, so the MIN of the agreement
    #: drags every group to the level-2 fallback.
    BEYOND = -2
    #: restore agreement sentinel, less the group's first world rank:
    #: every member of the group is a replacement, so whatever it held
    #: died with it.  Below ``BEYOND``, so the MIN carries it job-wide.
    WIPED = -3

    def __init__(self, comm, storage, mem_charge,
                 scheme: Optional[RedundancyScheme] = None):
        self.comm = comm
        self.storage = storage
        self.mem_charge = mem_charge
        self.sim = comm.api.sim
        self.scheme = scheme if scheme is not None else XorScheme()
        self.scheme.bind(self)

    def _trace_span(self, name: str, start: float, **args) -> None:
        """Emit one ``ckpt`` span for this member (world identity)."""
        api = self.comm.api
        self.sim.tracer.complete(
            name, "ckpt", start, rank=api.rank, node=api.node.id,
            group_rank=self.comm.rank, group_size=self.comm.size,
            scheme=self.scheme.name, **args,
        )

    def _trace_mark(self, name: str, **args) -> None:
        """Emit one instant ``ckpt`` marker, ``ckpt.encode.begin`` or
        ``ckpt.restore.begin``.  Spans are recorded at phase *end*
        (with a retroactive start), so these two are the only live
        signal that a phase just started: the chaos engine keys
        mid-checkpoint fault injection off the first, and the
        zero-rollback invariant reads the second.  A checkpoint's own
        start is its ``ckpt.checkpoint`` span's."""
        api = self.comm.api
        self.sim.tracer.instant(
            name, "ckpt", rank=api.rank, node=api.node.id, **args,
        )

    # -- local dataset bookkeeping -------------------------------------------
    def completed_ids(self) -> List[int]:
        completed = self.storage.peek_meta(_COMPLETED_KEY)
        return list(completed["ids"]) if completed else []

    def _store_completed(self, ids: List[int]):
        yield from self.storage.store_meta(_COMPLETED_KEY, {"ids": sorted(ids)})

    def _drop_dataset(self, ds: int) -> None:
        self.storage.unstore(_blob_key(ds))
        rkey = self.scheme.redundancy_key(ds)
        if rkey is not None:
            self.storage.unstore(rkey)
        self.storage.unstore_meta(_meta_key(ds))

    def load_blob(self, dataset: int):
        """Read back the stored (padded) blob of a local dataset."""
        return self.storage.load(_blob_key(dataset))

    def reset_local(self):
        """Drop every local dataset (used before re-seeding level 1
        from a level-2 restore: local state is a stale timeline)."""
        for ds in self.completed_ids():
            self._drop_dataset(ds)
        yield from self._store_completed([])

    # ------------------------------------------------------------- checkpoint
    def checkpoint(self, payloads: Sequence[Payload], dataset_id: int):
        """Snapshot ``payloads``, encode redundancy across the group,
        and mark the dataset complete (retaining the last ``KEEP``).

        The rendezvous collectives (geometry agreement, meta
        allgather/completion barrier) always run hop-level: the
        interleaving of checkpoint traffic with failures is exactly
        what the recovery experiments measure.
        """
        # a ``_hop_only`` scope as a counter, not a ``with`` (no
        # forwarding frame under every resume of a checkpointing rank;
        # a kill's generator.close() unwinds the ``finally``)
        api = self.comm.api
        api._hop_only += 1
        try:
            n = self.comm.size
            traced = self.sim.tracer.enabled
            t_total = self.sim.now
            sections = [(p.data.nbytes, p.nbytes) for p in payloads]
            blob = _concat(payloads)

            # Group members agree on a common (padded) blob geometry.
            dims = yield from self.comm.allreduce(
                (blob.data.nbytes, blob.nbytes), op=_pairmax, nbytes=16.0
            )
            max_len, max_declared = dims
            # Chunks must split evenly for every member (XOR: n-1 chunks).
            max_len = _round_up(max_len, max(1, self.scheme.pad_multiple(n)))
            blob = blob.padded(max_len, nbytes=max_declared)

            t_phase = self.sim.now
            yield from self.storage.store(_blob_key(dataset_id), blob)
            if traced:
                self._trace_span("ckpt.snapshot", t_phase, dataset=dataset_id,
                                 nbytes=blob.nbytes)
            t_phase = self.sim.now
            if traced:
                self._trace_mark("ckpt.encode.begin", dataset=dataset_id,
                                 nbytes=blob.nbytes)
            redundancy = yield from self.scheme.encode(blob)
            if traced:
                self._trace_span("ckpt.encode", t_phase, dataset=dataset_id,
                                 nbytes=blob.nbytes)
            if redundancy is not None:
                t_phase = self.sim.now
                yield from self.storage.store(
                    self.scheme.redundancy_key(dataset_id), redundancy
                )
                if traced:
                    self._trace_span("ckpt.parity_store", t_phase,
                                     dataset=dataset_id, nbytes=redundancy.nbytes)
            t_phase = self.sim.now
            meta = CheckpointDataset(dataset_id, sections, max_len, blob.nbytes)
            # Metadata is tiny; replicate the whole group's metas everywhere
            # (as SCR does) so any survivor can describe a lost member's
            # checkpoint to its replacement.  The allgather doubles as the
            # group-wide completion barrier: once it returns, every member
            # has stored blob+redundancy.
            group_metas = yield from self.comm.allgather(meta.to_dict(), nbytes=96.0)
            yield from self.storage.store_meta(
                _meta_key(dataset_id),
                {"group": {str(pos): m for pos, m in enumerate(group_metas)}},
            )
            ids = [i for i in self.completed_ids() if i != dataset_id]
            ids.append(dataset_id)
            ids.sort()
            for old in ids[: -self.KEEP]:
                self._drop_dataset(old)
            yield from self._store_completed(ids[-self.KEEP :])
            if traced:
                self._trace_span("ckpt.meta", t_phase, dataset=dataset_id)
                self._trace_span("ckpt.checkpoint", t_total, dataset=dataset_id,
                                 nbytes=blob.nbytes)
            return meta
        finally:
            api._hop_only -= 1

    # ---------------------------------------------------------------- restart
    def restore(self, world=None, allow_beyond_xor: bool = False,
                fresh: bool = False):
        """Group-collective restart.

        Collectively picks the newest dataset every survivor still
        holds (narrowed job-wide when ``world``, the job's API, is
        given: one 8 B allreduce of ``(candidate, newest id held)`` to
        their MIN and MAX), rebuilds the lost members the scheme can
        repair, prunes stale newer datasets, and returns
        ``(meta, payloads)`` -- or ``None`` when no survivor holds a
        checkpoint (cold start).  ``fresh`` says this member is a
        replacement that has not restored yet.

        If the scheme cannot repair this group's losses (more than one
        member for XOR, adjacent members for partner, any member for
        single) the group is *beyond level-1 repair*: with
        ``allow_beyond_xor`` (the multilevel path) the sentinel string
        ``"beyond-xor"`` is returned -- and, because the sentinel value
        :attr:`BEYOND` is smaller than every real dataset id, the
        agreement's MIN drags **every** group to the level-2 fallback.
        Otherwise :class:`UnrecoverableFailure` is raised.  A group
        whose every member is a replacement is beyond level 1 too,
        once the agreement's MAX shows a dataset survives elsewhere.
        """
        t0 = self.sim.now
        if self.sim.tracer.enabled:
            self._trace_mark("ckpt.restore.begin")
        # restore collectives are hop-level for the same reason the
        # checkpoint rendezvous is (the same ``_hop_only`` scope)
        api = self.comm.api
        api._hop_only += 1
        try:
            # No survivor anywhere is a cold start; a group of
            # replacements only (``WIPED``) is one only if no dataset
            # survives elsewhere.  With a deeper tier, level 2 decides.
            mine, missing, candidate = yield from self._survey(
                None, allow_beyond_xor, fresh
            )
            if world is not None:
                dataset, newest = yield from world.allreduce(
                    (candidate, mine[-1] if mine else -1), _min_max, 8.0
                )
            else:
                dataset, newest = candidate, -1
            if dataset == self.BEYOND:
                return self._restored(t0, "beyond-xor")
            if dataset <= self.WIPED:
                if newest >= 0:
                    raise UnrecoverableFailure(
                        f"{self.scheme.name} group of rank "
                        f"{self.WIPED - dataset} lost every member while "
                        f"dataset {newest} survives elsewhere: beyond "
                        f"level-1 repair"
                    )
                dataset = -1  # it held nothing: nobody had checkpointed
            if dataset == -1:
                # Cold start everywhere: wipe any partial local state.
                for ds in mine:
                    self._drop_dataset(ds)
                if mine:
                    yield from self._store_completed([])
                return self._restored(t0, None)
            # Prune datasets newer than the agreed one: they belong to the
            # rolled-back timeline.
            if self.comm.rank not in missing:
                self._check_held(dataset, mine)
                keep = [i for i in mine if i <= dataset]
                for ds in mine:
                    if ds > dataset:
                        self._drop_dataset(ds)
                if keep != mine:
                    yield from self._store_completed(keep)
            blob, meta = yield from self._rebuild(missing, dataset)
            if meta is None:
                # Survivor (or uninvolved member): the assist may already
                # have loaded my blob; otherwise read it back now.
                if blob is None:
                    blob = yield from self.storage.load(_blob_key(dataset))
                meta = yield from self.load_meta(dataset)
            return self._restored(t0, (meta, unpack(blob, meta.sections)))
        finally:
            api._hop_only -= 1

    def _restored(self, t0: float, result):
        """Record how a :meth:`restore` that began at ``t0`` ended."""
        if self.sim.tracer.enabled:
            if result == "beyond-xor":
                outcome, dataset = "beyond-xor", None
            elif result is None:
                outcome, dataset = "cold-start", None
            else:
                outcome, dataset = "restored", result[0].dataset_id
            self._trace_span("ckpt.restore", t0, outcome=outcome,
                             dataset=dataset)
        return result

    def load_meta(self, dataset: int):
        """This member's :class:`CheckpointDataset` of a local dataset."""
        raw = yield from self.storage.load_meta(_meta_key(dataset))
        return CheckpointDataset.from_dict(raw["group"][str(self.comm.rank)])

    # ------------------------------------------------ partial (logged) rebuild
    def rebuild_missing(self, missing: List[int]):
        """Sidecar rebuild for the message-logging recovery plane.

        Unlike :meth:`restore`, survivors are **not** rolled back: no
        world agreement, no pruning of newer datasets, and survivor
        storages are read-only except for the rebuilt members'.  The
        members in ``missing`` (group positions) receive the newest
        dataset common to every survivor; survivors assist exactly as
        in a global restore and keep their running state untouched.

        Returns ``(meta, payloads)`` on a rebuilt member, the dataset
        id on a survivor, or ``None`` on a group-wide cold start (no
        survivor has checkpointed yet -- the caller replays the full
        log from scratch).  Raises :class:`UnrecoverableFailure` when
        the scheme cannot repair ``missing``, or when the survivors
        hold no common complete dataset.
        """
        mine, missing, dataset = yield from self._survey(sorted(missing), False)
        if dataset == -1:
            return None  # nobody has checkpointed yet: cold start
        if self.comm.rank not in missing:
            self._check_held(dataset, mine)
        blob, meta = yield from self._rebuild(missing, dataset)
        if meta is None:
            return dataset
        return meta, unpack(blob, meta.sections)

    # ------------------------------------------- shared by the two entries
    def _survey(self, missing: Optional[List[int]], allow_beyond: bool,
                fresh: bool = False):
        """Group agreement: one allgather of completed ids (None from a
        ``fresh`` replacement still holding nothing).

        ``missing`` lists the lost positions (``None``: whoever holds
        nothing).  Returns ``(mine, missing, candidate)`` -- the newest
        dataset every survivor holds, or -1 when no survivor holds
        anything, or the :attr:`WIPED` code when every member is fresh.
        A group whose survivors share no dataset, or whose losses the
        scheme cannot repair, raises :class:`UnrecoverableFailure`; with
        ``allow_beyond`` both that and the empty group answer
        :attr:`BEYOND` instead.
        """
        mine = self.completed_ids()
        entries = yield from self.comm.allgather(
            None if fresh and not mine else mine, nbytes=16.0
        )
        if missing is None:
            missing = [pos for pos, ids in enumerate(entries) if not ids]
        held = [set(ids) for pos, ids in enumerate(entries) if pos not in missing]
        if not any(held):
            if allow_beyond:
                return mine, missing, self.BEYOND
            if entries.count(None) == len(entries):
                return mine, missing, self.WIPED - self.comm.members[0]
            return mine, missing, -1
        common = set.intersection(*held)
        if common and self.scheme.can_repair(missing, len(entries)):
            return mine, missing, max(common)
        if allow_beyond:
            return mine, missing, self.BEYOND
        raise UnrecoverableFailure(
            f"{self.scheme.name} group beyond level-1 repair "
            f"({len(missing)} members lost, common datasets: {sorted(common)})"
        )

    def _check_held(self, dataset: int, mine: List[int]) -> None:
        if dataset not in mine:
            raise UnrecoverableFailure(
                f"agreed dataset {dataset} not held locally (have {mine})"
            )

    def _rebuild(self, missing: List[int], dataset: int):
        """Rebuild every lost member in turn (XOR repairs at most one;
        partner any non-adjacent set) and store what it gets.  Returns
        ``(blob, meta)``: both on a rebuilt member; on a survivor the
        blob if an assist happened to load it, and no meta."""
        blob: Optional[Payload] = None
        meta: Optional[CheckpointDataset] = None
        for f in missing:
            t_rebuild = self.sim.now
            if self.comm.rank == f:
                blob, redundancy, group_meta = (
                    yield from self.scheme.rebuild_replacement(f, dataset)
                )
                if self.sim.tracer.enabled:
                    self._trace_span("ckpt.rebuild", t_rebuild,
                                     dataset=dataset, role="replacement")
                yield from self.storage.store(_blob_key(dataset), blob)
                if redundancy is not None:
                    yield from self.storage.store(
                        self.scheme.redundancy_key(dataset), redundancy
                    )
                yield from self.storage.store_meta(_meta_key(dataset), group_meta)
                yield from self._store_completed([dataset])
                meta = CheckpointDataset.from_dict(group_meta["group"][str(f)])
            else:
                assisted = yield from self.scheme.assist_rebuild(f, dataset)
                if assisted is not None:
                    if self.sim.tracer.enabled:
                        self._trace_span("ckpt.rebuild", t_rebuild,
                                         dataset=dataset, role="survivor")
                    blob = assisted
        return blob, meta


# ------------------------------------------------------------------ helpers
def _pairmax(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]))


def _min_max(a, b):
    """The restore agreement: the oldest candidate, the newest id held
    (compared inline: it folds at every hop of a restoring job)."""
    return (a[0] if a[0] < b[0] else b[0], a[1] if a[1] > b[1] else b[1])


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


def _concat(payloads: Sequence[Payload]) -> Payload:
    if not payloads:
        return Payload(np.zeros(1, dtype=np.uint8), nbytes=1.0)
    data = np.concatenate([p.data for p in payloads])
    declared = sum(p.nbytes for p in payloads)
    return Payload(data, nbytes=max(declared, float(data.nbytes)))
