"""Macro-event collective coordinator: the scale-tier fast path.

When the network is nominal and nobody is watching individual hops,
running a 16k-rank allreduce as tens of thousands of per-message
events buys nothing -- the outcome is fully determined by the
algorithm, the payload sizes and the calibrated fabric constants.
This module exploits that: every rank entering a collective *joins* a
shared per-transport instance instead of exchanging messages
(``Communicator.<kind>`` is the one place that decides, per call,
between :meth:`_Instance.join` and the ``*_hops`` oracle); when the
last rank arrives the coordinator

1. replays the hop algorithm's exact data movement in plain Python
   (same fold order, same ``snapshot`` copy points), producing
   byte-identical per-rank results -- deciding *once per instance*
   what the hop path decides per message: a power-of-two allreduce
   whose ranks all passed the same :mod:`repro.mpi.ops` operator over
   exact ``int``/``float``/``bool`` values has nothing to copy and
   nothing to dispatch on, so each recursive-doubling round is one
   ``map`` of the operator's scalar function over the round's
   accumulators (:func:`_round_fn`; arrays, ``Payload``s, NumPy
   scalars, user callables, mixed operators and, for now, sizes with
   a remainder keep the rank-by-rank loop), and
2. prices the collective once with the closed-form model in
   :mod:`repro.models.collective_model`, then schedules a **single**
   :class:`~repro.simt.kernel.BulkCompletion` that resumes every rank
   at ``t_last_join + T_model``.

That last point is the one deliberate approximation: completion is
bulk-synchronous (all ranks resume together at the instance's
completion time), whereas the hop engine lets, say, an early scatter
destination continue before the root has served the rest.  The
conformance suite therefore compares *collective* completion times
(the max over ranks), which the model reproduces.

Eligibility
-----------

A rank consults the coordinator on *every* collective call (keeping
per-rank sequence numbers aligned), but the macro/hop verdict is
latched by the **first** rank to arrive and applies to the whole
instance -- mixed engines within one collective would deadlock.
:meth:`MacroCollectives.verdict` is that verdict, and its docstring
holds the reasons and their priority order.

Bookkeeping invariants:

* instances are keyed ``(epoch, comm_id, kind, n)`` where ``n`` is
  the per-rank call count under that recovery epoch -- FIFO alignment
  exactly mirrors the tag-based matching of the hop engine, and the
  epoch is the macro analogue of epoch-stamped envelopes (see
  :meth:`MacroCollectives.instance`);
* :meth:`MacroCollectives.reset` (called from recovery's
  ``begin_recovery``) cancels every
  in-flight instance and clears the sequence counters, so a rolled
  back world replays its collective sequence from a clean slate.

The macro path writes no ``net.recv`` record, so the trace counts
none of its traffic as sent, and it does not tick the fabric counters
-- there are no messages.  Workloads that assert on those must run
under ``set_collective_mode("hops")``.

Observation picks no engine: a traced run takes the same verdicts as
an untraced one.  What a tracer sees of a macro instance is one
``mpi.collective`` span per instance, from its first join to its bulk
completion, written when the instance completes (one that
:meth:`MacroCollectives.reset` cancels leaves none) -- the collective
call, where the hop engine's trace shows the wire.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.models.collective_model import NetParams, collective_time
from repro.mpi.collectives import _TINY
from repro.mpi.datatypes import snapshot, wire_bytes
from repro.simt.kernel import _PENDING, BulkCompletion, Event

__all__ = ["MacroCollectives"]


def _sig(per: List[float]):
    """Hashable size signature: a scalar when uniform (the common
    case, and what keeps the timing memo small), else a tuple."""
    first = per[0]
    for p in per:
        if p != first:
            return tuple(per)
    return first


class _Instance:
    """One collective occurrence: who has arrived, with what args."""

    __slots__ = ("coord", "key", "kind", "size", "verdict", "start",
                 "consulted", "joined", "args", "events", "bulk", "nbytes",
                 "api")

    def __init__(self, coord: "MacroCollectives", key: tuple, size: int,
                 verdict: Optional[str], start: float):
        self.coord = coord
        #: ``(epoch, comm_id, kind, n)``, see :meth:`MacroCollectives.instance`
        self.key = key
        self.kind = key[2]
        self.size = size
        #: None -> macro; otherwise the hop-fidelity reason string
        self.verdict = verdict
        #: when the first rank called it (a rank joins as it calls)
        self.start = start
        self.consulted = 0
        #: ranks that have joined so far
        self.joined = 0
        # rank-indexed; every slot is filled by the time _complete
        # runs, which drops ``args`` and whose bulk empties ``events``
        self.args: Optional[List[Optional[tuple]]] = [None] * size
        self.events: List[Optional[Event]] = [None] * size
        self.bulk: Optional[BulkCompletion] = None
        #: the size signature the model priced, and the API of the rank
        #: whose join completed the instance: the trace record's
        self.nbytes = None
        self.api = None

    def join(self, comm, args: tuple):
        """Generator a rank drives instead of the hop algorithm.

        ``args`` is the kind's positional tuple, already validated by
        the ``Communicator`` method that dispatched here.  The FMI
        failure-notification check fires where the hop path's first
        send or receive would raise it: on the caller's first
        ``next()``.
        """
        api = comm.api
        if api.fproc.notified_pending:
            api._check_ok()
        evt = Event(api.sim)
        self.args[comm.rank] = args
        self.events[comm.rank] = evt
        self.joined += 1
        if self.joined == self.size:
            self.coord._complete(self, comm)
        result = yield evt
        return result

    def _completed(self, _bulk: BulkCompletion) -> None:
        """The bulk's own callback: the instance is no longer live, and
        a tracer gets its one ``mpi.collective`` record.

        ``epoch`` is the instance's; ``ctx_epoch`` is the epoch the
        completing rank's context holds now, as on a ``net.recv`` -- an
        older ``epoch`` would be a collective of a dead epoch delivered
        into a newer one.  ``job`` is the label an FMI rank's records
        carry (none for a plain MPI API).
        """
        coord = self.coord
        coord._live.discard(self)
        tracer = coord.transport.sim.tracer
        if tracer.enabled:
            epoch, comm_id, kind, n = self.key
            api = self.api
            job = getattr(api, "fmi_job", None)
            tracer.complete(
                "mpi.collective", "mpi", self.start, epoch=epoch,
                kind=kind, comm=comm_id, n=n, size=self.size,
                nbytes=self.nbytes,
                job=None if job is None else job.job_id,
                ctx_epoch=api.ctx.epoch,
            )


class MacroCollectives:
    """Per-transport rendezvous for the macro-event fast path.

    One lives lazily on ``transport.macro``; every rank of the job
    shares it, which is what lets a collective become a single object
    instead of a message pattern.
    """

    def __init__(self, transport):
        self.transport = transport
        #: collective call counters, one per rank of the communicator,
        #: then the instances a hop-only family has counted:
        #: (epoch, comm_id, kind) -> [n of rank 0, ..., n of rank
        #: size - 1, instances]
        self._seq: Dict[Tuple[int, int, str], List[int]] = {}
        #: instances not yet consulted by every rank, by
        #: (epoch, comm_id, kind, n)
        self._pending: Dict[Tuple[int, int, str, int], _Instance] = {}
        #: macro instances whose completion has not fired yet
        self._live: set = set()
        #: memoized model times and rank->node placements
        self._times: Dict[tuple, float] = {}
        self._nodes_cache: Dict[int, tuple] = {}
        self._net: Optional[NetParams] = None
        # -- counters (observability without tracing) --
        self.instances_macro = 0
        self.instances_hop = 0
        #: hop-fidelity reason -> count
        self.fallbacks: Dict[str, int] = {}

    # -- eligibility ------------------------------------------------------
    @staticmethod
    def verdict(api) -> Optional[str]:
        """Hops or macro, and why: ``None`` lets the macro tier run, a
        reason string sends the instance down the hop path.

        The one place this is decided.  The reasons, in priority order
        (the first that holds is the answer):

        1. ``checkpoint`` -- the calling rank is inside a ``_hop_only``
           scope (checkpoint rendezvous, restore agreement, log replay);
        2. ``injector`` -- an injector or chaos engine is *armed*
           (``sim.fault_injectors``), fired or not; ROADMAP item 2b
           narrows that at the shared ``_Injector.start``;
        3. ``omission`` -- a lossy-link model is attached, or ever was
           (a detached one may still have duplicates in flight);
        4. ``partition`` -- the fabric is cut;
        5. ``limp`` -- some node's NIC is degraded;
        6. the recovery family's own ``hop_fidelity`` (``msglog``,
           ``replicated``), read from ``api.recovery``.

        Observation is not a reason: a tracer reads a macro instance
        from its one ``mpi.collective`` record.  The check is *nominal*
        state, not in-flight traffic: concurrent point-to-point flows
        (halo exchanges) do not disable the fast path; their contention
        error is what the conformance tolerance covers.
        """
        if api._hop_only:
            return "checkpoint"
        transport = api.transport
        if transport.sim.fault_injectors > 0:
            return "injector"
        if transport._lossy:  # set by every set_faults, never cleared
            return "omission"
        if transport.machine.fabric.partitioned:
            return "partition"
        if transport.machine.limping_count > 0:
            return "limp"
        return api.recovery.hop_fidelity

    def instance(self, comm, kind: str) -> Optional[_Instance]:
        """Consult (and advance) this rank's collective sequence.

        Returns the instance to :meth:`_Instance.join` when the
        latched verdict is macro, or ``None`` to send the caller down
        the hop path.  Either way the sequence counter moved, so all
        ranks stay aligned call-for-call.

        Keys carry the caller's recovery epoch -- the macro analogue
        of epoch-stamped envelopes.  A survivor still running the
        pre-failure timeline joins an old-epoch instance that can
        never fill (it blocks until its failure notification arrives,
        exactly as it would on a hop-level recv), while the
        post-recovery replay realigns from call zero under the new
        epoch.

        A job whose recovery family needs hops (``hop_fidelity``) has
        no verdict to latch: its instance is counted at its first
        consult and never kept.  Under replication it could not be:
        the copies of a rank share its counter, so a copy's death
        leaves the rank short of consults that its peers' instances
        would wait on for the rest of the run.
        """
        api = comm.api
        epoch = api.ctx.epoch
        seq_key = (epoch, comm.id, kind)
        counts = self._seq.get(seq_key)
        if counts is None:
            counts = self._seq[seq_key] = [0] * (comm.size + 1)
        rank = comm.rank
        n = counts[rank]
        counts[rank] = n + 1
        if api.recovery.hop_fidelity is not None:
            if n == counts[-1]:  # no rank has consulted ``n`` yet
                counts[-1] = n + 1
                verdict = self.verdict(api)
                self.instances_hop += 1
                self.fallbacks[verdict] = self.fallbacks.get(verdict, 0) + 1
            return None
        key = (epoch, comm.id, kind, n)
        inst = self._pending.get(key)
        if inst is None:
            verdict = self.verdict(api)
            inst = _Instance(self, key, comm.size, verdict, api.sim.now)
            self._pending[key] = inst
            if verdict is None:
                self.instances_macro += 1
                self._live.add(inst)
            else:
                self.instances_hop += 1
                self.fallbacks[verdict] = self.fallbacks.get(verdict, 0) + 1
        inst.consulted += 1
        if inst.consulted == inst.size:
            del self._pending[key]
        return inst if inst.verdict is None else None

    # -- completion -------------------------------------------------------
    def _complete(self, inst: _Instance, comm) -> None:
        """Last rank arrived: compute results, price, schedule."""
        results, sizes_sig, root = _FINISH[inst.kind](inst)
        inst.args = None  # read: nothing holds a rank's inputs past here
        inst.nbytes = sizes_sig
        inst.api = comm.api
        duration = self._duration(comm, inst.kind, sizes_sig, root)
        # the bulk clears each event and result as it hands it over
        bulk = inst.bulk = BulkCompletion(self.transport.sim, duration,
                                          inst.events, results)
        bulk._callbacks = [bulk._callbacks, inst._completed]

    def _duration(self, comm, kind: str, sizes_sig, root: int) -> float:
        key = (kind, comm.id, root, sizes_sig)
        t = self._times.get(key)
        if t is None:
            nodes = self._nodes_cache.get(comm.id)
            if nodes is None:
                table = comm.api.addr_table
                nodes = tuple(table[w][0] for w in comm.members)
                self._nodes_cache[comm.id] = nodes
            if self._net is None:
                self._net = NetParams.from_transport(self.transport)
            t = collective_time(kind, nodes, sizes_sig, self._net, root)
            self._times[key] = t
        return t

    # -- recovery ---------------------------------------------------------
    def reset(self) -> None:
        """Cancel everything in flight and forget the sequence state.

        Called when a recovery rolls the application back: the
        collective calls that were pending belong to a dead timeline,
        and the replay after restart must realign from call zero.
        Placement/timing memos go too -- a respawned rank may live on
        a different node.
        """
        for inst in self._live:
            _cancel(inst)
        self._live.clear()
        self._pending.clear()
        self._seq.clear()
        self._times.clear()
        self._nodes_cache.clear()

    def retire(self, epoch: int) -> None:
        """Drop the instances of epochs before ``epoch``, once a global
        rollback to it has completed.

        A survivor that calls a collective after :meth:`reset` but
        before its failure notification, its context still at the old
        epoch, opens an instance that nobody completes.  Once every
        rank is back in H3 at ``epoch`` no rank can consult it again,
        nor count a call on its epoch's sequence counters.
        """
        for key in [key for key in self._pending if key[0] < epoch]:
            inst = self._pending.pop(key)
            if inst in self._live:
                self._live.discard(inst)
                _cancel(inst)
        for key in [key for key in self._seq if key[0] < epoch]:
            del self._seq[key]


def _cancel(inst: _Instance) -> None:
    """Withdraw an instance's completion and every rank's event."""
    if inst.bulk is not None:
        inst.bulk.cancel()
    for evt in inst.events:
        if evt is not None and evt._value is _PENDING and not evt._cancelled:
            evt.cancel()


# ---------------------------------------------------------------------------
# Result replay: each function reproduces the hop algorithm's data
# movement exactly -- same fold order, snapshot() at every point the
# hop path's send_async would have copied -- and returns
# (per-rank results, size signature, root).
# ---------------------------------------------------------------------------


def _finish_bcast(inst: _Instance):
    size, args = inst.size, inst.args
    root = args[0][1]
    value, _, nbytes = args[root]
    b = wire_bytes(value, nbytes)
    # each hop edge copies at the parent's send, so every non-root
    # rank ends up with its own copy of the root's value
    results = [value if r == root else snapshot(value) for r in range(size)]
    return results, b, root


#: exact classes an op of :mod:`repro.mpi.ops` folds with its scalar
#: function into the same three classes, and :func:`snapshot` never
#: copies: a fold over nothing else needs no per-element decision
_PLAIN = frozenset({int, float, bool})


def _round_fn(vals: List[Any], ops: List[Any]):
    """The one O(n) look at an allreduce's inputs: the scalar function
    a whole round can be mapped with, or ``None``.

    Not ``None`` only when every rank passed the *same* operator of
    :mod:`repro.mpi.ops` and every value is an exact ``int``, ``float``
    or ``bool``; then ``op(a, snapshot(b))`` *is* ``op.scalar_fn(a, b)``
    for every pair the schedule will ever form (the results stay in
    those classes).  Arrays, ``Payload``s, NumPy scalars, user
    callables and mixed operators decline.
    """
    op = ops[0]
    fn = getattr(op, "scalar_fn", None)
    if fn is None:
        return None
    for other in ops:
        if other is not op:
            return None
    return fn if _PLAIN.issuperset(map(type, vals)) else None


def _allreduce_results(vals: List[Any], ops: List[Any], size: int) -> List[Any]:
    """Recursive doubling, replayed: pairwise pre-fold, the masked
    exchange rounds over simultaneous pre-round accumulators, and the
    post-step push-back.

    At a power-of-two size the schedule is the masked rounds and
    nothing else, and when :func:`_round_fn` finds nothing to decide
    per element each round is mapped in a single pass (same operands
    in the same order per rank, so the same bits).  Everything else
    is replayed rank by rank with the operator and :func:`snapshot`
    the hop path would have applied -- a size with a remainder
    included, for now: mapping its rounds too is a two-line change
    that waits on the benchmark's floor for this tier's profiled
    share, which is set on a 1,536-rank run (ROADMAP items 1b, 6a).
    """
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    fn = _round_fn(vals, ops) if rem == 0 else None
    if fn is not None:
        cur = vals
        mask = 1
        while mask < size:
            # both sides send their pre-round accumulator
            cur = list(map(fn, cur, [cur[r ^ mask] for r in range(size)]))
            mask <<= 1
        return cur
    snap = snapshot
    acc = list(vals)
    for r in range(0, 2 * rem, 2):
        acc[r + 1] = ops[r + 1](acc[r + 1], snap(acc[r]))
    # the power-of-two core, by new rank: the odd half of each
    # pre-folded pair, then everyone past the pairs
    ranks = [*range(1, 2 * rem, 2), *range(2 * rem, size)]
    mask = 1
    while mask < pof2:
        cur = [acc[r] for r in ranks]  # both sides send pre-round accs
        for nr, a in enumerate(ranks):
            acc[a] = ops[a](cur[nr], snap(cur[nr ^ mask]))
        mask <<= 1
    for r in range(0, 2 * rem, 2):
        acc[r] = snap(acc[r + 1])
    return acc


def _finish_allreduce(inst: _Instance):
    size, args = inst.size, inst.args
    vals = [args[r][0] for r in range(size)]
    ops = [args[r][1] for r in range(size)]
    per = [wire_bytes(vals[r], args[r][2]) for r in range(size)]
    return _allreduce_results(vals, ops, size), _sig(per), 0


def _finish_reduce(inst: _Instance):
    size, args = inst.size, inst.args
    root = args[0][2]
    per = [wire_bytes(args[r][0], args[r][3]) for r in range(size)]
    # rel-indexed accumulators; mask-major order means a sender's acc
    # is final (all its smaller-mask fold-ins done) when it is folded
    acc = [args[(rel + root) % size][0] for rel in range(size)]
    ops = [args[(rel + root) % size][1] for rel in range(size)]
    mask = 1
    while mask < size:
        for rel in range(0, size - mask, mask << 1):
            acc[rel] = ops[rel](acc[rel], snapshot(acc[rel + mask]))
        mask <<= 1
    results: List[Any] = [None] * size
    results[root] = acc[0]
    return results, _sig(per), root


def _finish_barrier(inst: _Instance):
    return [None] * inst.size, _TINY, 0


def _finish_gather(inst: _Instance):
    size, args = inst.size, inst.args
    root = args[0][1]
    per = [wire_bytes(args[r][0], args[r][2]) for r in range(size)]
    results: List[Any] = [None] * size
    # the dicts pass through snapshot uncopied, so the root's list
    # holds the senders' original objects -- exactly like the hop path
    results[root] = [args[r][0] for r in range(size)]
    return results, _sig(per), root


def _finish_allgather(inst: _Instance):
    size, args = inst.size, inst.args
    vals = [args[r][0] for r in range(size)]
    per = [wire_bytes(vals[r], args[r][1]) for r in range(size)]
    # ring blocks travel inside (idx, blk) tuples, which snapshot
    # passes through -- every rank shares the originals
    results = [list(vals) for _ in range(size)]
    return results, _sig(per), 0


def _finish_scatter(inst: _Instance):
    size, args = inst.size, inst.args
    root = args[0][1]
    values, _, nbytes = args[root]
    per = [wire_bytes(values[d], nbytes) for d in range(size)]
    results = [
        values[r] if r == root else snapshot(values[r]) for r in range(size)
    ]
    return results, _sig(per), root


def _finish_alltoall(inst: _Instance):
    size, args = inst.size, inst.args
    matrix = [
        [wire_bytes(args[s][0][d], args[s][1]) for d in range(size)]
        for s in range(size)
    ]
    flat0 = matrix[0][0]
    uniform = all(m == flat0 for row in matrix for m in row)
    results = []
    for r in range(size):
        row = [
            args[r][0][r] if s == r else snapshot(args[s][0][r])
            for s in range(size)
        ]
        results.append(row)
    sig = flat0 if uniform else tuple(tuple(row) for row in matrix)
    return results, sig, 0


_FINISH = {
    "bcast": _finish_bcast,
    "reduce": _finish_reduce,
    "allreduce": _finish_allreduce,
    "barrier": _finish_barrier,
    "gather": _finish_gather,
    "allgather": _finish_allgather,
    "scatter": _finish_scatter,
    "alltoall": _finish_alltoall,
}
