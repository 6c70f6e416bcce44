"""PSM-like low-latency transport.

Faithful to the property the paper highlights for QLogic's PSM: after
connection establishment, **communication calls do not report peer
failures**.  A send to a dead process completes locally and the bytes
vanish; failure awareness comes exclusively from the ibverbs-style
connection events consumed by the log-ring detector
(:mod:`repro.net.endpoint` + :mod:`repro.fmi.detector`).

Epoch hygiene (Section IV-D): every envelope carries the sender's
recovery epoch; delivery into a context with a newer epoch is silently
dropped, so stale pre-failure messages can never satisfy a
post-recovery receive.

Gray failures ride the same delivery path:

* **Partitions** -- the fabric (:mod:`repro.cluster.network`) says
  which node pairs are cut.  A message arriving at a cut is either
  *stalled* (parked until the partition heals, modelling switch
  buffering plus link-layer retry) or *dropped* (the reliable layer
  retransmits on a timeout until the link returns) depending on
  ``partition_mode``.  Either way delivery is eventually exact-once.
* **Omission** -- an attached :class:`~repro.net.faults.LinkFaultModel`
  injects seeded per-message drop/duplicate/delay.  Drops cost
  retransmission timeouts.  A duplicated message and its twin share
  one ``landed`` flag: the copy that lands second is suppressed at
  the receiver.

A message is one object here, an :class:`_Arrival`: both the event
:meth:`Transport.send` returns, which fires once the bytes have landed,
and the delivery callback it leaves on the fabric's wire.

Tracing writes one record per message, where its fate is decided:
``net.recv`` or one of ``net.drop_dead`` / ``net.drop_stale`` /
``net.drop_dup`` / ``net.drop_lseq_dup``, at the destination's rank
and node, carrying ``src``, ``src_node``, ``nbytes`` and ``tag``.  A
message that never resolves -- still in flight when the run ends, or
lost with its sender's node -- leaves no record.  Two more records
mark what the gray-failure paths drew: ``net.omission`` (a message's
fault plan, at send) and ``net.partition_stall`` (a park at a cut).

Whether a collective runs on per-message hops or as one macro event
is not decided here: ``MacroCollectives.verdict`` in
:mod:`repro.mpi.macro` reads the fault state above and holds the
priority order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.net.faults import LinkFaultModel
from repro.net.matching import MatchingEngine
from repro.net.message import Envelope
from repro.simt.kernel import _PENDING, Event, Timeout

__all__ = ["Transport", "NetContext"]

Address = Tuple[int, int]  # (node_id, serial)


class NetContext:
    """Per-process networking state: address, matching engine, epoch."""

    __slots__ = ("transport", "node", "addr", "label", "matching", "epoch",
                 "closed", "recv_filter")

    def __init__(self, transport: "Transport", node: Node, label: str = ""):
        # Serials are per-transport, not per-process: two simulations in
        # the same interpreter must assign identical addresses/labels or
        # the byte-identical-replay guarantee breaks.
        serial = transport._next_serial = transport._next_serial + 1
        self.transport = transport
        self.node = node
        self.addr: Address = (node.id, serial)
        self.label = label or f"ctx{serial}"
        self.matching = MatchingEngine(transport.sim)
        #: current recovery epoch; bumped by the FMI runtime on recovery
        self.epoch = 0
        self.closed = False
        #: the transport's only recovery hook, installed by the job's
        #: lseq plane when the context enters H1 (the send side has
        #: none: the plane's ``on_send`` runs above ``Transport.send``):
        #: called with every lseq-stamped envelope just before delivery;
        #: returning False suppresses it (a replayed, re-sent or
        #: cross-copy duplicate, or one buffered by an unsynced standby)
        self.recv_filter = None

    def close(self) -> None:
        self.closed = True
        self.transport._registry.pop(self.addr, None)
        # The hooks are closures over the process that owned the
        # context: ``Transport.contexts`` keeps every context, so a
        # closed one must not keep a dead incarnation reachable.
        self.matching.match_sink = self.recv_filter = None


class _Arrival(Event):
    """One message in flight: the sender's completion, which
    :meth:`Transport.send` returns, and the callback it leaves on the
    wire event -- the message's one delivery body whether or not anyone
    is watching.

    A record rather than an event plus a closure -- a closure over these
    names is a function object plus one cyclic-GC-tracked cell per name,
    per message, and at 16k ranks the collector's walks over them cost
    more wall clock than the interpreter does.  ``send`` builds it with
    no Python frame and fills Event's slots and its own, and the
    delivery step completes it in place (``simt.kernel`` has the rule
    for such records).

    The record is its own timer callback too: a copy the omission model
    delayed, one retransmitted across a drop-mode cut and a trailing
    duplicate all re-enter it from a ``Timeout``, and a heal re-enters
    the records parked at a stall-mode cut with no event at all.
    ``twin`` marks a duplicate's second record, whose own event nobody
    waits on and which must never complete the sender's.  ``landed``
    is ``None`` here and on a lossy record the omission model did not
    duplicate; a duplicated pair shares it (:class:`_LossyArrival`).
    """

    __slots__ = ("transport", "env", "src_nid", "dst_addr", "twin")
    __init__ = object.__init__
    landed = None

    def _what(self) -> str:
        env = self.env
        return f"send {env.src}\u2192{env.dst} tag {env.tag}"

    def __call__(self, evt: Optional[Event] = None) -> None:
        """Final delivery step: partition cut, liveness, epoch filter,
        duplicate suppression -- in that order -- then the record of
        what happened, for whoever is watching *now*."""
        if evt is not None and not evt._ok:
            if self._value is _PENDING:
                self.fail(evt._value)
            return
        transport = self.transport
        fabric = transport.machine.fabric
        env = self.env
        dst_addr = self.dst_addr
        if fabric._partition is not None and not fabric.reachable(
            self.src_nid, dst_addr[0]
        ):
            transport._cut(self)
            return
        ctx = transport._registry.get(dst_addr)
        if ctx is None or ctx.closed or not ctx.node.alive:
            transport.dropped_dead += 1
            outcome = "net.drop_dead"
            ctx = None  # closed or on a dead node: as good as not there
        elif env.epoch < ctx.epoch:
            transport.dropped_stale += 1
            outcome = "net.drop_stale"
        elif self.landed is not None and self.landed[0]:
            transport.dup_dropped += 1
            outcome = "net.drop_dup"
        elif (
            ctx.recv_filter is not None
            and env.lseq is not None
            and not ctx.recv_filter(env)
        ):
            transport.lseq_dup_dropped += 1
            outcome = "net.drop_lseq_dup"
        else:
            if self.landed is not None:
                self.landed[0] = True
            ctx.matching.deliver(env)
            outcome = "net.recv"
        sim = transport.sim
        if sim.tracer.enabled:
            # The message's one record.  ``ctx_epoch`` (absent when
            # nobody was there to receive) lets post-hoc checkers
            # re-verify the epoch filter -- a net.recv with env.epoch <
            # ctx_epoch would be a stale delivery; ``lseq`` is the
            # (src, dst, n) channel identity the orphan checker
            # correlates with mlog.log / mlog.rewind; ``dup`` marks a
            # duplicate's twin, so that each message counts as sent
            # once.  The two common records get a call shape each:
            # merging optional arguments in as a ``**args`` dict costs
            # a third of the record.
            instant = sim.tracer.instant
            lseq = env.lseq
            if ctx is not None and not self.twin:
                if lseq is None:
                    instant(outcome, "net", env.dst, dst_addr[0], None,
                            env.epoch, src=env.src, src_node=self.src_nid,
                            nbytes=env.nbytes, tag=env.tag,
                            ctx_epoch=ctx.epoch)
                else:
                    instant(outcome, "net", env.dst, dst_addr[0], None,
                            env.epoch, src=env.src, src_node=self.src_nid,
                            nbytes=env.nbytes, tag=env.tag,
                            ctx_epoch=ctx.epoch, lseq=lseq)
            else:  # nobody there to receive, or a duplicate's twin
                args = {"src": env.src, "src_node": self.src_nid,
                        "nbytes": env.nbytes, "tag": env.tag}
                if ctx is not None:
                    args["ctx_epoch"] = ctx.epoch
                if lseq is not None:
                    args["lseq"] = lseq
                if self.twin:
                    args["dup"] = True
                instant(outcome, "net", env.dst, dst_addr[0], None,
                        env.epoch, **args)
        if self._value is _PENDING and not self.twin and not self._cancelled:
            # Event.succeed, in place
            self._ok = True
            self._value = None
            sim._seq += 1
            sim._nowq.append(self)


class _LossyArrival(_Arrival):
    """A message the omission model did not leave alone.  Its
    :class:`FaultPlan` rides along (with the model that drew it, for
    ``rto`` and ``dup_lag``) until the wire event arrives, then plays
    out as timers that re-enter the record; a subclass, so that a
    clean message carries no three empty slots.

    A duplicated message's record and its twin share ``landed``, a
    one-item list set when either copy is delivered: the copy that
    lands second is a ``net.drop_dup``."""

    __slots__ = ("plan", "faults", "landed")

    def __call__(self, evt: Optional[Event] = None) -> None:
        plan = self.plan
        if plan is None or not evt._ok:
            _Arrival.__call__(self, evt)
            return
        self.plan = None  # the timers below re-enter as plain arrivals
        faults = self.faults
        sim = self.transport.sim
        extra = plan.drops * faults.rto + plan.delay
        # before the original's first landing, which may be right below
        self.landed = [False] if plan.duplicate else None
        if extra > 0:
            Timeout(sim, extra)._callbacks = self
        else:
            _Arrival.__call__(self, evt)
        if plan.duplicate:
            twin = _LossyArrival()
            Event.__init__(twin, sim)  # a rare copy: the plain fill
            twin.transport = self.transport
            twin.env = self.env
            twin.src_nid = self.src_nid
            twin.dst_addr = self.dst_addr
            twin.twin = True
            twin.plan = None
            twin.landed = self.landed
            Timeout(sim, extra + faults.dup_lag)._callbacks = twin


class Transport:
    """Message movement between :class:`NetContext` instances."""

    #: retransmission timeout for messages lost at a drop-mode
    #: partition cut (no fault model required to be attached)
    partition_rto = 0.05

    def __init__(self, machine: Machine, sw_overhead: Optional[float] = None):
        self.machine = machine
        self.sim = machine.sim
        self.sw_overhead = (
            machine.spec.network.sw_overhead_fmi
            if sw_overhead is None
            else sw_overhead
        )
        self._registry: Dict[Address, NetContext] = {}
        self._next_serial = 0
        #: every context ever created (chaos invariant sweeps)
        self.contexts: List[NetContext] = []
        #: envelopes dropped because the destination was gone
        self.dropped_dead = 0
        #: envelopes dropped by the epoch filter
        self.dropped_stale = 0
        # -- gray-failure state --
        #: attached link-fault model (None = clean links)
        self.faults: Optional[LinkFaultModel] = None
        #: sticky flag: a fault model has been attached at some point
        #: (a detached model may still have faults in flight), so the
        #: collective verdict keeps its ``omission`` reason
        self._lossy = False
        #: what happens to a message arriving at a partition cut
        self.partition_mode = "stall"  # or "drop"
        #: records parked at a cut, re-entered in order on heal
        self._stalled: List[_Arrival] = []
        #: cut envelopes parked until heal (stall mode)
        self.partition_stalls = 0
        #: parked envelopes delivered by a heal
        self.partition_flushed = 0
        #: retransmission attempts burned at a cut (drop mode)
        self.partition_retries = 0
        #: transmission attempts lost to the omission model
        self.omission_drops = 0
        #: messages that picked up extra omission delay
        self.omission_delays = 0
        #: duplicate copies injected by the omission model
        self.omission_dups = 0
        #: duplicate copies suppressed at the receiver
        self.dup_dropped = 0
        #: envelopes suppressed or buffered by a context's
        #: ``recv_filter``
        self.lseq_dup_dropped = 0
        #: a slot the collective layer fills lazily with its per-job
        #: coordinator: the transport is the one object every rank's API
        #: shares, and never reads the slot itself
        self.macro = None
        machine.fabric.heal_listeners[self._on_heal] = None

    def detach(self) -> None:
        """Unhook from the (long-lived) fabric at job teardown so a
        stream of tenant jobs does not accumulate dead heal listeners."""
        self.machine.fabric.heal_listeners.pop(self._on_heal, None)

    # -- registry ---------------------------------------------------------
    def create_context(self, node: Node, label: str = "") -> NetContext:
        ctx = NetContext(self, node, label)
        self._registry[ctx.addr] = ctx
        self.contexts.append(ctx)
        return ctx

    def context_at(self, addr: Address) -> Optional[NetContext]:
        """The registered context at ``addr`` regardless of liveness."""
        return self._registry.get(addr)

    # -- link faults ----------------------------------------------------------
    def set_faults(self, model: LinkFaultModel) -> None:
        """Attach a lossy-link model (all subsequent sends consult it)."""
        self.faults = model
        self._lossy = True

    def clear_faults(self) -> None:
        """Detach the model; in-flight faults still play out."""
        self.faults = None

    # -- data plane ----------------------------------------------------------
    def send(self, src: NetContext, dst_addr: Address, env: Envelope) -> Event:
        """Send ``env`` from ``src`` to the context at ``dst_addr``.

        The returned event fires when the bytes have left/landed; it
        fires even if the destination died mid-flight (the sender
        cannot tell -- PSM semantics).  It only fails if the *sender's*
        node is down.  One envelope, one destination: the transport
        knows no recovery family on this side.
        """
        dst_node = self.machine.nodes[dst_addr[0]]
        fabric = self.machine.fabric
        wire = fabric.send(
            src.node, dst_node, env.nbytes, sw_overhead=self.sw_overhead
        )
        sim = self.sim
        src_nid = src.node.id
        # Draw this message's fault plan up front (one seeded draw per
        # message keeps replays byte-identical).
        faults = self.faults
        plan = None if faults is None else faults.plan(src_nid, dst_addr[0])
        if plan is None or plan.clean:
            arrival = _Arrival()
        else:
            self.omission_drops += plan.drops
            if plan.delay:
                self.omission_delays += 1
            if plan.duplicate:
                self.omission_dups += 1
            if sim.tracer.enabled:
                sim.tracer.instant(
                    "net.omission", "net", rank=env.src, node=src_nid,
                    epoch=env.epoch, dst=env.dst, drops=plan.drops,
                    delay=plan.delay, dup=plan.duplicate,
                )
            arrival = _LossyArrival()
            arrival.plan = plan
            arrival.faults = faults
        arrival.sim = sim
        arrival._callbacks = ()
        arrival._value = _PENDING
        arrival._ok = None
        arrival._processed = False
        arrival._cancelled = False
        arrival.transport = self
        arrival.env = env
        arrival.src_nid = src_nid
        arrival.dst_addr = dst_addr
        arrival.twin = False
        wire._callbacks = arrival  # fresh from the fabric: no waiter yet
        return arrival

    # -- partition cuts --------------------------------------------------------
    def _cut(self, arrival: _Arrival) -> None:
        """The message hit a partition cut.

        ``stall`` parks it until the fabric heals (switch buffering +
        link-layer retry); ``drop`` loses the bytes and retransmits
        every ``partition_rto`` until the link is back.  Both converge
        to exact-once delivery once the partition heals.
        """
        if self.partition_mode == "stall":
            self.partition_stalls += 1
            if self.sim.tracer.enabled:
                env = arrival.env
                self.sim.tracer.instant(
                    "net.partition_stall", "net", rank=env.dst,
                    node=arrival.dst_addr[0], epoch=env.epoch, src=env.src,
                    tag=env.tag,
                )
            self._stalled.append(arrival)
            return
        self.partition_retries += 1
        Timeout(self.sim, self.partition_rto)._callbacks = arrival

    def _on_heal(self, tag: str) -> None:
        """Flush the records parked at the (now healed) cut, in order."""
        if not self._stalled:
            return
        stalled, self._stalled = self._stalled, []
        self.partition_flushed += len(stalled)
        for arrival in stalled:
            arrival()
