"""The interconnect fabric.

A message from node A to node B is modelled cut-through style:

    sender sw overhead  ->  { A.nic_tx  ||  B.nic_rx }  ->  wire
    latency  ->  receiver sw overhead

The bytes occupy the sender's transmit pipe and the receiver's receive
pipe *concurrently* (completion when both fair-share transfers finish),
so a node receiving N simultaneous streams bottlenecks on its single
NIC -- the effect that shapes the XOR-gather restart cost (Fig 11) and
the per-node C/R throughput (Fig 12).

Intra-node messages bypass the NIC and move through the memory bus.

The five stages of an inter-node message, and the frame each runs in
(one :class:`_Wire` record carries the message through all of them,
and is the event its landing completes):

1. **head** -- :meth:`Fabric.send` arms the wire's timer record with
   the sender's software overhead (at the sender's limp factor of the
   send instant) and returns the wire.
2. **start** -- the head's callback: the bytes enter ``A.nic_tx`` and
   ``B.nic_rx`` with *the wire itself* as each flow's completion
   target.  No event per flow.
3. **join** -- a pipe calls :meth:`_Wire.succeed` in the frame of the
   timer that drained the flow (in ``start``'s own frame for a flow the
   pipe finishes at once); the second call arms the tail there and
   then.  The join has no event either: it touches nothing but the
   wire's own counter (DESIGN section 9 has the rule).
4. **tail** -- the same record, re-armed with the wire latency at the
   slower endpoint's limp factor (sampled at send) plus the receiver's
   software overhead at *its* limp factor of the drain frame.
5. **land** -- the tail's callback completes the wire, pushing it on
   the immediate queue as ``Event.succeed`` would; what waits on it
   (the transport's delivery) is dispatched from there, after
   everything already queued for that instant.  A delivery may change
   what a same-instant resume sees, so it keeps its own event.

The wire and one :class:`_WireTimer`, pushed twice, per message; head
and tail are real delays.  Each arm is a ``Timeout``'s guard, fill and
push, written out in the arming frame (``simt.kernel``).  A withdrawn
wire (:meth:`_Wire.cancel`, its waiter gone) withdraws the landing
only: its bytes still run dry through both NICs.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Iterable, Optional

from repro.cluster.node import Node
from repro.cluster.spec import NetworkSpec
from repro.simt.kernel import _INF, _PENDING, Event, Simulator

__all__ = ["Fabric", "partition_components"]


def partition_components(groups: Iterable[Iterable[int]]) -> Dict[int, int]:
    """``id -> component`` of a partition's groups; an id may sit in
    one group only.  Explicit groups are numbered from 1: component 0
    is reserved for unlisted nodes, so a single group really is cleaved
    off from the rest of the machine."""
    component: Dict[int, int] = {}
    for idx, group in enumerate(groups, start=1):
        for member in group:
            if member in component:
                raise ValueError(f"id {member} appears in two partition groups")
            component[member] = idx
    return component


class _WireTimer(Event):
    """A wire's head timer, re-armed as its tail: each arm fills and
    pushes it at the ``(when, seq)`` a ``Timeout`` of that delay would
    take, behind the same guard, with no Python frame.  Its callback is
    the wire's :meth:`_Wire.start`, then its :meth:`_Wire.land`; the
    wire holds it in ``timer``, a cycle only while the kernel holds it
    armed (the pop empties its slot)."""

    __slots__ = ()
    __init__ = object.__init__


class _Wire(Event):
    """One inter-node message in flight, and the event its landing
    completes: the callback of its head and tail timers (:meth:`start`,
    :meth:`land`) and, in between, the completion target of its own two
    NIC flows.  :meth:`Fabric.send` builds it with no Python frame and
    fills Event's slots and its own (``simt.kernel`` has the rule for
    such records).

    ``succeed`` is the join a pipe calls when it drains a flow, not the
    trigger: :meth:`land` completes the event, pushing it inline.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "overhead",
                 "lat_factor", "parts_left", "timer")
    __init__ = object.__init__

    def start(self, _head: Event) -> None:
        """Sender overhead paid: the bytes enter both NIC pipes."""
        nbytes = self.nbytes
        self.src.nic_tx._change(None, nbytes, self)
        self.dst.nic_rx._change(None, nbytes, self)

    def succeed(self, _value: None) -> None:
        """A pipe drained this wire's flow.  When both have: wire
        latency, then receiver overhead at the receiver's limp factor
        as this frame finds it."""
        self.parts_left -= 1
        if self.parts_left:
            return
        delay = (self.fabric.spec.wire_latency * self.lat_factor
                 + self.overhead * self.dst.limp_latency)
        # Timeout's guard, fill and push, into the head's record
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and >= 0: {delay}")
        timer = self.timer
        timer._callbacks = self.land
        timer._processed = False
        sim = self.sim
        timer._seq = sim._seq = sim._seq + 1
        when = sim.now + delay
        if when == sim.now:
            sim._nowq.append(timer)
        elif when in sim._at:
            sim._at[when].append(timer)
        else:
            sim._at[when] = [timer]
            heappush(sim._heap, when)

    def land(self, _tail: Event) -> None:
        """The last byte is in: complete the arrival, as
        :meth:`Event.succeed` would, unless it was withdrawn."""
        if self._value is _PENDING and not self._cancelled:
            self._ok = True
            self._value = None
            sim = self.sim
            sim._seq += 1
            sim._nowq.append(self)

    def cancel(self) -> bool:
        """Withdraw the arrival, not the bytes: they still run dry
        through both NICs and the tail still fires, to land on nothing.
        The slot is emptied to ``()``, not ``None``, because a pipe
        skips a flow whose target's slot is ``None``."""
        if self._value is not _PENDING or self._cancelled:
            return False
        self._cancelled = True
        self._callbacks = ()
        return True

    def _what(self) -> str:
        return f"wire node {self.src.id}\u2192{self.dst.id}"


class Fabric:
    """Connects all nodes of a machine; stateless wire + per-node NICs.

    The fabric also owns the *partition* gray-failure state: at most
    one partition at a time splits the node set into components, and
    :meth:`reachable` answers whether two nodes can currently exchange
    bytes.  The wire itself stays stateless -- whether a cut message is
    stalled or dropped is the transport layer's policy.
    """

    def __init__(self, sim: Simulator, spec: NetworkSpec):
        self.sim = sim
        self.spec = spec
        #: total messages moved (observability / tests)
        self.messages_sent = 0
        #: total payload bytes moved
        self.bytes_sent = 0.0
        # -- partition state (None = fully connected) --
        self._partition: Optional[Dict[int, int]] = None
        self._partition_tag = ""
        self._partition_count = 0
        #: insertion-ordered callbacks, fired in subscription order:
        #: ``(tag, node_id -> component)`` on a cut, ``(tag)`` on a
        #: heal; a subscriber writes ``d[cb] = None`` and
        #: ``d.pop(cb, None)``
        self.partition_listeners: Dict[Callable[[str, Dict[int, int]], None], None] = {}
        self.heal_listeners: Dict[Callable[[str], None], None] = {}

    # -- partitions ------------------------------------------------------------
    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    @property
    def partition_tag(self) -> str:
        """Tag of the active partition ('' when healed)."""
        return self._partition_tag if self._partition is not None else ""

    def partition(self, groups: Iterable[Iterable[int]], tag: str = "") -> str:
        """Split the fabric into components; returns the partition tag.

        ``groups`` lists node ids per component; any node not listed
        joins component 0 (so a single group cleaves "these nodes" off
        from "everyone else").  Only one partition may be active --
        heal before imposing another.
        """
        if self._partition is not None:
            raise RuntimeError(
                f"fabric already partitioned ({self._partition_tag}); heal first"
            )
        component = partition_components(groups)
        self._partition_count += 1
        self._partition = component
        self._partition_tag = tag or f"p{self._partition_count}"
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "net.partition", "failure", tag=self._partition_tag,
                components=max(component.values(), default=0) + 1,
                cut_nodes=sorted(n for n, c in component.items() if c != 0),
            )
        for callback in list(self.partition_listeners):
            callback(self._partition_tag, component)
        return self._partition_tag

    def heal(self) -> None:
        """Remove the active partition (no-op when fully connected)."""
        if self._partition is None:
            return
        tag = self._partition_tag
        self._partition = None
        self._partition_tag = ""
        if self.sim.tracer.enabled:
            self.sim.tracer.instant("net.heal", "failure", tag=tag)
        for callback in list(self.heal_listeners):
            callback(tag)

    def reachable(self, node_a: int, node_b: int) -> bool:
        """Can these two nodes currently exchange bytes?"""
        part = self._partition
        if part is None:
            return True
        return part.get(node_a, 0) == part.get(node_b, 0)

    def send(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        sw_overhead: Optional[float] = None,
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Returns an event that fires (with ``None``) when the last byte
        has landed at ``dst``.  If ``dst`` crashes mid-flight the event
        still fires -- delivery filtering is the transport layer's job
        (a dead node's matching engine no longer exists, so the bytes
        simply vanish, as on real hardware).
        """
        # ``not >=``: NaN must be refused here, before it is counted and
        # one software overhead before a pipe would see it.
        if not nbytes >= 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        if not src.alive:
            evt = Event(self.sim)
            evt.fail(ConnectionError(f"source node {src.id} is down"))
            return evt
        overhead = self.spec.sw_overhead_fmi if sw_overhead is None else sw_overhead
        self.messages_sent += 1
        self.bytes_sent += nbytes

        if src is dst:
            # Shared-memory path: one pass through the memory bus, no NIC.
            return src.mem_bw.transfer(nbytes, overhead=2 * overhead)

        sim = self.sim
        wire = _Wire()
        wire.sim = sim
        wire._callbacks = ()
        wire._value = _PENDING
        wire._ok = None
        wire._processed = False
        wire._cancelled = False
        wire.fabric = self
        wire.src = src
        wire.dst = dst
        wire.nbytes = nbytes
        wire.overhead = overhead
        # Limping endpoints stretch the per-message latencies (their
        # NIC bandwidth is already degraded via set_limp); the wire hop
        # pays the slower endpoint's factor, sampled at send time.
        lat_factor = src.limp_latency
        if dst.limp_latency > lat_factor:
            lat_factor = dst.limp_latency
        wire.lat_factor = lat_factor
        wire.parts_left = 2
        # Sender-side software overhead before bytes hit the NIC: a
        # Timeout's guard, fill and push, frame-less (``_WireTimer``)
        delay = overhead * src.limp_latency
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and >= 0: {delay}")
        head = wire.timer = _WireTimer()
        head.sim = sim
        head._callbacks = wire.start
        head._value = None
        head._ok = True
        head._processed = False
        head._cancelled = False
        head._seq = sim._seq = sim._seq + 1
        when = sim.now + delay
        if when == sim.now:
            sim._nowq.append(head)
        elif when in sim._at:
            sim._at[when].append(head)
        else:
            sim._at[when] = [head]
            heappush(sim._heap, when)
        return wire
