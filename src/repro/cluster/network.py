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
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.cluster.node import Node
from repro.cluster.spec import NetworkSpec
from repro.simt.kernel import _PENDING, Event, Simulator, Timeout

__all__ = ["Fabric"]


class _Wire:
    """One inter-node message in flight; its bound methods are the
    callbacks of the stages in the module docstring, in order."""

    __slots__ = ("fabric", "src", "dst", "nbytes", "overhead",
                 "lat_factor", "arrived", "both", "parts_left")

    def __init__(self, fabric: "Fabric", src: Node, dst: Node,
                 nbytes: float, overhead: float, arrived: Event):
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.overhead = overhead
        # Limping endpoints stretch the per-message latencies (their
        # NIC bandwidth is already degraded via set_limp); the wire hop
        # pays the slower endpoint's factor, sampled at send time.
        self.lat_factor = max(src.limp_latency, dst.limp_latency)
        self.arrived = arrived
        self.parts_left = 2

    def start(self, _head: Event) -> None:
        """Sender overhead paid: the bytes enter both NIC pipes."""
        tx = self.src.nic_tx.transfer(self.nbytes)
        rx = self.dst.nic_rx.transfer(self.nbytes)
        self.both = both = Event(self.fabric.sim)
        both.callbacks.append(self.on_wire)
        tx.callbacks.append(self.part_done)
        rx.callbacks.append(self.part_done)

    def part_done(self, _part: Event) -> None:
        self.parts_left -= 1
        if self.parts_left == 0:
            self.both.succeed(None)

    def on_wire(self, _both: Event) -> None:
        """Both pipes drained: wire latency, then receiver overhead at
        the receiver's limp factor of *this* instant."""
        fabric = self.fabric
        tail = Timeout(
            fabric.sim,
            fabric.spec.wire_latency * self.lat_factor
            + self.overhead * self.dst.limp_latency,
        )
        tail.callbacks.append(self.land)

    def land(self, _tail: Event) -> None:
        arrived = self.arrived
        if arrived._value is _PENDING:
            arrived.succeed(None)


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
        self._partition_listeners: List[Callable[[str, Dict[int, int]], None]] = []
        self._heal_listeners: List[Callable[[str], None]] = []

    # -- partitions ------------------------------------------------------------
    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    @property
    def partition_tag(self) -> str:
        """Tag of the active partition ('' when healed)."""
        return self._partition_tag if self._partition is not None else ""

    def on_partition(self, callback: Callable[[str, Dict[int, int]], None]) -> None:
        """Subscribe ``callback(tag, node_id -> component)`` to cuts."""
        self._partition_listeners.append(callback)

    def on_heal(self, callback: Callable[[str], None]) -> None:
        """Subscribe ``callback(tag)`` to partition heals."""
        self._heal_listeners.append(callback)

    def remove_partition_listener(
        self, callback: Callable[[str, Dict[int, int]], None]
    ) -> None:
        """Unsubscribe from cuts (job teardown); unknown callbacks ignored."""
        try:
            self._partition_listeners.remove(callback)
        except ValueError:
            pass

    def remove_heal_listener(self, callback: Callable[[str], None]) -> None:
        """Unsubscribe from heals (job teardown); unknown callbacks ignored."""
        try:
            self._heal_listeners.remove(callback)
        except ValueError:
            pass

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
        # Explicit groups are numbered from 1: component 0 is reserved
        # for unlisted nodes, so a single group really is cleaved off
        # from the rest of the machine.
        component: Dict[int, int] = {}
        for idx, group in enumerate(groups, start=1):
            for nid in group:
                if nid in component:
                    raise ValueError(f"node {nid} appears in two partition groups")
                component[nid] = idx
        self._partition_count += 1
        self._partition = component
        self._partition_tag = tag or f"p{self._partition_count}"
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "net.partition", "failure", tag=self._partition_tag,
                components=max(component.values(), default=0) + 1,
                cut_nodes=sorted(n for n, c in component.items() if c != 0),
            )
        for callback in list(self._partition_listeners):
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
        for callback in list(self._heal_listeners):
            callback(tag)

    def reachable(self, node_a: int, node_b: int) -> bool:
        """Can these two nodes currently exchange bytes?"""
        part = self._partition
        if part is None:
            return True
        return part.get(node_a, 0) == part.get(node_b, 0)

    def transfer_time(self, nbytes: float, sw_overhead: float) -> float:
        """Uncontended end-to-end time for one message (planning)."""
        return (
            2 * sw_overhead + self.spec.wire_latency + nbytes / self.spec.link_bw
        )

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

        arrived = Event(self.sim)
        wire = _Wire(self, src, dst, nbytes, overhead, arrived)
        # Sender-side software overhead before bytes hit the NIC.
        head = Timeout(self.sim, overhead * src.limp_latency)
        head.callbacks.append(wire.start)
        return arrived
