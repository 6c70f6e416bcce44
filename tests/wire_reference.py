"""The event-per-stage wire, kept as a test oracle.

This is ``cluster.network._Wire`` and ``Fabric.send`` as they stood
before the wire became the completion target of its own two pipe flows:
each NIC flow completes an :class:`~repro.simt.kernel.Event` of its
own, a third event (``both``) joins them, and its callback arms the
tail at the end of the instant.  The code below is preserved verbatim;
``test_wire_conformance.py`` drives it and the production fabric with
the same traffic and asserts that every message arrives at the same
float in the same global order.  A test installs it by assigning
``machine.fabric = ReferenceFabric(sim, spec.network)`` before anything
sends.

It defines *when* a message arrives; do not optimise it.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.network import Fabric
from repro.cluster.node import Node
from repro.simt.kernel import _PENDING, Event, Timeout

__all__ = ["ReferenceFabric"]


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


class ReferenceFabric(Fabric):
    """:class:`Fabric` with the event-per-stage ``send``."""

    def send(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        sw_overhead: Optional[float] = None,
    ) -> Event:
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
