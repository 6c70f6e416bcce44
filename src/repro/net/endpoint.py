"""ibverbs-like reliable connections with disconnect events.

The paper's failure-detection substrate: the ibverbs library raises an
event on every connection to a process that terminates, ~0.2 s after
the death (Section VI-A).  Surviving processes can also close their
own connections *explicitly*, which their peers observe after a small
per-hop delay -- the mechanism the log-ring uses to cascade a failure
notification across the machine in ceil(ceil(log2 n)/2) hops.

Only the detector uses these connections; bulk data rides the PSM-like
transport, which (as on the real hardware) reports nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.cluster.machine import Machine
from repro.cluster.node import Node

__all__ = ["Connection", "ConnectionManager"]

#: disconnect callback: (connection, peer_key, reason)
DisconnectCb = Callable[["Connection", Any, str], None]


class Connection:
    """A reliable connection between two endpoint owners.

    Owners are identified by opaque hashable keys (the FMI layer uses
    ``(rank, incarnation)``); each side registers a disconnect callback.
    """

    def __init__(self, mgr: "ConnectionManager", key_a: Any, node_a: Node,
                 key_b: Any, node_b: Node):
        self.mgr = mgr
        self.ends: Tuple[Any, Any] = (key_a, key_b)
        self.nodes: Dict[Any, Node] = {key_a: node_a, key_b: node_b}
        self._cbs: Dict[Any, DisconnectCb] = {}
        self.open = True

    def peer_of(self, key: Any) -> Any:
        a, b = self.ends
        return b if key == a else a

    def on_disconnect(self, key: Any, callback: DisconnectCb) -> None:
        """Register ``key``'s handler for this connection breaking."""
        self._cbs[key] = callback

    # -- breaking ----------------------------------------------------------
    def close_from(self, key: Any, reason: str = "explicit-close") -> None:
        """``key`` closes the connection; its peer is notified after
        the per-hop notification delay."""
        self.mgr._break(self, [self.peer_of(key)], reason, self.mgr.hop_delay)

    def close_silent(self) -> None:
        """Tear down without notifying anyone (overlay rebuild: both
        sides are already re-entering H1 and replace their edges)."""
        self.mgr._break(self, (), "", 0.0)

    def break_by_owner_death(self, dead_key: Any, reason: str) -> None:
        """The process behind ``dead_key`` died (without its node
        dying); the peer hears after the ibverbs close delay, exactly
        like a node death."""
        peer = self.peer_of(dead_key)
        self.mgr._break(self, [peer] if self.nodes[peer].alive else (),
                        reason, self.mgr.close_delay)

    def break_to_live_ends(self, reason: str) -> None:
        """A node death or a network partition cut this connection:
        every end whose node is alive hears after the ibverbs close
        delay.  After a death that is the survivor (the dead end already
        reads ``alive == False``); after a partition it is *both* ends
        -- the raw material of a false-positive failure suspicion."""
        live = [key for key, node in self.nodes.items() if node.alive]
        self.mgr._break(self, live, reason, self.mgr.close_delay)


class ConnectionManager:
    """Tracks connections and turns node deaths into disconnect events."""

    def __init__(self, machine: Machine):
        self.sim = machine.sim
        self.machine = machine
        net = machine.spec.network
        self.close_delay = net.ibverbs_close_delay
        self.hop_delay = net.notify_hop_delay
        # Insertion-ordered (dict-as-set): on a node death the
        # disconnect timers must be scheduled in establishment order,
        # not in hash/memory-address order, or replays of the same
        # seed diverge in same-instant event ordering.
        self._all: Dict[Connection, None] = {}
        #: end key -> that end's open connections, in establishment
        #: order (the detector's overlay edges; a closed connection is
        #: never listed)
        self.by_end: Dict[Any, Dict[Connection, None]] = {}
        machine.death_listeners[self._on_node_death] = None
        machine.fabric.partition_listeners[self._on_partition] = None

    def detach(self) -> None:
        """Unhook from the machine at job teardown (the machine outlives
        any one tenant's connection manager)."""
        self.machine.death_listeners.pop(self._on_node_death, None)
        self.machine.fabric.partition_listeners.pop(self._on_partition, None)

    # -- establishment ----------------------------------------------------
    def connect(self, key_a: Any, node_a: Node, key_b: Any, node_b: Node) -> Connection:
        """Create a connection (instantaneous bookkeeping; callers charge
        ``NetworkSpec.overlay_connect_cost`` simulated time themselves,
        since they may pipeline several establishments)."""
        if not (node_a.alive and node_b.alive):
            raise ConnectionError("cannot connect: endpoint node is down")
        if not self.machine.fabric.reachable(node_a.id, node_b.id):
            raise ConnectionError(
                f"cannot connect: nodes {node_a.id} and {node_b.id} are partitioned"
            )
        conn = Connection(self, key_a, node_a, key_b, node_b)
        self._all[conn] = None
        self.by_end.setdefault(key_a, {})[conn] = None
        self.by_end.setdefault(key_b, {})[conn] = None
        return conn

    @property
    def open_connections(self) -> int:
        return len(self._all)

    # -- plumbing ------------------------------------------------------------
    def _break(self, conn: Connection, hearers, reason: str,
               delay: float) -> None:
        """The one way a connection ends: close it (once), forget it,
        and raise the disconnect event at each endpoint key in
        ``hearers`` after ``delay``."""
        if not conn.open:
            return
        conn.open = False
        del self._all[conn]
        for key in conn.ends:
            bucket = self.by_end[key]
            del bucket[conn]
            if not bucket:
                del self.by_end[key]
        for key in hearers:
            self._notify(conn, key, reason, delay)

    def _notify(self, conn: Connection, key: Any, reason: str, delay: float) -> None:
        cb = conn._cbs.get(key)
        if cb is None:
            return
        timer = self.sim.timeout(delay)
        timer.callbacks.append(lambda _e: cb(conn, key, reason))

    def _on_node_death(self, node: Node, cause: Any) -> None:
        for conn in [c for c in self._all if node in c.nodes.values()]:
            conn.break_to_live_ends(f"peer-death:{cause}")

    def _on_partition(self, tag: str, component: Dict[int, int]) -> None:
        """Break every connection whose endpoints now sit in different
        partition components (establishment order, for determinism)."""
        for conn in list(self._all):
            key_a, key_b = conn.ends
            nid_a = conn.nodes[key_a].id
            nid_b = conn.nodes[key_b].id
            if component.get(nid_a, 0) != component.get(nid_b, 0):
                conn.break_to_live_ends(f"partition:{tag}")
