"""The assembled machine: nodes + fabric + storage + failure plumbing."""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.cluster.network import Fabric
from repro.cluster.node import Node
from repro.cluster.resource_manager import ResourceManager
from repro.cluster.spec import ClusterSpec
from repro.cluster.filesystem import ParallelFilesystem
from repro.simt.kernel import Simulator
from repro.simt.rng import RngRegistry

__all__ = ["Machine"]


class Machine:
    """A complete simulated cluster.

    Construction is cheap even for thousands of nodes -- resources are
    lazy event objects, not threads.  Typical use::

        sim = Simulator()
        machine = Machine(sim, SIERRA.with_nodes(128), RngRegistry(seed))
        ...launch a job on machine.rm.allocate(64, num_spares=4)...
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec, rng: Optional[RngRegistry] = None):
        self.sim = sim
        self.spec = spec
        self.rng = rng or RngRegistry(0)
        self.nodes: List[Node] = [Node(sim, i, spec) for i in range(spec.num_nodes)]
        self.fabric = Fabric(sim, spec.network)
        fs = spec.filesystem
        self.pfs = ParallelFilesystem(sim, fs.pfs_bw, fs.pfs_latency)
        self.rm = ResourceManager(sim, self.nodes, grant_latency=spec.spare_grant_latency)
        self._death_listeners: List[Callable[[Node, Any], None]] = []
        #: live limping nodes right now (O(1) for the macro-event
        #: collective eligibility check; maintained via node sinks)
        self.limping_count = 0
        for node in self.nodes:
            node.on_crash(self._node_crashed)
            node._limp_sink = self._limp_transition

    def _limp_transition(self, delta: int) -> None:
        self.limping_count += delta

    # -- liveness -----------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def live_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.alive]

    def on_node_death(self, callback: Callable[[Node, Any], None]) -> None:
        """Subscribe to node-crash notifications (endpoint manager etc.)."""
        self._death_listeners.append(callback)

    def remove_death_listener(self, callback: Callable[[Node, Any], None]) -> None:
        """Unsubscribe (job teardown: tenants come and go, the machine
        stays).  Unknown callbacks are ignored."""
        try:
            self._death_listeners.remove(callback)
        except ValueError:
            pass

    def _node_crashed(self, node: Node, cause: Any) -> None:
        for listener in list(self._death_listeners):
            listener(node, cause)

    def fail_nodes(self, node_ids: Sequence[int], cause: Any = "injected") -> None:
        """Crash a set of nodes simultaneously."""
        for nid in node_ids:
            self.nodes[nid].crash(cause)
