"""The assembled machine: nodes + fabric + storage + failure plumbing."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

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
        #: insertion-ordered callbacks ``(node, cause)`` that every node
        #: crash reaches, in subscription order; a subscriber writes
        #: ``death_listeners[cb] = None`` and ``pop(cb, None)``
        self.death_listeners: Dict[Callable[[Node, Any], None], None] = {}
        #: live limping nodes right now (O(1) for the macro-event
        #: collective eligibility check; the nodes keep it)
        self.limping_count = 0
        self.nodes: List[Node] = [Node(self, i) for i in range(spec.num_nodes)]
        self.fabric = Fabric(sim, spec.network)
        fs = spec.filesystem
        self.pfs = ParallelFilesystem(sim, fs.pfs_bw, fs.pfs_latency)
        self.rm = ResourceManager(sim, self.nodes, grant_latency=spec.spare_grant_latency)

    # -- liveness -----------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    @property
    def live_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.alive]

    def fail_nodes(self, node_ids: Sequence[int], cause: Any = "injected") -> None:
        """Crash a set of nodes simultaneously."""
        for nid in node_ids:
            self.nodes[nid].crash(cause)
