"""repro.cluster -- a discrete-event-simulated HPC machine.

Substitutes for the hardware the paper evaluated on (LLNL's Sierra
cluster, TSUBAME2.0 failure data, the Coastal cluster failure rates):

* :mod:`~repro.cluster.spec` -- machine descriptions with calibrated
  bandwidth/latency constants (Table II of the paper and the values
  needed to reproduce Table III / Figs 10-15).
* :mod:`~repro.cluster.node` -- a compute node: memory bus, full-duplex
  NIC, node-local tmpfs, and a process registry so a crash kills
  everything on the node.
* :mod:`~repro.cluster.network` -- the interconnect fabric (wire
  latency + fair-share NIC bandwidth at both endpoints).
* :mod:`~repro.cluster.filesystem` -- tmpfs and parallel-filesystem
  models with real byte storage (checkpoints written here can actually
  be read back and verified).
* :mod:`~repro.cluster.failures` -- per-component Poisson failure
  injection (Table I / Fig 1 rates) and trace replay; MTBF-driven
  kills are the chaos DSL's ``Poisson`` trigger.
* :mod:`~repro.cluster.resource_manager` -- a SLURM-ish allocator with
  a spare-node pool, used by ``fmirun`` for dynamic node allocation.
* :mod:`~repro.cluster.machine` -- glues the above into a `Machine`.
"""

from repro.cluster.failures import (
    FailureInjector,
    FailureRecord,
    FailureType,
    TSUBAME2_FAILURE_TYPES,
    TraceInjector,
)
from repro.cluster.filesystem import ParallelFilesystem, Tmpfs
from repro.cluster.machine import Machine
from repro.cluster.network import Fabric
from repro.cluster.node import Node
from repro.cluster.resource_manager import Allocation, ResourceManager
from repro.cluster.spec import (
    COASTAL,
    ClusterSpec,
    FilesystemSpec,
    NetworkSpec,
    NodeSpec,
    SIERRA,
    TSUBAME2,
)

__all__ = [
    "Allocation",
    "COASTAL",
    "ClusterSpec",
    "Fabric",
    "FailureInjector",
    "FailureRecord",
    "FailureType",
    "FilesystemSpec",
    "Machine",
    "NetworkSpec",
    "Node",
    "NodeSpec",
    "ParallelFilesystem",
    "ResourceManager",
    "SIERRA",
    "Tmpfs",
    "TSUBAME2",
    "TSUBAME2_FAILURE_TYPES",
    "TraceInjector",
]
