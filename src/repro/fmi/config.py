"""FMI runtime configuration (the paper's environment variables)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional, Tuple

from repro.fmi.xor_group import XorGroupLayout

__all__ = ["FmiConfig", "RECOVERY_MODES"]

#: recovery-plane selection: "global" rolls every rank back to the last
#: coordinated checkpoint; "logged" replays sender-based message logs
#: into only the restarted ranks (partial rollback); "replicated" backs
#: every virtual rank with live replica processes and *fails over*
#: instead of rolling back
RECOVERY_MODES = ("global", "logged", "replicated")

#: the knobs that count something: slice bounds, loop counts and
#: comparisons mid-run, so a float or NaN is refused here
_INTEGRAL = (
    "interval", "xor_group_size", "replication_degree", "spare_nodes",
    "level2_every",
)


@dataclass(frozen=True)
class FmiConfig:
    """Knobs of the FMI runtime.

    Mirrors the paper's configuration surface: a fixed checkpoint
    ``interval`` (the *interval* environment variable, in FMI_Loop
    iterations) **or** an expected ``mtbf_seconds`` from which the
    runtime auto-tunes a time-based interval with Vaidya's model
    (Section III-B).  If neither is given, a checkpoint is written on
    the first FMI_Loop call only (the minimum the paper guarantees).
    """

    #: checkpoint every k-th FMI_Loop call (k >= 1); None = use MTBF
    interval: Optional[int] = None
    #: expected machine MTBF driving Vaidya auto-tuning; None = off
    mtbf_seconds: Optional[float] = None
    #: redundancy group size in ranks (Section V-C tunes this; 16 is
    #: the paper's choice). Groups are laid out across nodes; a job
    #: with fewer nodes gets one group over all of them.
    xor_group_size: int = 16
    #: level-1 redundancy scheme: "xor" (the paper's ring-pipelined
    #: parity), "partner" (full-copy neighbour replication), or
    #: "single" (node-local only; pair with ``level2_every``)
    redundancy: str = "xor"
    #: recovery plane: "global" (every failure rolls all ranks back to
    #: the last checkpoint -- the paper's behaviour) or "logged"
    #: (sender-based message logging + receiver determinants: only the
    #: restarted ranks roll back, survivors replay logged traffic) or
    #: "replicated" (dual-modular ranks: a primary death promotes the
    #: live replica in place -- no rollback at all)
    recovery: str = "global"
    #: physical processes per virtual rank under recovery="replicated"
    #: (2 = dual-modular redundancy, the FTHP-MPI default); ignored by
    #: the rollback-based planes
    replication_degree: int = 2
    #: pre-reserved spare nodes requested with the allocation
    spare_nodes: int = 1
    #: master switch: False disables FMI_Loop checkpointing entirely
    #: ("users can run with the fault tolerance capabilities disabled")
    checkpoint_enabled: bool = True
    #: multilevel C/R (the paper's §VIII future work): every k-th
    #: level-1 checkpoint is also flushed to the PFS, and failures that
    #: exceed XOR protection fall back to the newest level-2 dataset.
    #: None disables level 2 (the 2014 prototype's behaviour).
    level2_every: Optional[int] = None
    #: derived, not settable: physical rank-processes per virtual rank
    #: (``replication_degree`` under recovery="replicated", else 1);
    #: physical slot ``s`` hosts copy ``s // num_nodes`` of virtual slot
    #: ``s % num_nodes``
    num_copies: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _INTEGRAL:
            value = getattr(self, name)
            if value is not None and not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.interval is not None and self.interval < 1:
            raise ValueError("interval must be >= 1")
        # The float knobs are guarded as ``not x > 0`` / ``not x >= 0``:
        # NaN fails every comparison, so it is refused here, not mid-run
        # (Vaidya's model needs a finite MTBF as well).
        if (self.mtbf_seconds is not None
                and not 0 < self.mtbf_seconds < math.inf):
            raise ValueError(
                f"mtbf_seconds must be positive and finite, "
                f"got {self.mtbf_seconds!r}"
            )
        if self.xor_group_size < 2:
            raise ValueError("xor_group_size must be >= 2")
        # Late import: redundancy.py owns the scheme registry and the
        # config module must stay importable before it.
        from repro.fmi.redundancy import SCHEMES

        if self.redundancy not in SCHEMES:
            raise ValueError(
                f"unknown redundancy scheme {self.redundancy!r} "
                f"(choose from {sorted(SCHEMES)})"
            )
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {self.recovery!r} "
                f"(choose from {sorted(RECOVERY_MODES)})"
            )
        if self.recovery != "global" and self.level2_every is not None:
            raise ValueError(
                f"recovery={self.recovery!r} does not support multilevel "
                f"C/R (level2_every): only global rollback restores from "
                f"the level-2 tier"
            )
        if self.replication_degree < 1:
            raise ValueError(
                "replication_degree must be >= 1 (1 = no redundancy, "
                "2 = dual-modular)"
            )
        if (self.recovery == "replicated"
                and self.spare_nodes < self.replication_degree - 1):
            raise ValueError(
                f"recovery='replicated' with replication_degree="
                f"{self.replication_degree} needs spare_nodes >= "
                f"{self.replication_degree - 1} to re-arm replicas after "
                f"a failover (got spare_nodes={self.spare_nodes})"
            )
        if self.spare_nodes < 0:
            raise ValueError("spare_nodes must be >= 0")
        if self.level2_every is not None and self.level2_every < 1:
            raise ValueError("level2_every must be >= 1")
        object.__setattr__(
            self, "num_copies",
            self.replication_degree if self.recovery == "replicated" else 1,
        )

    def check_job(self, num_ranks: int, procs_per_node: int) -> Tuple[int, int]:
        """The legality rule of an FMI job: geometry x this config.

        Every entry point (``FmiJob`` through ``Fmirun.bind``,
        ``repro.sched.JobSpec``, ``repro.chaos.Campaign``) calls it at
        construction, so a job that cannot run is refused before it
        holds a node.  The config's own knobs were checked when it was
        built; this adds the geometry and the XOR group layout (groups
        spread a node's ranks over distinct nodes, Section V-A).
        Returns the node footprint ``(compute nodes x copies, spares)``.
        """
        layout = XorGroupLayout(num_ranks, procs_per_node, self.xor_group_size)
        return layout.num_nodes * self.num_copies, self.spare_nodes
