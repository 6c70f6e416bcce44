"""Failure injection and failure statistics.

Every fault a run injects is a rule of the chaos DSL
(:mod:`repro.chaos.scenario`): fixed-time, on-event, random-schedule
and Poisson (MTBF) triggers, crossed with slot, rank, node and
gray-failure actions.  Two injectors stay here, each for its reason;
they and :class:`~repro.chaos.scenario.ChaosEngine` share one arming
protocol (:class:`_Injector`):

* :class:`FailureInjector` -- per-component Poisson processes with the
  TSUBAME2.0 rates of Table I / Fig 1.  Each component class takes down
  a characteristic number of nodes (its *failure level*): a PSU feeds 4
  nodes, an edge switch 16, a rack 32, the PFS/core switch everything.
  It stays because it generates the Table I / Fig 1 statistics, and
  runs ``python -m repro.sched --mtbf``'s kills as one single-node
  class at rate 1/MTBF (gap, then victim, as ``Rule(Poisson(mtbf),
  KillRandomNode())`` draws them): the perf benchmark's layer check keeps
  ``sched_soak`` off the chaos package until ROADMAP item 21.
* :class:`TraceInjector` -- replays a ``(time, node_ids)`` schedule,
  so one failure scenario runs against several configurations.  It
  stays only because the perf benchmark's workloads import it; its
  deletion rides with ROADMAP item 21.

Failure *records* are kept so experiments can recompute failures/year
and MTBF per class -- that is how Table I and Fig 1 are regenerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.spec import SECONDS_PER_YEAR
from repro.simt.kernel import Simulator

__all__ = [
    "FailureType",
    "FailureRecord",
    "FailureInjector",
    "TraceInjector",
    "TSUBAME2_FAILURE_TYPES",
    "TSUBAME2_TABLE1_CLASSES",
]


@dataclass(frozen=True)
class FailureType:
    """One failing component class."""

    name: str
    #: number of nodes an instance of this failure takes down
    affected_nodes: int
    #: arrival rate, failures/second (whole machine)
    rate_per_second: float
    #: Fig 1 failure level (1..5), by affected-node count
    level: int

    @property
    def failures_per_year(self) -> float:
        return self.rate_per_second * SECONDS_PER_YEAR

    @property
    def mtbf_seconds(self) -> float:
        return 1.0 / self.rate_per_second

    @property
    def mtbf_days(self) -> float:
        return self.mtbf_seconds / 86400.0

    @staticmethod
    def from_per_year(
        name: str, affected_nodes: int, failures_per_year: float, level: int
    ) -> "FailureType":
        return FailureType(
            name, affected_nodes, failures_per_year / SECONDS_PER_YEAR, level
        )


# ---------------------------------------------------------------------------
# TSUBAME2.0 component rates.
#
# Table I gives per-class totals (failures/year):
#   PFS+Core switch (1408 nodes): 5.61   Rack (32): 4.20
#   Edge switch (16): 21.02             PSU (4): 12.61
#   Compute node (1): 554.10
# Fig 1 breaks the compute-node class into components with rates on a
# 1e-6 failures/second axis; the component splits below sum exactly to
# the Table I class totals (554.10 / year = 17.56e-6 / s).
# ---------------------------------------------------------------------------
_US = 1e-6  # Fig 1 axis unit: 1e-6 failures / second

TSUBAME2_FAILURE_TYPES: List[FailureType] = [
    # level-1 components (single compute node)
    FailureType("CPU", 1, 7.00 * _US, 1),
    FailureType("Disk", 1, 3.60 * _US, 1),
    FailureType("OtherSW", 1, 2.60 * _US, 1),
    FailureType("Unknown", 1, 1.60 * _US, 1),
    FailureType("M/B", 1, 1.10 * _US, 1),
    FailureType("Memory", 1, 0.90 * _US, 1),
    FailureType("OtherHW", 1, 0.46 * _US, 1),
    FailureType("GPU", 1, 0.30 * _US, 1),
    # multi-node components
    FailureType.from_per_year("PSU", 4, 12.61, 2),
    FailureType.from_per_year("Edge switch", 16, 21.02, 3),
    FailureType.from_per_year("Rack", 32, 4.20, 4),
    FailureType.from_per_year("PFS", 1408, 3.80, 5),
    FailureType.from_per_year("Core switch", 1408, 1.81, 5),
]

#: Table I's five aggregate classes: name -> (affected nodes, member names)
TSUBAME2_TABLE1_CLASSES = [
    ("PFS, Core switch", 1408, ("PFS", "Core switch")),
    ("Rack", 32, ("Rack",)),
    ("Edge switch", 16, ("Edge switch",)),
    ("PSU", 4, ("PSU",)),
    (
        "Compute node",
        1,
        ("CPU", "Disk", "OtherSW", "Unknown", "M/B", "Memory", "OtherHW", "GPU"),
    ),
]


@dataclass
class FailureRecord:
    """One injected failure occurrence."""

    time: float
    type: FailureType
    nodes: List[int] = field(default_factory=list)


class _Injector:
    """The arming protocol every injector shares.

    An injector is *armed* from :meth:`start` to :meth:`stop`, and
    counts itself in ``sim.fault_injectors`` for exactly that long --
    the veto the collective verdict (``MacroCollectives.verdict`` in
    :mod:`repro.mpi.macro`, which holds the priority order) reports as
    ``"injector"``.  Subclasses extend :meth:`start` with their arrival
    logic and poll ``_armed`` to notice a :meth:`stop`.
    """

    sim: Simulator
    _armed = False

    def start(self) -> None:
        if self._armed:
            raise RuntimeError("injector already started")
        self._armed = True
        self.sim.fault_injectors += 1

    def stop(self) -> None:
        """Disarm; a no-op unless started (so safe to call twice)."""
        if self._armed:
            self._armed = False
            self.sim.fault_injectors -= 1

    def _injected(self, kind: str, **args) -> None:
        """Record one arrival in the trace (metrics read it there)."""
        if self.sim.tracer.enabled:
            self.sim.tracer.instant("failure.inject", "failure", type=kind, **args)


class FailureInjector(_Injector):
    """Poisson failure arrivals for a set of component classes.

    ``on_failure(record)`` is invoked for every arrival; the machine
    layer uses it to crash nodes.  With ``on_failure=None`` the
    injector only records arrivals -- enough for the Table I / Fig 1
    statistics, and much faster for multi-year traces.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        types: Sequence[FailureType],
        num_nodes: int,
        on_failure: Optional[Callable[[FailureRecord], None]] = None,
    ):
        self.sim = sim
        self.rng = rng
        self.types = list(types)
        self.num_nodes = num_nodes
        self.on_failure = on_failure
        self.records: List[FailureRecord] = []

    # -- node selection ----------------------------------------------------
    def _pick_nodes(self, ftype: FailureType) -> List[int]:
        k = min(ftype.affected_nodes, self.num_nodes)
        if k >= self.num_nodes:
            return list(range(self.num_nodes))
        if k == 1:
            return [int(self.rng.integers(self.num_nodes))]
        # Multi-node components cover aligned blocks (a PSU feeds a
        # fixed group of 4 neighbours, a rack a fixed 32, ...).
        n_blocks = self.num_nodes // k
        block = int(self.rng.integers(n_blocks))
        return list(range(block * k, block * k + k))

    # -- driving -----------------------------------------------------------
    def start(self) -> None:
        """Begin injecting; one arrival process per component class."""
        super().start()
        for ftype in self.types:
            self.sim.spawn(self._arrivals(ftype), name=f"fail:{ftype.name}")

    def _arrivals(self, ftype: FailureType):
        while self._armed:
            gap = float(self.rng.exponential(1.0 / ftype.rate_per_second))
            yield self.sim.timeout(gap)
            if not self._armed:
                return
            record = FailureRecord(self.sim.now, ftype, self._pick_nodes(ftype))
            self.records.append(record)
            self._injected(
                ftype.name, level=ftype.level, nodes=list(record.nodes)
            )
            if self.on_failure is not None:
                self.on_failure(record)

    # -- statistics (Table I / Fig 1 regeneration) ---------------------------
    def observed_rate(self, name: str, duration: float) -> float:
        """Measured failures/second for component ``name`` over ``duration``."""
        count = sum(1 for r in self.records if r.type.name == name)
        return count / duration

    def class_stats(self, duration: float):
        """Per-Table-I-class (failures/year, MTBF days) from the trace."""
        out = []
        for cls_name, affected, members in TSUBAME2_TABLE1_CLASSES:
            count = sum(1 for r in self.records if r.type.name in members)
            per_year = count / duration * SECONDS_PER_YEAR
            mtbf_days = (duration / count) / 86400.0 if count else float("inf")
            out.append((cls_name, affected, per_year, mtbf_days))
        return out


class TraceInjector(_Injector):
    """Replay a recorded failure trace: ``(time, node_ids)`` pairs.

    Makes failure scenarios exactly reproducible across experiments
    (e.g. replaying one TSUBAME2.0 trace against several runtime
    configurations), and lets tests script multi-failure schedules
    declaratively.
    """

    def __init__(self, sim: Simulator, schedule, kill: Callable[[List[int]], None]):
        self.sim = sim
        self.schedule = sorted(schedule, key=lambda tn: tn[0])
        # NaN sorts nowhere and would end the replay at its entry,
        # silently dropping every later kill.
        if any(math.isnan(time) for time, _nodes in self.schedule):
            raise ValueError("trace schedule times must not be NaN")
        self.kill = kill
        self.replayed: List[Tuple[float, List[int]]] = []

    def start(self) -> None:
        super().start()
        self.sim.spawn(self._replay(), name="trace-injector")

    def _replay(self):
        now = self.sim.now
        for time, nodes in self.schedule:
            if time < now:
                continue  # events before start are skipped
            yield self.sim.timeout(time - now)
            now = time
            if not self._armed:
                return
            self.replayed.append((time, list(nodes)))
            self._injected("trace", nodes=list(nodes))
            self.kill(list(nodes))

