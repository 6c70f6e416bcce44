"""Job descriptions and arrival processes for the stream scheduler.

A :class:`JobSpec` is everything the scheduler needs to admit, place,
and price one tenant: geometry (ranks, processes per node), the FMI
configuration (``None`` is a fail-stop MPI job that relaunches through
the queue; otherwise the config's ``recovery`` picks the FMI plane and
its knobs -- interval, spares, XOR group, replication degree -- run the
job), the synthetic workload parameters, and the runtime estimate
backfill reasons about::

    JobSpec(name="a", ranks=8, ppn=2,
            config=FmiConfig(interval=1, spare_nodes=1, xor_group_size=4))
    JobSpec(name="b", ranks=4, ppn=2)  # fail-stop

A spec that cannot run is refused when it is built, by the same rule
``FmiJob`` applies (:meth:`~repro.fmi.config.FmiConfig.check_job`), so
it never reaches the queue.

Arrivals are either *trace-driven* (explicit ``(time, spec)`` pairs,
e.g. replayed from a production log) or *distribution-driven*
(:func:`poisson_arrivals` over a spec mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence

from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.fmi.config import FmiConfig
from repro.runtime.core import check_geometry

__all__ = ["JobSpec", "Arrival", "poisson_arrivals"]


@dataclass(frozen=True)
class JobSpec:
    """One tenant's job description (the scheduler's admission unit)."""

    name: str = "job"
    ranks: int = 4
    ppn: int = 1
    #: the FMI runtime configuration, shared by every job built from
    #: this spec; None = fail-stop MPI (requeued on a failure)
    config: Optional[FmiConfig] = None
    iterations: int = 10
    work_s: float = 0.1
    halo_bytes: float = 1e4

    def __post_init__(self) -> None:
        if self.config is None:
            footprint = (check_geometry(self.ranks, self.ppn), 0)
        else:
            footprint = self.config.check_job(self.ranks, self.ppn)
        if self.iterations < 1 or self.work_s <= 0:
            raise ValueError("iterations >= 1 and work_s > 0 required")
        # Fixed at construction (the spec is frozen), since the
        # scheduler reads them on every admission pass: ``footprint`` is
        # ``(compute nodes x copies, reserved spares)``, ``total_nodes``
        # their sum.
        object.__setattr__(self, "footprint", footprint)
        object.__setattr__(self, "total_nodes", sum(footprint))

    # -- geometry -----------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.ranks // self.ppn

    # -- runtime ------------------------------------------------------------
    @property
    def ideal_runtime(self) -> float:
        """Pure compute seconds (the goodput numerator)."""
        return self.iterations * self.work_s

    @property
    def estimated_runtime(self) -> float:
        """The backfill estimate.  Deliberately generous (EASY relies on
        estimates being over-, not under-shoots): twice the compute time
        plus a constant boot/init allowance."""
        return 2.0 * self.ideal_runtime + 2.0

    # -- factories ----------------------------------------------------------
    def make_app(self):
        return bsp_app(self.iterations, self.work_s, self.halo_bytes)

    def expected_results(self) -> List[Any]:
        """Per-rank answers of the workload (solo, failure-free -- also
        what any run *through* failures must reproduce bitwise)."""
        return [
            expected_bsp_state(r, self.ranks, self.iterations)
            for r in range(self.ranks)
        ]


@dataclass(frozen=True)
class Arrival:
    """One submission in a job stream."""

    at: float
    spec: JobSpec


def poisson_arrivals(
    specs: Sequence[JobSpec],
    rate: float,
    count: int,
    rng,
    start: float = 0.0,
) -> List[Arrival]:
    """A Poisson job stream: exponential inter-arrival gaps at ``rate``
    jobs/second, cycling through the spec mix.  ``rng`` is a seeded
    ``numpy.random.Generator`` (the machine's ``"sched"`` stream), so
    the same seed yields the same stream -- arrivals are part of the
    deterministic replay surface."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not specs:
        raise ValueError("need at least one spec")
    arrivals: List[Arrival] = []
    t = start
    for i in range(count):
        t += float(rng.exponential(1.0 / rate))
        arrivals.append(Arrival(at=t, spec=specs[i % len(specs)]))
    return arrivals


def trace_arrivals(pairs: Iterable) -> List[Arrival]:
    """Normalise ``(time, spec)`` pairs into a sorted arrival list."""
    arrivals = [Arrival(at=float(t), spec=s) for t, s in pairs]
    arrivals.sort(key=lambda a: a.at)
    return arrivals
