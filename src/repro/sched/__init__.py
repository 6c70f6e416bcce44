"""repro.sched -- the multi-tenant job-stream scheduler (service mode).

The paper's operational pitch priced on the thing operators actually
face: many concurrent FMI/MPI jobs sharing one cluster.  A
:class:`~repro.sched.scheduler.StreamScheduler` admits a trace- or
distribution-driven stream of :class:`~repro.sched.spec.JobSpec`\\ s
with FCFS + EASY backfill, grants each tenant an externally owned
allocation, shares a warm
:class:`~repro.cluster.resource_manager.SparePool` across tenants, and
labels every metric/trace record with the tenant's ``job_id``.

Soak it from the command line::

    python -m repro.sched --seeds 5 --jobs 16 --rate 0.5 --mtbf 200

and price operating points analytically with
:mod:`repro.models.queueing` (see ``benchmarks/bench_sched_capacity``).
"""

from repro.sched.scheduler import SchedSummary, StreamScheduler, TenantRecord
from repro.sched.spec import (
    Arrival,
    JobSpec,
    poisson_arrivals,
    trace_arrivals,
)

__all__ = [
    "Arrival",
    "JobSpec",
    "SchedSummary",
    "StreamScheduler",
    "TenantRecord",
    "poisson_arrivals",
    "trace_arrivals",
]
