"""The elastic job-stream scheduler (service mode).

One :class:`StreamScheduler` owns the admission queue of a shared
cluster: tenants submit :class:`~repro.sched.spec.JobSpec`\\ s, the
scheduler grants allocations out of the machine's resource manager and
launches each job against its grant (``FmiJob``/``MpiJob`` with an
externally owned allocation -- the jobs no longer assume they have the
cluster to themselves).

Policies:

* **FCFS** head-of-queue admission, deterministic: submission order,
  kept across requeues.
* **EASY backfill** (default on): while the head job waits for nodes, a
  later job may jump ahead iff it fits *now* and -- by the runtime
  estimates -- cannot delay the head's reservation (finishes before the
  head's shadow time, or uses only nodes the head's reservation leaves
  over).  The head is never starved: its reservation is computed before
  any backfill candidate is considered.

Failure handling is per recovery family: FMI tenants (a spec with a
config, whose ``recovery`` is ``global`` / ``logged`` /
``replicated``) recover in place -- drawing replacement nodes from
their reserved spares, then the shared :class:`SparePool`, then
on-demand RM grants via ``Allocation.grow()`` -- while fail-stop
tenants (``config=None``) abort and are requeued (the classic
relaunch-through-the-batch-queue loop) up to ``MAX_RESTARTS`` times.

Everything is deterministic given the machine's seeded RNG streams:
the same submission stream replays to the same schedule, byte for
byte, which the e2e suite asserts on the whole trace.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.cluster.machine import Machine
from repro.cluster.resource_manager import Allocation, SparePool
from repro.mpi.runtime import MpiJob
from repro.obs.metrics import percentile
from repro.runtime.core import JobAborted
from repro.sched.spec import Arrival, JobSpec
from repro.simt.kernel import Event

__all__ = ["StreamScheduler", "TenantRecord", "SchedSummary"]

# terminal states: the record will never run again
_TERMINAL = ("done", "failed", "rejected")

#: fail-stop relaunches through the queue before a tenant is failed
MAX_RESTARTS = 4


class TenantRecord:
    """One submitted job's life in the queue (the scheduler's ledger)."""

    def __init__(self, spec: JobSpec, seq: int):
        self.spec = spec
        #: FIFO position; requeues keep it, so fairness is by submission
        self.seq = seq
        self.job_id = f"{spec.name}#{seq}"
        self.state = "pending"  # pending -> queued -> running -> ...
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.job = None
        self.alloc: Optional[Allocation] = None
        #: node ids granted at the (latest) start
        self.nodes: List[int] = []
        self.restarts = 0
        #: always 0: the scheduler never evicts (read by the perf ledger)
        self.preemptions = 0
        self.result = None
        self.failure: Optional[BaseException] = None
        #: idle nodes the moment this job started (property-test teeth:
        #: a backfilled start implies the then-head could not fit)
        self.idle_before_start: Optional[int] = None
        self.backfilled = False
        #: the then-head's footprint when this job backfilled past it
        self.head_need_at_start: Optional[int] = None
        #: node-seconds actually occupied, summed over every attempt
        self.busy_node_s = 0.0
        #: per-attempt occupancy: (started_at, finished_at, node ids) --
        #: the no-double-booking invariant is checked against these
        self.attempts: List[tuple] = []

    @property
    def wait_s(self) -> Optional[float]:
        """Queue wait of the first start (the sched.wait_s metric): a
        restart moves ``started_at``, not the first attempt's start."""
        first = self.attempts[0][0] if self.attempts else self.started_at
        if first is None or self.submitted_at is None:
            return None
        return first - self.submitted_at

    @property
    def service_s(self) -> Optional[float]:
        if self.finished_at is None or self.started_at is None:
            return None
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TenantRecord {self.job_id} {self.state}>"


class SchedSummary:
    """Aggregate + per-tenant accounting of one scheduler run."""

    def __init__(self, scheduler: "StreamScheduler"):
        records = scheduler.records
        self.records = records
        self.jobs = len(records)
        self.completed = sum(1 for r in records if r.state == "done")
        self.failed = sum(1 for r in records if r.state in ("failed", "rejected"))
        self.restarts = sum(r.restarts for r in records)
        waits = sorted(r.wait_s for r in records if r.wait_s is not None)
        self.mean_wait = sum(waits) / len(waits) if waits else 0.0
        self.p50_wait = percentile(waits, 50)
        self.p99_wait = percentile(waits, 99)
        starts = [r.submitted_at for r in records if r.submitted_at is not None]
        ends = [r.finished_at for r in records if r.finished_at is not None]
        self.makespan = (max(ends) - min(starts)) if starts and ends else 0.0
        useful = sum(
            r.spec.ideal_runtime * r.spec.num_nodes
            for r in records if r.state == "done"
        )
        busy = sum(r.busy_node_s for r in records)
        #: useful compute node-seconds per occupied node-second --
        #: failures and restarts burn occupancy without useful work, so
        #: this is the number that degrades with the failure rate
        self.goodput = useful / busy if busy > 0 else 0.0
        total = scheduler.machine.spec.num_nodes * self.makespan
        self.utilization = busy / total if total > 0 else 0.0


class StreamScheduler:
    """Admit a stream of FMI/MPI jobs onto one shared machine."""

    def __init__(
        self,
        machine: Machine,
        backfill: bool = True,
        spare_pool: int = 0,
    ):
        self.machine = machine
        self.sim = machine.sim
        self.rm = machine.rm
        self.backfill = backfill
        #: shared warm-spare reserve every tenant's grow() draws on
        self.pool: Optional[SparePool] = (
            SparePool(machine.rm, spare_pool) if spare_pool > 0 else None
        )
        self._pool_target = spare_pool
        self.queue: List[TenantRecord] = []
        self.running: Dict[str, TenantRecord] = {}
        self.records: List[TenantRecord] = []
        self._seq = 0
        self._open = 0  # records not yet in a terminal state
        self._drained: Optional[Event] = None
        self._pumping = False
        self._start_listeners: List[Callable[[TenantRecord], None]] = []
        #: high-water mark of concurrently running tenants
        self.max_concurrent = 0

    # -- submission ----------------------------------------------------------
    def submit(self, spec: JobSpec, at: Optional[float] = None) -> TenantRecord:
        """Submit one job, now or at absolute sim time ``at``."""
        rec = TenantRecord(spec, self._seq)
        self._seq += 1
        self.records.append(rec)
        self._open += 1
        if at is None or at <= self.sim.now:
            self._enqueue(rec)
        else:
            timer = self.sim.timeout(at - self.sim.now)

            # A named function, not a lambda: schedule recordings
            # identify a callback by its name.
            def arrive(_e, rec=rec):
                self._enqueue(rec)

            timer.callbacks.append(arrive)
        return rec

    def submit_many(self, arrivals: List[Arrival]) -> List[TenantRecord]:
        return [self.submit(a.spec, at=a.at) for a in arrivals]

    def on_start(self, callback: Callable[[TenantRecord], None]) -> None:
        """Subscribe to job starts (tests use this to aim chaos)."""
        self._start_listeners.append(callback)

    def drain(self) -> Event:
        """Event that fires once every submitted job has reached a
        terminal state (done/failed/rejected); a pending arrival is an
        open record.  Run the simulator until this to soak a stream."""
        if self._drained is None:
            self._drained = self.sim.event()
            self._check_drained()
        return self._drained

    # -- internals -----------------------------------------------------------
    def _enqueue(self, rec: TenantRecord) -> None:
        if rec.submitted_at is None:
            rec.submitted_at = self.sim.now
        rec.state = "queued"
        self.queue.append(rec)
        # FIFO by original submission order, across requeues too
        self.queue.sort(key=lambda r: r.seq)
        self._trace("sched.submit", rec)
        self._pump()

    def _trace(self, event: str, rec: TenantRecord, **args) -> None:
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(event, "sched", job=rec.job_id, **args)

    def _build_job(self, rec: TenantRecord, alloc: Allocation):
        spec = rec.spec
        app = spec.make_app()
        if spec.config is None:
            return MpiJob(
                self.machine, app, spec.ranks, spec.ppn,
                name=rec.job_id, alloc=alloc,
            )
        from repro.fmi.job import FmiJob

        return FmiJob(
            self.machine, app, spec.ranks, spec.ppn,
            config=spec.config, name=rec.job_id, alloc=alloc,
        )

    def _try_start(self, rec: TenantRecord, backfilled: bool) -> bool:
        idle_before = self.rm.idle_count
        alloc = self.rm.try_allocate(*rec.spec.footprint)
        if alloc is None:
            return False
        if self.pool is not None:
            alloc.spare_pool = self.pool
        job = self._build_job(rec, alloc)
        self.queue.remove(rec)
        rec.job = job
        rec.alloc = alloc
        rec.state = "running"
        rec.backfilled = backfilled
        rec.idle_before_start = idle_before
        rec.nodes = [n.id for n in alloc.all_nodes]
        rec.started_at = self.sim.now
        self.running[rec.job_id] = rec
        self.max_concurrent = max(self.max_concurrent, len(self.running))
        self._trace(
            "sched.start", rec, nodes=list(rec.nodes),
            backfilled=backfilled, idle_before=idle_before,
        )
        done = job.launch()
        done.callbacks.append(lambda evt, rec=rec: self._job_done(rec, evt))
        for cb in self._start_listeners:
            cb(rec)
        return True

    def _job_done(self, rec: TenantRecord, evt: Event) -> None:
        now = self.sim.now
        rec.finished_at = now
        if rec.started_at is not None:
            rec.busy_node_s += (now - rec.started_at) * len(rec.nodes)
            rec.attempts.append((rec.started_at, now, list(rec.nodes)))
        self.running.pop(rec.job_id, None)
        if evt.ok:
            rec.state = "done"
            rec.result = evt.value
            self._trace("sched.finish", rec, wait=rec.wait_s,
                        service=rec.service_s)
        elif (
            isinstance(evt.value, JobAborted)
            and rec.spec.config is None
            and rec.restarts < MAX_RESTARTS
        ):
            # The classic batch loop: relaunch through the queue.
            rec.restarts += 1
            rec.state = "requeueing"
            self._trace("sched.requeue", rec, cause=str(evt.value))
            delay = self.sim.timeout(self.machine.spec.job_relaunch_latency)
            delay.callbacks.append(lambda _e, rec=rec: self._enqueue(rec))
        else:
            rec.state = "failed"
            rec.failure = evt.value
            self._trace("sched.fail", rec, cause=str(evt.value))
        self._settle(rec)
        if self.pool is not None and not self.queue:
            # Cluster has slack: restock the shared reserve.
            self.pool.refill(self._pool_target)
        self._pump()

    def _settle(self, rec: TenantRecord) -> None:
        if rec.state in _TERMINAL:
            self._open -= 1
            self._check_drained()

    def _check_drained(self) -> None:
        if (
            self._drained is not None
            and not self._drained.triggered
            and self._open == 0
        ):
            self._drained.succeed(self.summary())

    # -- the pump: FCFS + EASY backfill --------------------------------------
    def _pump(self) -> None:
        if self._pumping:
            return
        self._pumping = True
        try:
            progress = True
            while progress and self.queue:
                progress = False
                head = self.queue[0]
                if head.spec.total_nodes > len(self.machine.live_nodes):
                    # Can never fit (cluster too small / shrunk): fail
                    # it rather than starve everyone behind it.
                    self.queue.remove(head)
                    head.state = "rejected"
                    head.finished_at = self.sim.now
                    head.failure = RuntimeError(
                        f"{head.spec.total_nodes} nodes requested, "
                        f"cluster has {len(self.machine.live_nodes)}"
                    )
                    self._trace("sched.fail", head, cause="unsatisfiable")
                    self._settle(head)
                    progress = True
                    continue
                if self._try_start(head, backfilled=False):
                    progress = True
                    continue
                if self.pool is not None and (
                    self.rm.idle_count
                    < head.spec.total_nodes
                    <= self.rm.idle_count + len(self.pool)
                ):
                    # The warm reserve yields to queue pressure: break
                    # pool nodes back into the idle pool so the head can
                    # start (restocked later, when the queue is empty).
                    while self.rm.idle_count < head.spec.total_nodes:
                        node = self.pool.take()
                        if node is None:
                            break
                        self.rm.return_node(node)
                    if self._try_start(head, backfilled=False):
                        progress = True
                        continue
                if not self.backfill:
                    break
                shadow, extra = self._shadow_window(head)
                for rec in list(self.queue[1:]):
                    if self._backfill_ok(rec, shadow, extra):
                        if self._try_start(rec, backfilled=True):
                            rec.head_need_at_start = head.spec.total_nodes
                            progress = True
                            break
        finally:
            self._pumping = False

    def _shadow_window(self, head: TenantRecord):
        """EASY reservation for the blocked head: (shadow time, extra).

        Walk the running jobs in estimated-completion order until the
        head's footprint fits; that completion is the *shadow* time, and
        ``extra`` is how many idle-at-shadow nodes the head leaves over
        for backfill jobs that would outlive the shadow.
        """
        need = head.spec.total_nodes
        idle = self.rm.idle_count
        now = self.sim.now
        ends = sorted(
            (
                max(rec.started_at + rec.spec.estimated_runtime, now),
                len(rec.nodes),
            )
            for rec in self.running.values()
        )
        for end, freed in ends:
            idle += freed
            if idle >= need:
                return end, idle - need
        return math.inf, 0

    def _backfill_ok(self, rec: TenantRecord, shadow: float, extra: int) -> bool:
        need = rec.spec.total_nodes
        if need > self.rm.idle_count:
            return False
        if self.sim.now + rec.spec.estimated_runtime <= shadow:
            return True  # done before the head's reservation matures
        return need <= extra  # uses only nodes the reservation leaves over

    # -- results -------------------------------------------------------------
    def summary(self) -> SchedSummary:
        return SchedSummary(self)

    def shutdown(self) -> None:
        """Return the shared pool's nodes (end of the service window)."""
        if self.pool is not None:
            self.pool.drain()
