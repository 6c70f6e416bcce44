"""Run one (campaign, seed) pair and check every invariant.

The runner builds a fresh simulator + machine + traced FMI job for the
pair, subscribes the trace invariants (:class:`TraceInvariants`) to
its tracer so they read the run as it happens, arms the campaign's
scenario through a :class:`ChaosEngine`, samples the failure detector
with a :class:`DetectorMonitor`, drives the simulation to completion
(bounded by ``MAX_EVENTS`` so a livelock becomes a reported violation
instead of a hang), and adds the state checks once the run ends
(:meth:`TraceInvariants.verdict`).  A recorded trace replays through
the same invariants: ``TraceInvariants().replay(events)``.

Determinism: everything stochastic -- victim slots, kill times, event
jitter -- is drawn from the machine's seeded ``"chaos"`` RNG stream, so
``run_campaign(c, seed)`` replays the exact same schedule every time.
The reference answer is the BSP app's closed form
(:func:`~repro.apps.synthetic.expected_bsp_state`), bit-equal to a
failure-free run of the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.chaos.campaigns import CAMPAIGNS, Campaign
from repro.chaos.invariants import DetectorMonitor, TraceInvariants, Violation
from repro.chaos.scenario import ChaosEngine, Scenario
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.fmi import FmiJob
from repro.obs import Tracer
from repro.simt import Simulator
from repro.simt.kernel import SimulationError
from repro.simt.primitives import AllOf
from repro.simt.rng import RngRegistry

__all__ = ["RunResult", "run_campaign", "MAX_EVENTS"]

#: hard event budget per run; hitting it is reported as a liveness
#: violation (a deadlocked run would otherwise just run out of heap,
#: a livelocked one would spin forever)
MAX_EVENTS = 3_000_000


@dataclass
class RunResult:
    campaign: str
    seed: int
    violations: List[Violation]
    recoveries: int
    injected: List[Tuple[float, str]]
    sim_time: float
    trace_events: int
    #: gray-failure statistics (all zero for kill-only campaigns)
    false_suspicions: int = 0
    repaired_edges: int = 0
    partition_stalls: int = 0
    partition_retries: int = 0
    omission_drops: int = 0
    omission_dups: int = 0
    dup_dropped: int = 0
    tracer: Optional[Tracer] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations


def _resolve(campaign: Union[str, Campaign]) -> Campaign:
    if isinstance(campaign, Campaign):
        return campaign
    try:
        return CAMPAIGNS[campaign]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(f"unknown campaign {campaign!r} (known: {known})")


def _build_job(campaign: Campaign, seed: int, names: Sequence[str] = ("fmi",)):
    """A fresh simulator and machine carrying one identical FMI job per
    name, each on its own allocation from the shared resource manager;
    returns ``(sim, machine, job, ...)``."""
    sim = Simulator()
    machine = Machine(
        sim, SIERRA.with_nodes(campaign.total_nodes), RngRegistry(seed)
    )
    jobs = [
        FmiJob(
            machine,
            bsp_app(campaign.iterations, campaign.work_s, campaign.halo_bytes),
            num_ranks=campaign.num_ranks,
            procs_per_node=campaign.ppn,
            config=campaign.config,
            name=name,
        )
        for name in names
    ]
    return (sim, machine, *jobs)


def reference_results(campaign: Union[str, Campaign]) -> list:
    """The per-rank answers every run of the campaign must end with."""
    c = _resolve(campaign)
    return [expected_bsp_state(r, c.num_ranks, c.iterations)
            for r in range(c.num_ranks)]


def run_campaign(
    campaign: Union[str, Campaign], seed: int, keep_trace: bool = False
) -> RunResult:
    """One deterministic chaos run + full invariant check.

    A campaign with ``tenants > 1`` is service mode: kills are aimed at
    specific tenants (:class:`~repro.chaos.scenario.KillTenantSlot`),
    and the verdict adds the ``tenant-isolation`` invariant to the
    per-trace and per-job checks it runs for any number of jobs.  The
    solo run is the same body with one job.
    """
    campaign = _resolve(campaign)
    reference = reference_results(campaign)
    solo = campaign.tenants == 1
    sim, machine, *jobs = _build_job(
        campaign, seed,
        ["fmi"] if solo else [f"t{t}" for t in range(campaign.tenants)],
    )
    tracer = Tracer(sim)
    invariants = TraceInvariants()
    invariants.subscribe(tracer)
    rng = machine.rng.stream("chaos")
    scenario = Scenario(campaign.name, campaign.rules(rng, campaign))
    engine = ChaosEngine(machine, rng, jobs=jobs)
    monitors = [DetectorMonitor(job) for job in jobs]

    launched = [job.launch() for job in jobs]
    engine.arm(scenario)
    for monitor in monitors:
        monitor.start()

    violations: List[Violation] = []
    results: Optional[list] = None  # per tenant
    try:
        # (no AllOf around a solo launch: it would be one more event)
        sim.run(
            until=launched[0] if solo else AllOf(sim, launched),
            max_events=MAX_EVENTS,
        )
        results = [done.value for done in launched]
    except SimulationError as exc:
        violations.append(Violation("liveness", str(exc)))
    except Exception as exc:  # some job aborted (FmiAbort, ...)
        violations.append(Violation("liveness", f"job failed: {exc!r}"))
    engine.disarm()
    for monitor in monitors:
        monitor.sample()  # one final look at the detector table

    violations += invariants.verdict(jobs, results, reference, monitors)
    return RunResult(
        campaign=campaign.name,
        seed=seed,
        violations=violations,
        recoveries=sum(j.epoch for j in jobs),
        injected=list(engine.injected),
        sim_time=sim.now,
        trace_events=len(tracer.events),
        false_suspicions=sum(j.detector.false_suspicions for j in jobs),
        repaired_edges=sum(j.detector.repaired_edges for j in jobs),
        partition_stalls=sum(j.transport.partition_stalls for j in jobs),
        partition_retries=sum(j.transport.partition_retries for j in jobs),
        omission_drops=sum(j.transport.omission_drops for j in jobs),
        omission_dups=sum(j.transport.omission_dups for j in jobs),
        dup_dropped=sum(j.transport.dup_dropped for j in jobs),
        tracer=tracer if keep_trace else None,
    )
