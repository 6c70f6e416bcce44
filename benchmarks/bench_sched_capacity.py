"""Service-mode capacity: arrival rate x failure rate x recovery family.

Sweeps the ``python -m repro.sched`` soak harness over a grid of
operating points on one shared 8-node cluster and checks the queueing
*shape* of the result:

* **rate sweep** (failure-free): per family, mean queue wait is
  monotone non-decreasing in the arrival rate, and at least one family
  genuinely queues at the top rate;
* **failure sweep** (fixed arrival rate): per family, goodput at the
  harshest MTBF does not exceed the failure-free goodput -- failures
  burn occupancy without useful work;
* **model cross-check**: at low utilization the simulated mean wait
  agrees with :func:`repro.models.queueing.estimate_capacity` once the
  model is calibrated with the measured service time (the analytic
  M/G/c wait and the simulated wait are both ~0 there; divergence
  means the scheduler is inventing queueing delay the theory says
  should not exist).

Every operating point lands in the ``BENCH_<id>.json`` record
(`p50/p99/mean wait, goodput, makespan, completed fraction, model
prediction``) so the capacity trajectory is diffable across PRs.
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Any, Dict, List

from _harness import SCALE, emit

from repro.analysis.tables import Table
from repro.models.queueing import estimate_capacity
from repro.sched.__main__ import run_soak

NUM_SEEDS = {"smoke": 2, "quick": 3, "full": 5}[SCALE]
JOBS = {"smoke": 10, "quick": 16, "full": 24}[SCALE]
NODES = 8

#: failure-free arrival-rate sweep (jobs/s); the top rate saturates the
#: narrow families on 8 nodes, the bottom rate is the low-utilization
#: point the analytic model must agree with
RATES = {
    "smoke": [0.25, 1.5],
    "quick": [0.25, 0.75, 1.5],
    "full": [0.125, 0.25, 0.5, 1.0, 2.0],
}[SCALE]

#: machine-wide MTBF sweep (seconds between kills) at a fixed arrival
#: rate; 0 = no failures.  Streams run ~15-25 simulated seconds, so
#: single-digit MTBFs land several kills per run.
MTBFS = {
    "smoke": [0.0, 6.0],
    "quick": [0.0, 12.0, 6.0],
    "full": [0.0, 24.0, 12.0, 6.0, 3.0],
}[SCALE]
FIXED_RATE = 0.6

FAMILIES = {
    "smoke": ["failstop", "global"],
    "quick": ["failstop", "global", "logged", "replicated"],
    "full": ["failstop", "global", "logged", "replicated"],
}[SCALE]


def _soak_args(family: str, rate: float, mtbf: float) -> argparse.Namespace:
    return argparse.Namespace(
        mix=family, nodes=NODES, jobs=JOBS, rate=rate, mtbf=mtbf,
        spare_pool=0, no_backfill=False,
    )


def soak_point(family: str, rate: float, mtbf: float) -> Dict[str, Any]:
    """Run NUM_SEEDS soaks at one operating point; aggregate over seeds."""
    t0 = time.perf_counter()
    waits: List[float] = []
    p50s: List[float] = []
    p99s: List[float] = []
    goodputs: List[float] = []
    makespans: List[float] = []
    services: List[float] = []
    sim_t = 0.0
    completed = jobs = 0
    violations: List[str] = []
    for seed in range(NUM_SEEDS):
        summary, viol, now = run_soak(seed, _soak_args(family, rate, mtbf))
        violations.extend(f"seed {seed}: {v}" for v in viol)
        waits.append(summary.mean_wait)
        p50s.append(summary.p50_wait)
        p99s.append(summary.p99_wait)
        goodputs.append(summary.goodput)
        makespans.append(summary.makespan)
        services.extend(
            r.service_s for r in summary.records if r.service_s is not None
        )
        completed += summary.completed
        jobs += summary.jobs
        sim_t += now
    return {
        "procs": f"{family}/rate{rate:g}/mtbf{mtbf:g}",
        "family": family,
        "rate": rate,
        "mtbf": mtbf,
        "nodes": NODES,
        "jobs_per_seed": JOBS,
        "seeds": NUM_SEEDS,
        "mean_wait_s": statistics.mean(waits),
        "p50_wait_s": statistics.mean(p50s),
        "p99_wait_s": statistics.mean(p99s),
        "goodput": statistics.mean(goodputs),
        "makespan_s": statistics.mean(makespans),
        "completed_frac": completed / jobs if jobs else 0.0,
        "service_s": statistics.mean(services) if services else 0.0,
        "service_scv": (
            statistics.variance(services) / statistics.mean(services) ** 2
            if len(services) > 1 and statistics.mean(services) > 0 else 0.0
        ),
        "violations": violations,
        "wall_clock_s": time.perf_counter() - t0,
        "simulated_s": sim_t / NUM_SEEDS,
    }


def _attach_model(points: List[Dict[str, Any]]) -> None:
    """Annotate a family's rate sweep with the analytic M/G/c curve,
    calibrated with the measured low-load service time (which folds in
    launch/checkpoint overhead the spec's ideal runtime does not)."""
    base = points[0]  # lowest rate = calibration point
    svc, scv = base["service_s"], base["service_scv"]
    per_job = base["footprint"]
    for pt in points:
        est = estimate_capacity(
            num_nodes=NODES, nodes_per_job=per_job,
            arrival_rate=pt["rate"], ideal_runtime=svc, service_scv=scv,
        )
        pt["model_mean_wait_s"] = est.mean_wait
        pt["model_utilization"] = est.utilization


def run_all() -> List[Dict[str, Any]]:
    from repro.sched.__main__ import FAMILY_SPECS

    out: List[Dict[str, Any]] = []
    for family in FAMILIES:
        footprint = FAMILY_SPECS[family].total_nodes
        sweep = []
        for rate in RATES:
            pt = soak_point(family, rate, mtbf=0.0)
            pt["footprint"] = footprint
            sweep.append(pt)
        _attach_model(sweep)
        out.extend(sweep)
        for mtbf in MTBFS:
            pt = soak_point(family, FIXED_RATE, mtbf)
            pt["footprint"] = footprint
            out.append(pt)
    return out


def _check_shape(out: List[Dict[str, Any]]) -> None:
    bad = [(p["procs"], v) for p in out for v in p["violations"]]
    assert bad == [], f"service-mode invariant violations: {bad[:3]}"

    queued_anywhere = False
    for family in FAMILIES:
        # -- wait monotone in arrival rate (failure-free sweep)
        sweep = [p for p in out if p["family"] == family and p["mtbf"] == 0.0
                 and p["rate"] in RATES]
        sweep.sort(key=lambda p: p["rate"])
        waits = [p["mean_wait_s"] for p in sweep]
        for lo, hi in zip(waits, waits[1:]):
            assert hi >= lo - 0.15, (
                f"{family}: mean wait fell from {lo:.2f}s to {hi:.2f}s "
                f"as the arrival rate rose"
            )
        assert waits[-1] >= waits[0], family
        queued_anywhere = queued_anywhere or waits[-1] > 0.05
        # -- model agreement at low utilization
        for pt in sweep:
            if pt["model_utilization"] <= 0.35:
                assert abs(pt["mean_wait_s"] - pt["model_mean_wait_s"]) <= 0.4, (
                    f"{pt['procs']}: simulated wait {pt['mean_wait_s']:.2f}s "
                    f"vs M/G/c {pt['model_mean_wait_s']:.2f}s at "
                    f"{pt['model_utilization']:.0%} utilization"
                )
        # -- goodput degrades (gracefully) with the failure rate
        fsweep = [p for p in out if p["family"] == family
                  and p["rate"] == FIXED_RATE]
        clean = next(p for p in fsweep if p["mtbf"] == 0.0)
        harsh = min((p for p in fsweep if p["mtbf"] > 0.0),
                    key=lambda p: p["mtbf"])
        assert harsh["goodput"] <= clean["goodput"] + 0.02, (
            f"{family}: goodput rose from {clean['goodput']:.3f} to "
            f"{harsh['goodput']:.3f} under mtbf={harsh['mtbf']:g}s"
        )
    assert queued_anywhere, "no family ever queued: the sweep has no teeth"


def test_sched_capacity(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        f"Service-mode capacity ({SCALE}): {NODES} nodes, "
        f"{JOBS} jobs/seed, {NUM_SEEDS} seeds",
        ["Point", "p50 wait", "p99 wait", "mean wait", "model wait",
         "goodput", "done", "makespan"],
    )
    for p in out:
        table.add(
            p["procs"], f"{p['p50_wait_s']:.2f}", f"{p['p99_wait_s']:.2f}",
            f"{p['mean_wait_s']:.2f}",
            f"{p['model_mean_wait_s']:.2f}" if "model_mean_wait_s" in p else "-",
            f"{p['goodput']:.3f}", f"{p['completed_frac']:.2f}",
            f"{p['makespan_s']:.1f}",
        )
    table.show()
    _check_shape(out)
    entries = [{k: v for k, v in p.items() if k != "violations"} for p in out]
    path = emit("sched_capacity", entries)
    print(f"wrote {path}")
