"""The service-mode soak driver.

Sweeps seeds over a Poisson job stream on one shared cluster, reports
per-tenant and aggregate statistics, and checks the service-mode
invariants after every run::

    python -m repro.sched --seeds 5 --jobs 16 --rate 0.5 --mtbf 200
    python -m repro.sched --seed-list 3,7 --mix global,logged --verbose

Checked invariants: every tenant's answer is bitwise identical to its
solo failure-free run, no node is double-booked across tenants, and
every node comes back to the idle pool when the stream drains
(conservation).  Exit status is non-zero on any violation, so the CI
sched-soak job fails loudly.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster import Machine
from repro.cluster.failures import FailureInjector, FailureType
from repro.cluster.spec import SIERRA
from repro.fmi.config import FmiConfig
from repro.sched.scheduler import SchedSummary, StreamScheduler
from repro.sched.spec import JobSpec, poisson_arrivals
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

MAX_EVENTS = 5_000_000

#: the canned per-family tenant shapes the soak cycles through
FAMILY_SPECS = {
    "failstop": JobSpec(name="fs", ranks=4, ppn=2, iterations=8, work_s=0.2),
    "global": JobSpec(name="glb", ranks=4, ppn=2, iterations=8, work_s=0.2,
                      config=FmiConfig(interval=2, spare_nodes=1)),
    "logged": JobSpec(name="log", ranks=4, ppn=2, iterations=8, work_s=0.2,
                      config=FmiConfig(interval=2, spare_nodes=1,
                                       recovery="logged")),
    "replicated": JobSpec(name="rep", ranks=4, ppn=2, iterations=8,
                          work_s=0.2,
                          config=FmiConfig(interval=2, spare_nodes=1,
                                           recovery="replicated")),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.sched",
        description="multi-tenant job-stream soak for the shared cluster",
    )
    parser.add_argument("--seeds", type=int, default=5,
                        help="sweep seeds 0..N-1 (default: 5)")
    parser.add_argument("--seed-list", default=None,
                        help="explicit comma-separated seeds (overrides --seeds)")
    parser.add_argument("--nodes", type=int, default=16,
                        help="cluster size (default: 16)")
    parser.add_argument("--jobs", type=int, default=12,
                        help="jobs per stream (default: 12)")
    parser.add_argument("--rate", type=float, default=0.5,
                        help="Poisson arrival rate, jobs/s (default: 0.5)")
    parser.add_argument(
        "--mix", default="global,logged,replicated,failstop",
        help="comma-separated recovery families to cycle through",
    )
    parser.add_argument("--mtbf", type=float, default=0.0,
                        help="machine MTBF in seconds; 0 = no failures")
    parser.add_argument("--spare-pool", type=int, default=2,
                        help="shared warm-spare pool size (default: 2)")
    parser.add_argument("--no-backfill", action="store_true",
                        help="plain FCFS (disable EASY backfill)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the per-tenant table for every seed")
    return parser.parse_args(argv)


def check_invariants(machine, scheduler, summary: SchedSummary) -> List[str]:
    """The service-mode oracle; returns violation strings."""
    violations: List[str] = []
    # 1. answers: bitwise-equal to the solo failure-free recurrence
    for rec in summary.records:
        if rec.state != "done":
            continue
        want = rec.spec.expected_results()
        got = rec.result
        for r, (g, w) in enumerate(zip(got, want)):
            if not (isinstance(g, np.ndarray) and np.array_equal(g, w)):
                violations.append(
                    f"{rec.job_id}: rank {r} answer diverged from solo run"
                )
                break
    # 2. no double-booking across tenants (per-attempt occupancy)
    busy: dict = {}
    for rec in summary.records:
        for start, end, nodes in rec.attempts:
            for nid in nodes:
                busy.setdefault(nid, []).append((start, end, rec.job_id))
    for nid, spans in busy.items():
        spans.sort()
        for (s0, e0, j0), (s1, e1, j1) in zip(spans, spans[1:]):
            if j0 != j1 and s1 < e0:
                violations.append(
                    f"node {nid} double-booked: {j0} [{s0:.3f},{e0:.3f}) "
                    f"overlaps {j1} [{s1:.3f},{e1:.3f})"
                )
    # 3. conservation: once drained, every live node is idle again
    scheduler.shutdown()
    live = len(machine.live_nodes)
    idle = machine.rm.idle_count
    if idle != live:
        violations.append(
            f"conservation: {live} live nodes but only {idle} idle after drain"
        )
    return violations


def run_soak(seed: int, args) -> Tuple[SchedSummary, List[str], float]:
    families = [f.strip() for f in args.mix.split(",") if f.strip()]
    for f in families:
        if f not in FAMILY_SPECS:
            raise SystemExit(
                f"unknown family {f!r} (choose from {sorted(FAMILY_SPECS)})"
            )
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(args.nodes), RngRegistry(seed))
    scheduler = StreamScheduler(
        machine,
        backfill=not args.no_backfill,
        spare_pool=args.spare_pool,
    )
    specs = [FAMILY_SPECS[f] for f in families]
    arrivals = poisson_arrivals(
        specs, args.rate, args.jobs, machine.rng.stream("sched.arrivals")
    )
    scheduler.submit_many(arrivals)
    if args.mtbf > 0:
        # draws as Rule(Poisson(mtbf), KillRandomNode()); see cluster.failures
        FailureInjector(
            sim, machine.rng.stream("sched.mtbf"),
            [FailureType("mtbf", 1, 1.0 / args.mtbf, 1)], args.nodes,
            on_failure=lambda rec: machine.fail_nodes(rec.nodes, cause="mtbf"),
        ).start()
    drained = scheduler.drain()
    sim.run(until=drained, max_events=MAX_EVENTS)
    violations: List[str] = []
    if not drained.triggered:
        violations.append(
            f"stream did not drain within {MAX_EVENTS} events "
            f"(t={sim.now:.1f}s)"
        )
        summary = scheduler.summary()
    else:
        summary = drained.value
        violations.extend(check_invariants(machine, scheduler, summary))
    return summary, violations, sim.now


def _tenant_table(summary: SchedSummary) -> str:
    lines = [
        f"    {'tenant':<10} {'family':<10} {'state':<9} "
        f"{'wait_s':>7} {'svc_s':>7} {'rst':>3}"
    ]
    for rec in summary.records:
        wait = f"{rec.wait_s:.2f}" if rec.wait_s is not None else "-"
        svc = f"{rec.service_s:.2f}" if rec.service_s is not None else "-"
        config = rec.spec.config
        family = config.recovery if config is not None else "failstop"
        lines.append(
            f"    {rec.job_id:<10} {family:<10} {rec.state:<9} "
            f"{wait:>7} {svc:>7} {rec.restarts:>3}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.seed_list:
        seeds = [int(s) for s in args.seed_list.split(",") if s.strip()]
    else:
        seeds = list(range(args.seeds))
    failures = 0
    t0 = time.time()
    for seed in seeds:
        summary, violations, sim_t = run_soak(seed, args)
        status = "ok " if not violations else "FAIL"
        print(
            f"[{status}] seed={seed} jobs={summary.jobs} "
            f"done={summary.completed} failed={summary.failed} "
            f"restarts={summary.restarts} "
            f"p50_wait={summary.p50_wait:.2f}s p99_wait={summary.p99_wait:.2f}s "
            f"goodput={summary.goodput:.3f} makespan={summary.makespan:.1f}s "
            f"sim_t={sim_t:.1f}s"
        )
        if args.verbose or violations:
            print(_tenant_table(summary))
        for v in violations:
            print(f"       VIOLATION {v}")
        failures += bool(violations)
    wall = time.time() - t0
    print(
        f"soak: {len(seeds) - failures}/{len(seeds)} seeds clean "
        f"in {wall:.1f}s wall"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
