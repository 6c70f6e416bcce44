"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` regenerates one table or figure of the paper's
evaluation (see DESIGN.md's per-experiment index).  Benchmarks print a
paper-vs-measured table and assert the *shape* of the result (who
wins, crossovers, scaling behaviour) -- absolute agreement with the
paper's testbed numbers is not expected and not asserted.

Scale control via ``REPRO_BENCH_SCALE``:

* ``smoke`` -- minutes-of-CI scale: tiny payloads, short sweeps (used
  by the CI redundancy-ablation job);
* ``quick`` -- the default: each bench runs in tens of seconds;
* ``full`` -- the paper's full process counts (up to 1,536).

This module is where the suite's environment is parsed: ``SCALE``,
``REPRO_BENCH_PROCS`` (see :data:`PROC_COUNTS`) and ``REPRO_BENCH_ID``
(see :func:`emit`) -- the library itself never reads the environment.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.cluster import Machine
from repro.cluster.spec import SIERRA, ClusterSpec
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
if SCALE not in ("smoke", "quick", "full"):
    raise ValueError(f"REPRO_BENCH_SCALE must be smoke/quick/full, not {SCALE!r}")
FULL = SCALE == "full"

#: Fig 12/13/14/15 x-axis (processes at 12 per node).  Overridable via
#: ``REPRO_BENCH_PROCS`` (space/comma separated) so the figure benches
#: can be pushed to macro-tier counts, e.g.::
#:
#:     REPRO_BENCH_PROCS="1536 6144 16128" \
#:         python -m pytest benchmarks/bench_fig14_init_time.py ...
#:
#: (counts must stay divisible by :data:`PROCS_PER_NODE`; 16,128 is the
#: closest 12-per-node count to 16k ranks)
PROC_COUNTS: List[int] = {
    "smoke": [48, 96],
    "quick": [48, 96, 192, 384],
    "full": [48, 96, 192, 384, 768, 1536],
}[SCALE]
_PROCS_ENV = os.environ.get("REPRO_BENCH_PROCS", "").replace(",", " ").split()
if _PROCS_ENV:
    PROC_COUNTS = [int(tok) for tok in _PROCS_ENV]
PROCS_PER_NODE = 12

#: Fig 10/11 x-axis (redundancy group sizes, one rank per node)
GROUP_SIZES: List[int] = {
    "smoke": [2, 4, 8],
    "quick": [2, 4, 8, 16, 32],
    "full": [2, 4, 8, 16, 32, 64],
}[SCALE]

#: per-node checkpoint bytes for the engine benches (the paper: 6 GB)
CKPT_BYTES: float = {"smoke": 96e6, "quick": 6e9, "full": 6e9}[SCALE]

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: id for freshly emitted records (``BENCH_local.json`` is git-ignored)
BENCH_ID = os.environ.get("REPRO_BENCH_ID", "local")


def emit(scenario: str, entries: List[Dict[str, Any]]) -> str:
    """Write (or replace) one scenario's record in
    ``results/BENCH_<REPRO_BENCH_ID>.json``; returns the file's path.

    The file holds a list of ``{"bench_id", "scenario", "scale",
    "entries"}`` records, one per ``(scenario, scale)``, so the figure
    benches leave a diffable trail of the numbers they printed.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{BENCH_ID}.json")
    records: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path) as fh:
            records = [
                rec for rec in json.load(fh)
                if (rec["scenario"], rec["scale"]) != (scenario, SCALE)
            ]
    records.append({
        "bench_id": BENCH_ID,
        "scenario": scenario,
        "scale": SCALE,
        "entries": entries,
    })
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def make_machine(num_nodes: int, seed: int = 0, spec: ClusterSpec = SIERRA):
    sim = Simulator()
    machine = Machine(sim, spec.with_nodes(num_nodes), RngRegistry(seed))
    return sim, machine


def nodes_for(nprocs: int, spares: int = 0) -> int:
    return nprocs // PROCS_PER_NODE + spares


def run_engine_group(body, group_size: int, scheme: str = "xor",
                     ckpt_bytes: float = None, seed: int = 0,
                     trace: bool = False):
    """Drive one redundancy group (one member per node) through the
    simulated fabric.

    ``body(api, engine, storage, payload)`` is a generator run on every
    member, handed a fresh :class:`MemoryStorage`, a
    :class:`CheckpointEngine` bound to ``scheme``, and a synthetic
    per-member payload of ``ckpt_bytes`` (default: the scale-dependent
    :data:`CKPT_BYTES`).  Returns ``(sim, results, tracer)`` with
    ``tracer`` None unless ``trace`` is set.
    """
    from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage
    from repro.fmi.payload import Payload
    from repro.fmi.redundancy import make_scheme
    from repro.mpi.runtime import MpiJob

    if ckpt_bytes is None:
        ckpt_bytes = CKPT_BYTES
    sim, machine = make_machine(group_size, seed=seed)
    tracer = None
    if trace:
        from repro.obs import Tracer

        tracer = Tracer(sim)

    def app(api):
        storage = MemoryStorage(api.node)
        engine = CheckpointEngine(api.world, storage, api.memcpy,
                                  scheme=make_scheme(scheme))
        payload = Payload.synthetic(ckpt_bytes, seed=api.rank, rep_bytes=64)
        result = yield from body(api, engine, storage, payload)
        return result

    job = MpiJob(machine, app, nprocs=group_size, procs_per_node=1,
                 charge_init=False)
    results = sim.run(until=job.launch())
    return sim, results, tracer


# -- the recovery-family ablation (bench_ablation_replication) ---------------
#: its sweep: seeds per point, checkpoint intervals, kills per run
ABLATION_SEEDS = {"smoke": 2, "quick": 4, "full": 8}[SCALE]
ABLATION_INTERVALS = [1, 3]
ABLATION_KILL_COUNTS = {"smoke": [1], "quick": [1, 2], "full": [1, 2]}[SCALE]


def count_events(events, name: str) -> int:
    return sum(1 for e in events if e.name == name)


def ablation_sweep(
    scenario: str,
    modes: Sequence[str],
    victims: Callable,
    measure: Callable[[list], Dict[str, Any]],
) -> Dict[Tuple[str, int, int], Dict[str, Any]]:
    """Run every ``(mode, interval, kills)`` point of a recovery-family
    ablation, :data:`ABLATION_SEEDS` seeded kill schedules each.

    ``victims(rng, campaign, kills)`` returns one kill action per kill;
    it draws (if it draws at all) before the kill times do, and nothing
    depends on the mode, so at a given seed every mode faces the same
    schedule -- the controlled variable of the ablation.
    ``measure(trace events)`` adds the bench's own per-run
    measurements to the ones every ablation takes.  Returns ``{point:
    {"runs": [...], "wall_clock_s": ...}}``.
    """
    from repro.chaos import Campaign, run_campaign
    from repro.chaos.campaigns import BASE_CONFIG
    from repro.chaos.scenario import AtTime, Rule

    def rules_for(kills):
        def rules(rng, campaign):
            actions = victims(rng, campaign, kills)
            t0 = float(rng.uniform(1.5, 2.5))
            gap = float(rng.uniform(1.2, 1.8))
            return [
                Rule(AtTime(t0 + k * gap), action)
                for k, action in enumerate(actions)
            ]

        return rules

    def run(campaign, seed):
        result = run_campaign(campaign, seed, keep_trace=True)
        ev = result.tracer.events
        spans = [e.dur for e in ev if e.name == "recovery" and e.dur]
        return {
            "ok": result.ok,
            "recovery_latency_s": max(spans) if spans else 0.0,
            "recoveries": result.recoveries,
            "sim_time_s": result.sim_time,
            "ckpt_restores": count_events(ev, "ckpt.restore.begin"),
            "trace_events": result.trace_events,
            **measure(ev),
        }

    out = {}
    for mode in modes:
        for interval in ABLATION_INTERVALS:
            for kills in ABLATION_KILL_COUNTS:
                name = f"{scenario}-{mode}-i{interval}-k{kills}"
                config = replace(BASE_CONFIG, interval=interval,
                                 recovery=mode)
                campaign = Campaign(name, name, rules_for(kills),
                                    pool_extra=3, config=config)
                t0 = time.monotonic()
                runs = [run(campaign, seed) for seed in range(ABLATION_SEEDS)]
                out[(mode, interval, kills)] = {
                    "runs": runs,
                    "wall_clock_s": time.monotonic() - t0,
                }
    return out


def ablation_entries(
    out: Dict[Tuple[str, int, int], Dict[str, Any]], summed: Sequence[str]
) -> Iterator[Tuple[Dict[str, Any], List[Dict[str, Any]]]]:
    """``(entry, runs)`` per sweep point in sorted order: the
    :func:`emit`-ready fields every ablation reports, plus each per-run
    measurement named in ``summed`` totalled over the seeds.  Means are
    over the runs that saw a recovery (all runs when none did)."""
    for (mode, interval, kills), point in sorted(out.items()):
        runs = point["runs"]
        hit = [r for r in runs if r["recoveries"] > 0] or runs
        entry = {
            "procs": 8,
            "mode": mode,
            "interval": interval,
            "kills": kills,
            "seeds": ABLATION_SEEDS,
            "green": sum(1 for r in runs if r["ok"]),
            "recovery_latency_s":
                sum(r["recovery_latency_s"] for r in hit) / len(hit),
            "sim_time_s": sum(r["sim_time_s"] for r in hit) / len(hit),
            "wall_clock_s": point["wall_clock_s"],
            "simulated_s": sum(r["sim_time_s"] for r in runs),
            "events_per_sec": (
                sum(r["trace_events"] for r in runs) / point["wall_clock_s"]
            ),
        }
        for key in ("ckpt_restores", *summed):
            entry[key] = sum(r[key] for r in runs)
        yield entry, runs
