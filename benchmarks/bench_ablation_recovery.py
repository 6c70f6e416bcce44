"""Ablation -- recovery planes: global rollback vs logged partial rollback.

The same seeded kill schedules run twice, once under
``FmiConfig(recovery="global")`` (every rank restores the last
checkpoint) and once under ``recovery="logged"`` (sender-based message
logging: only the killed slot's ranks restore, survivors replay their
logs).  Swept over checkpoint interval and kill count, measuring:

* **recovery latency** -- the ``recovery`` trace span (failure to every
  rank back in H3), the paper's transparency metric;
* **restore traffic shape** -- survivors must perform *zero*
  checkpoint-restore events under the logged plane (only the ``ppn``
  restarted ranks run ``mlog.restore``), while global rollback restores
  all ranks;
* **replay traffic** -- messages and bytes pushed from survivor logs
  into the restarted ranks, the price partial rollback pays instead of
  the world-wide rollback.

Every run must come back green (all chaos invariants, bit-equal
answers vs the failure-free reference -- including the no-orphans
check), and the sweep must contain at least one point where the logged
plane recovers faster than global rollback.

Emits a machine-readable ``BENCH_<id>.json`` record (scenario
``recovery-ablation``) via ``_harness.emit``.
"""

import time

import numpy as np

from _harness import SCALE, emit
from repro.analysis.tables import Table
from repro.chaos import Campaign, run_campaign
from repro.chaos.scenario import AtTime, KillRandomSlot, Rule

SEEDS = {"smoke": 2, "quick": 4, "full": 8}[SCALE]
INTERVALS = [1, 3]
KILL_COUNTS = {"smoke": [1], "quick": [1, 2], "full": [1, 2]}[SCALE]
MODES = ["global", "logged"]


def _kill_rules(kills):
    def rules(rng: np.random.Generator, c: Campaign):
        # Identical draws for both modes at a given seed: the kill
        # schedule is the controlled variable of the ablation.
        t0 = float(rng.uniform(1.5, 2.5))
        gap = float(rng.uniform(1.2, 1.8))
        return [
            Rule(AtTime(t0 + k * gap), KillRandomSlot())
            for k in range(kills)
        ]

    return rules


def _campaign(mode, interval, kills):
    name = f"recovery-ablation-{mode}-i{interval}-k{kills}"
    extra = {"interval": interval}
    if mode == "logged":
        extra["recovery"] = "logged"
    return Campaign(name, name, _kill_rules(kills), pool_extra=3,
                    config_extra=extra)


def _measure(result):
    """Trace-derived per-run measurements."""
    ev = result.tracer.events
    spans = [e.dur for e in ev if e.name == "recovery" and e.dur]
    return {
        "ok": result.ok,
        "recovery_latency_s": max(spans) if spans else 0.0,
        "recoveries": result.recoveries,
        "sim_time_s": result.sim_time,
        "ckpt_restores": sum(1 for e in ev if e.name == "ckpt.restore.begin"),
        "mlog_restores": sum(1 for e in ev if e.name == "mlog.restore.begin"),
        "replay_msgs": sum(
            e.args.get("msgs", 0) for e in ev if e.name == "mlog.replay.done"
        ),
        "replay_bytes": sum(
            e.args.get("nbytes", 0.0) for e in ev
            if e.name == "mlog.replay.done"
        ),
        "logged_msgs": sum(1 for e in ev if e.name == "mlog.log"),
        "trace_events": result.trace_events,
    }


def run_sweep():
    out = {}
    for mode in MODES:
        for interval in INTERVALS:
            for kills in KILL_COUNTS:
                campaign = _campaign(mode, interval, kills)
                t0 = time.monotonic()
                runs = [
                    _measure(run_campaign(campaign, seed, keep_trace=True))
                    for seed in range(SEEDS)
                ]
                out[(mode, interval, kills)] = {
                    "runs": runs,
                    "wall_clock_s": time.monotonic() - t0,
                }
    return out


def _mean(runs, key):
    picked = [r for r in runs if r["recoveries"] > 0] or runs
    return sum(r[key] for r in picked) / len(picked)


def test_ablation_recovery_planes(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = Table(
        f"Recovery-plane ablation, {SEEDS} seeds per point "
        f"(8 ranks, ppn=2, XOR group 4)",
        ["mode", "interval", "kills", "green", "recovery (s)", "sim (s)",
         "restores ckpt/mlog", "replay msgs/bytes"],
    )
    entries = []
    for (mode, interval, kills), point in sorted(out.items()):
        runs = point["runs"]
        latency = _mean(runs, "recovery_latency_s")
        entry = {
            "procs": 8,
            "mode": mode,
            "interval": interval,
            "kills": kills,
            "seeds": SEEDS,
            "green": sum(1 for r in runs if r["ok"]),
            "recovery_latency_s": latency,
            "sim_time_s": _mean(runs, "sim_time_s"),
            "ckpt_restores": sum(r["ckpt_restores"] for r in runs),
            "mlog_restores": sum(r["mlog_restores"] for r in runs),
            "replay_msgs": sum(r["replay_msgs"] for r in runs),
            "replay_bytes": sum(r["replay_bytes"] for r in runs),
            "logged_msgs": sum(r["logged_msgs"] for r in runs),
            "wall_clock_s": point["wall_clock_s"],
            "simulated_s": sum(r["sim_time_s"] for r in runs),
            "events_per_sec": (
                sum(r["trace_events"] for r in runs) / point["wall_clock_s"]
            ),
        }
        entries.append(entry)
        table.add(
            mode, interval, kills, f"{entry['green']}/{SEEDS}",
            round(latency, 3), round(entry["sim_time_s"], 2),
            f"{entry['ckpt_restores']}/{entry['mlog_restores']}",
            f"{entry['replay_msgs']}/{entry['replay_bytes']:.3g}",
        )
    table.show()
    emit("recovery-ablation", entries)

    # -- assertions: green board, restore shapes, and the latency win
    by_key = {(e["mode"], e["interval"], e["kills"]): e for e in entries}
    for entry in entries:
        assert entry["green"] == SEEDS, entry
    for (mode, interval, kills), entry in by_key.items():
        if mode == "logged":
            # Survivors never touch checkpoint restore: only the killed
            # slot's ppn ranks restore, through the plane.
            assert entry["ckpt_restores"] == 0, entry
            assert entry["mlog_restores"] > 0
            assert entry["logged_msgs"] > 0
        else:
            assert entry["mlog_restores"] == 0
            assert entry["ckpt_restores"] > 0
    # Replay traffic flows on at least one logged point (a kill can
    # land before any cross-slot backlog exists, but not everywhere).
    assert any(
        e["replay_msgs"] > 0 for e in entries if e["mode"] == "logged"
    )
    # The headline: partial rollback recovers faster than global
    # rollback on at least one (interval, kills) sweep point.
    wins = [
        (interval, kills)
        for interval in INTERVALS
        for kills in KILL_COUNTS
        if by_key[("logged", interval, kills)]["recovery_latency_s"]
        < by_key[("global", interval, kills)]["recovery_latency_s"]
    ]
    assert wins, {
        k: (v["mode"], v["recovery_latency_s"]) for k, v in by_key.items()
    }
