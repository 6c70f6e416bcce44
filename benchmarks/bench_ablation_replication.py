"""Ablation -- recovery families: rollback (global), partial rollback
(logged) and failover (replicated).

The same seeded kill schedules run three times, once per
``FmiConfig(recovery=...)`` family.  Kills target virtual slots drawn
at rule-build time, so all three modes see the *same* victims at the
same times (under replication that slot's lead copy dies and the
replica is promoted in place).  Swept over checkpoint interval and
kill count, measuring:

* **recovery latency** -- the ``recovery`` trace span (failure to every
  rank back in H3).  Failover moves no state, so the replicated plane
  must beat the logged plane's measured 0.455 s at *every* sweep point
  -- the FTHP-MPI trade: 2x the hardware for near-zero recovery time;
* **restore traffic shape** -- replicated runs must show *zero*
  checkpoint restores (the ``zero-rollback`` invariant); promotions and
  background re-arms replace them;
* **mirror traffic** -- the dual-send bandwidth price replication pays
  while nothing is failing.

Every run must come back green (all chaos invariants, bit-equal
answers vs the failure-free reference).  The analytic crossover
(``replication_vs_cr_crossover``) is checked for the FTHP-MPI shape:
the node-MTBF below which replication wins grows with job size.

Emits a machine-readable ``BENCH_<id>.json`` record (scenario
``replication-ablation``) via ``_harness.emit``.
"""

import time

import numpy as np

from _harness import SCALE, emit
from repro.analysis.tables import Table
from repro.chaos import Campaign, run_campaign
from repro.chaos.scenario import AtTime, KillSlot, Rule
from repro.models.efficiency import replication_vs_cr_crossover

SEEDS = {"smoke": 2, "quick": 4, "full": 8}[SCALE]
INTERVALS = [1, 3]
KILL_COUNTS = {"smoke": [1], "quick": [1, 2], "full": [1, 2]}[SCALE]
MODES = ["global", "logged", "replicated"]
#: the logged plane's measured single-kill recovery (the paper's
#: transparency bar); failover must land under it everywhere
LOGGED_RECOVERY_BAR_S = 0.455


def _kill_rules(kills):
    def rules(rng: np.random.Generator, c: Campaign):
        # Identical draws for every mode at a given seed: victims are
        # *virtual* slots fixed at build time (distinct, so replicated
        # runs exercise independent failovers rather than the
        # both-copies fallback -- that corner has its own campaign).
        slots = rng.choice(c.num_slots, size=kills, replace=False)
        t0 = float(rng.uniform(1.5, 2.5))
        gap = float(rng.uniform(1.2, 1.8))
        return [
            Rule(AtTime(t0 + k * gap), KillSlot(int(slot)))
            for k, slot in enumerate(slots)
        ]

    return rules


def _campaign(mode, interval, kills):
    name = f"replication-ablation-{mode}-i{interval}-k{kills}"
    extra = {"interval": interval}
    if mode != "global":
        extra["recovery"] = mode
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
        "promotions": sum(1 for e in ev if e.name == "repl.promote"),
        "fallbacks": sum(1 for e in ev if e.name == "repl.fallback"),
        "rearms": sum(1 for e in ev if e.name == "repl.standby.sync"),
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


def test_ablation_replication(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = Table(
        f"Recovery-family ablation, {SEEDS} seeds per point "
        f"(8 ranks, ppn=2, XOR group 4, degree 2 when replicated)",
        ["mode", "interval", "kills", "green", "recovery (s)", "sim (s)",
         "ckpt restores", "promote/rearm/fallback"],
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
            "worst_recovery_latency_s": max(
                r["recovery_latency_s"] for r in runs
            ),
            "sim_time_s": _mean(runs, "sim_time_s"),
            "ckpt_restores": sum(r["ckpt_restores"] for r in runs),
            "promotions": sum(r["promotions"] for r in runs),
            "fallbacks": sum(r["fallbacks"] for r in runs),
            "rearms": sum(r["rearms"] for r in runs),
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
            entry["ckpt_restores"],
            f"{entry['promotions']}/{entry['rearms']}/{entry['fallbacks']}",
        )
    table.show()

    # The FTHP-MPI crossover shape: bigger jobs tolerate less per-node
    # unreliability before replication's 1/2-hardware bound wins.
    crossover = [
        (n, replication_vs_cr_crossover(n)) for n in (50, 1000, 100_000)
    ]
    for n, x in crossover:
        print(f"  replication beats C/R below node-MTBF "
              f"{x:,.0f} s at n={n}")
    entries.append({
        "mode": "model",
        "crossover_mtbf_s": {str(n): x for n, x in crossover},
    })
    emit("replication-ablation", entries)

    # -- assertions: green board, restore shapes, and the latency win
    sim_entries = [e for e in entries if e["mode"] != "model"]
    by_key = {(e["mode"], e["interval"], e["kills"]): e for e in sim_entries}
    for entry in sim_entries:
        assert entry["green"] == SEEDS, entry
        if entry["mode"] == "replicated":
            # Failover, not rollback: no checkpoint restore anywhere,
            # every kill absorbed by an in-place promotion.
            assert entry["ckpt_restores"] == 0, entry
            assert entry["promotions"] > 0, entry
            assert entry["fallbacks"] == 0, entry
            # The headline bar, at every sweep point and every seed.
            assert (entry["worst_recovery_latency_s"]
                    < LOGGED_RECOVERY_BAR_S), entry
        else:
            assert entry["promotions"] == 0
            assert entry["ckpt_restores"] > 0 or entry["mode"] == "logged"
    # Failover also beats both rollback families head-to-head on every
    # (interval, kills) sweep point.
    for interval in INTERVALS:
        for kills in KILL_COUNTS:
            repl = by_key[("replicated", interval, kills)]
            for other in ("global", "logged"):
                assert (repl["recovery_latency_s"]
                        < by_key[(other, interval, kills)]
                        ["recovery_latency_s"]), (interval, kills, other)
    xs = [x for _n, x in crossover]
    assert xs == sorted(xs) and xs[0] > 0
