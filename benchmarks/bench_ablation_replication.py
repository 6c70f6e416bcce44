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
* **restore traffic shape** -- logged and replicated runs must show
  *zero* checkpoint restores: under logging only the killed slot's
  ranks restore, through ``mlog.restore``; under replication
  promotions and background re-arms replace them (the
  ``zero-rollback`` invariant).  Global rollback restores every rank;
* **replay traffic** -- messages and bytes pushed from survivor logs
  into the restarted ranks, the price partial rollback pays instead of
  the world-wide rollback.  Per recovery it must stay below the
  ``replay_crossover_bytes`` break-even of
  :mod:`repro.models.msglog_model`, past which replaying the backlog
  would cost more than the world bootstrap it avoids.

Every run must come back green (all chaos invariants, bit-equal
answers vs the failure-free reference, the no-orphans check), and the
logged plane must recover faster than global rollback on at least one
sweep point.  The analytic crossover
(``replication_vs_cr_crossover``) is checked for the FTHP-MPI shape:
the node-MTBF below which replication wins grows with job size.

Emits a machine-readable ``BENCH_<id>.json`` record (scenario
``replication-ablation``) via ``_harness.emit``.
"""

from _harness import (
    ABLATION_INTERVALS as INTERVALS,
    ABLATION_KILL_COUNTS as KILL_COUNTS,
    ABLATION_SEEDS as SEEDS,
    ablation_entries,
    ablation_sweep,
    count_events,
    emit,
)
from repro.analysis.tables import Table
from repro.chaos.scenario import KillSlot
from repro.cluster.spec import SIERRA
from repro.models.efficiency import replication_vs_cr_crossover
from repro.models.msglog_model import replay_crossover_bytes

MODES = ["global", "logged", "replicated"]
#: the campaign geometry every sweep point runs
RANKS, PPN = 8, 2
#: the replay backlog at which partial rollback stops paying: the H1
#: bootstrap the runtime charges the world minus the one it charges the
#: restarted slot (``fmi_bootstrap_time`` at the job's and at one
#: node's scale), at link bandwidth, shared by the slot's ranks
REPLAY_CROSSOVER_BYTES = replay_crossover_bytes(
    SIERRA.fmi_bootstrap_time(RANKS), SIERRA.fmi_bootstrap_time(PPN),
    SIERRA.network.link_bw, procs_per_node=PPN,
)
#: the logged plane's measured single-kill recovery (the paper's
#: transparency bar); failover must land under it everywhere
LOGGED_RECOVERY_BAR_S = 0.455


def _victims(rng, campaign, kills):
    # *Virtual* slots fixed at build time (distinct, so replicated runs
    # exercise independent failovers rather than the both-copies
    # fallback -- that corner has its own campaign).
    slots = rng.choice(campaign.num_slots, size=kills, replace=False)
    return [KillSlot(int(slot)) for slot in slots]


def _measure(ev):
    """Logged- and replication-plane activity of one run, from its
    trace."""
    replays = [e.args for e in ev if e.name == "mlog.replay.done"]
    return {
        "mlog_restores": count_events(ev, "mlog.restore.begin"),
        "replay_msgs": sum(a.get("msgs", 0) for a in replays),
        "replay_bytes": sum(a.get("nbytes", 0.0) for a in replays),
        "logged_msgs": count_events(ev, "mlog.log"),
        "promotions": count_events(ev, "repl.promote"),
        "fallbacks": count_events(ev, "repl.fallback"),
        "rearms": count_events(ev, "repl.standby.sync"),
    }


def run_sweep():
    return ablation_sweep("replication-ablation", MODES, _victims, _measure)


def test_ablation_replication(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = Table(
        f"Recovery-family ablation, {SEEDS} seeds per point "
        f"({RANKS} ranks, ppn={PPN}, XOR group 4, degree 2 when replicated)",
        ["mode", "interval", "kills", "green", "recovery (s)", "sim (s)",
         "restores ckpt/mlog", "replay msgs/bytes",
         "promote/rearm/fallback"],
    )
    entries = []
    for entry, runs in ablation_entries(
        out, ["mlog_restores", "replay_msgs", "replay_bytes", "logged_msgs",
              "promotions", "fallbacks", "rearms", "recoveries"]
    ):
        entry["worst_recovery_latency_s"] = max(
            r["recovery_latency_s"] for r in runs
        )
        entries.append(entry)
        table.add(
            entry["mode"], entry["interval"], entry["kills"],
            f"{entry['green']}/{SEEDS}",
            round(entry["recovery_latency_s"], 3),
            round(entry["sim_time_s"], 2),
            f"{entry['ckpt_restores']}/{entry['mlog_restores']}",
            f"{entry['replay_msgs']}/{entry['replay_bytes']:.3g}",
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
    print(f"  logged replay breaks even with global rollback at "
          f"{REPLAY_CROSSOVER_BYTES:.3g} B per recovery")
    entries.append({
        "mode": "model",
        "crossover_mtbf_s": {str(n): x for n, x in crossover},
    })
    emit("replication-ablation", entries)

    # -- assertions: green board, restore shapes, and the latency win
    sim_entries = [e for e in entries if e["mode"] != "model"]
    by_key = {(e["mode"], e["interval"], e["kills"]): e for e in sim_entries}
    for entry in sim_entries:
        mode = entry["mode"]
        assert entry["green"] == SEEDS, entry
        # Only global rollback opens a checkpoint restore: logged
        # survivors never do (only the killed slot's ppn ranks restore,
        # through the plane), and failover absorbs every kill with an
        # in-place promotion.
        assert (entry["ckpt_restores"] > 0) == (mode == "global"), entry
        assert (entry["mlog_restores"] > 0) == (mode == "logged"), entry
        assert (entry["promotions"] > 0) == (mode == "replicated"), entry
        if mode == "logged":
            assert entry["logged_msgs"] > 0, entry
            # far below the modelled break-even with global rollback
            assert (entry["replay_bytes"] / max(entry["recoveries"], 1)
                    < REPLAY_CROSSOVER_BYTES), entry
        if mode == "replicated":
            assert entry["fallbacks"] == 0, entry
            # The headline bar, at every sweep point and every seed.
            assert (entry["worst_recovery_latency_s"]
                    < LOGGED_RECOVERY_BAR_S), entry
    # Replay traffic flows on at least one logged point (a kill can
    # land before any cross-slot backlog exists, but not everywhere).
    assert any(e["replay_msgs"] > 0 for e in sim_entries
               if e["mode"] == "logged")
    # Failover also beats both rollback families head-to-head on every
    # (interval, kills) sweep point, and partial rollback beats global
    # rollback on at least one.
    latency = {k: e["recovery_latency_s"] for k, e in by_key.items()}
    points = [(i, k) for i in INTERVALS for k in KILL_COUNTS]
    for interval, kills in points:
        for other in ("global", "logged"):
            assert (latency[("replicated", interval, kills)]
                    < latency[(other, interval, kills)]), (interval, kills, other)
    assert any(latency[("logged", *p)] < latency[("global", *p)]
               for p in points), latency
    xs = [x for _n, x in crossover]
    assert xs == sorted(xs) and xs[0] > 0
