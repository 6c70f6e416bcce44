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
from repro.chaos.scenario import KillRandomSlot

MODES = ["global", "logged"]


def _victims(rng, campaign, kills):
    # whichever slot is live when the kill fires (engine RNG stream)
    return [KillRandomSlot()] * kills


def _measure(ev):
    """Logged-plane traffic of one run, from its trace."""
    replays = [e.args for e in ev if e.name == "mlog.replay.done"]
    return {
        "mlog_restores": count_events(ev, "mlog.restore.begin"),
        "replay_msgs": sum(a.get("msgs", 0) for a in replays),
        "replay_bytes": sum(a.get("nbytes", 0.0) for a in replays),
        "logged_msgs": count_events(ev, "mlog.log"),
    }


def run_sweep():
    return ablation_sweep("recovery-ablation", MODES, _victims, _measure)


def test_ablation_recovery_planes(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = Table(
        f"Recovery-plane ablation, {SEEDS} seeds per point "
        f"(8 ranks, ppn=2, XOR group 4)",
        ["mode", "interval", "kills", "green", "recovery (s)", "sim (s)",
         "restores ckpt/mlog", "replay msgs/bytes"],
    )
    entries = []
    for entry, _runs in ablation_entries(
        out, ["mlog_restores", "replay_msgs", "replay_bytes", "logged_msgs"]
    ):
        entries.append(entry)
        table.add(
            entry["mode"], entry["interval"], entry["kills"],
            f"{entry['green']}/{SEEDS}",
            round(entry["recovery_latency_s"], 3),
            round(entry["sim_time_s"], 2),
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
