"""Chaos soak -- campaign survival matrix.

Sweeps every canned campaign (``repro.chaos.campaigns``) over a seed
set and reports survival rate, recovery counts, and injected-failure
counts per campaign.  Every run must come back with all invariants
green: the runtime survives the schedule AND the surviving run's answer
is bit-equal to the failure-free reference (Section V's transparent
recovery claim, adversarially scheduled).

Seed count scales with ``REPRO_BENCH_SCALE`` (smoke/quick/full).
"""

from _harness import SCALE
from repro.analysis.tables import Table
from repro.chaos import CAMPAIGNS, run_campaign
from repro.chaos.invariants import takes_down

NUM_SEEDS = {"smoke": 3, "quick": 10, "full": 25}[SCALE]


def run_all():
    out = {}
    for name in CAMPAIGNS:
        results = [run_campaign(name, seed) for seed in range(NUM_SEEDS)]
        out[name] = results
    return out


def test_chaos_soak(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        f"Chaos soak: campaign survival over {NUM_SEEDS} seeds "
        f"(8 ranks, ppn=2, XOR group 4)",
        ["Campaign", "green", "recoveries (min/mean/max)", "kills (mean)"],
    )
    for name, results in out.items():
        recoveries = [r.recoveries for r in results]
        kills = sum(len(r.injected) for r in results) / len(results)
        table.add(
            name,
            f"{sum(1 for r in results if r.ok)}/{len(results)}",
            f"{min(recoveries)}/"
            f"{sum(recoveries) / len(recoveries):.1f}/{max(recoveries)}",
            round(kills, 1),
        )
    table.show()
    failing = [
        (name, r.seed, str(v))
        for name, results in out.items()
        for r in results if not r.ok
        for v in r.violations[:1]
    ]
    assert failing == [], f"invariant violations: {failing}"
    # Every campaign actually injected failures.  One that took a rank or
    # a node down exercised recovery (the double-kill campaign may
    # coalesce into zero epochs when both kills land pre-launch work,
    # but across the sweep recoveries must happen); one that took
    # nothing down -- a partition, lossy links, a limping node -- must
    # never open a recovery epoch.
    for name, results in out.items():
        assert any(r.injected for r in results), name
        if any(takes_down(action) for r in results for _t, action in r.injected):
            assert any(r.recoveries > 0 for r in results), name
        else:
            assert all(r.recoveries == 0 for r in results), name
