"""Gray-failure chaos: survival matrix + severity sweeps.

Three tables:

1. **Survival matrix** -- every gray campaign (partitions, omission,
   limping; see ``repro.chaos.campaigns``) over a seed set.  All runs
   must come back green: no split-brain recovery, every suspicion
   resolved, answers bit-equal to the failure-free reference.
2. **Omission-rate sweep** -- per-link drop probability ramped up with
   no process ever dying; the job must absorb the loss with
   retransmissions only (zero recoveries) at a measurable slowdown.
3. **Limp-severity sweep** -- one node's NIC degraded by increasing
   factors; again zero recoveries, and the run slows as the limper
   drags every halo exchange.

Seed count scales with ``REPRO_BENCH_SCALE`` (smoke/quick/full).
"""

from _harness import SCALE
from repro.analysis.tables import Table
from repro.chaos import GRAY_CAMPAIGNS, Campaign, run_campaign
from repro.chaos.scenario import AtTime, LimpSlot, Omission, Rule

NUM_SEEDS = {"smoke": 3, "quick": 10, "full": 25}[SCALE]
SWEEP_SEEDS = {"smoke": 2, "quick": 3, "full": 5}[SCALE]

DROP_RATES = [0.01, 0.05, 0.10]
LIMP_FACTORS = [2.0, 8.0, 32.0]


def _sweep_campaign(name, rules_fn, **geometry):
    """An ad-hoc campaign."""
    return Campaign(name, name, rules_fn, **geometry)


#: the limp sweep moves real bytes -- a compute-bound job would hide a
#: degraded NIC entirely (that near-invisibility is itself the gray
#: failure's point, but a slowdown curve needs communication to slow)
_LIMP_GEOMETRY = dict(work_s=0.02, halo_bytes=4e6)


def _baseline():
    return _sweep_campaign("gray-baseline", lambda rng, c: [])


def _limp_baseline():
    return _sweep_campaign(
        "gray-baseline-halo", lambda rng, c: [], **_LIMP_GEOMETRY
    )


def _omission_campaign(p):
    def rules(rng, c, p=p):
        return [Rule(AtTime(0.0), Omission(drop_p=p, dup_p=p / 2, delay_p=p))]

    return _sweep_campaign(f"omission-sweep-{p:g}", rules)


def _limp_campaign(bw):
    def rules(rng, c, bw=bw):
        return [Rule(AtTime(0.5), LimpSlot(0, bw_factor=bw, latency_factor=bw / 2))]

    return _sweep_campaign(f"limp-sweep-{bw:g}", rules, **_LIMP_GEOMETRY)


def run_all():
    out = {
        "matrix": {
            name: [run_campaign(name, seed) for seed in range(NUM_SEEDS)]
            for name in GRAY_CAMPAIGNS
        },
        "baseline": [
            run_campaign(_baseline(), seed) for seed in range(SWEEP_SEEDS)
        ],
        "limp_baseline": [
            run_campaign(_limp_baseline(), seed) for seed in range(SWEEP_SEEDS)
        ],
        "omission": {
            p: [run_campaign(_omission_campaign(p), seed)
                for seed in range(SWEEP_SEEDS)]
            for p in DROP_RATES
        },
        "limp": {
            bw: [run_campaign(_limp_campaign(bw), seed)
                 for seed in range(SWEEP_SEEDS)]
            for bw in LIMP_FACTORS
        },
    }
    return out


def test_chaos_gray(benchmark):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)

    matrix = Table(
        f"Gray-failure survival over {NUM_SEEDS} seeds "
        f"(8 ranks, ppn=2, XOR group 4)",
        ["Campaign", "green", "recoveries", "suspicions cleared (false)",
         "repaired", "stall/retry", "odrop/odup"],
    )
    for name, results in out["matrix"].items():
        recov = [r.recoveries for r in results]
        matrix.add(
            name,
            f"{sum(1 for r in results if r.ok)}/{len(results)}",
            f"{min(recov)}/{max(recov)}",
            sum(r.false_suspicions for r in results),
            sum(r.repaired_edges for r in results),
            f"{sum(r.partition_stalls for r in results)}"
            f"/{sum(r.partition_retries for r in results)}",
            f"{sum(r.omission_drops for r in results)}"
            f"/{sum(r.omission_dups for r in results)}",
        )
    matrix.show()

    base_t = sum(r.sim_time for r in out["baseline"]) / len(out["baseline"])

    omission = Table(
        f"Omission-rate sweep, {SWEEP_SEEDS} seeds "
        f"(failure-free baseline {base_t:.2f} s)",
        ["drop_p", "green", "recoveries", "drops", "dups suppressed",
         "sim time", "slowdown"],
    )
    for p, results in out["omission"].items():
        t = sum(r.sim_time for r in results) / len(results)
        omission.add(
            f"{p:g}",
            f"{sum(1 for r in results if r.ok)}/{len(results)}",
            max(r.recoveries for r in results),
            sum(r.omission_drops for r in results),
            sum(r.dup_dropped for r in results),
            f"{t:.2f} s",
            f"{t / base_t:.3f}x",
        )
    omission.show()

    limp_base_t = sum(r.sim_time for r in out["limp_baseline"]) / len(
        out["limp_baseline"]
    )
    limp = Table(
        f"Limp-severity sweep, {SWEEP_SEEDS} seeds, halo-heavy job "
        f"(bandwidth / factor, latency * factor/2; "
        f"baseline {limp_base_t:.2f} s)",
        ["bw_factor", "green", "recoveries", "false suspicions",
         "sim time", "slowdown"],
    )
    for bw, results in out["limp"].items():
        t = sum(r.sim_time for r in results) / len(results)
        limp.add(
            f"{bw:g}",
            f"{sum(1 for r in results if r.ok)}/{len(results)}",
            max(r.recoveries for r in results),
            sum(r.false_suspicions for r in results),
            f"{t:.2f} s",
            f"{t / limp_base_t:.3f}x",
        )
    limp.show()

    # -- assertions: everything green, and the physics points the right way
    failing = [
        (r.campaign, r.seed, str(v))
        for results in (
            list(out["matrix"].values())
            + [out["baseline"], out["limp_baseline"]]
            + list(out["omission"].values())
            + list(out["limp"].values())
        )
        for r in results if not r.ok
        for v in r.violations[:1]
    ]
    assert failing == [], f"invariant violations: {failing}"

    # Gray failures alone never drive recovery...
    for sweep in (out["omission"], out["limp"]):
        for results in sweep.values():
            assert all(r.recoveries == 0 for r in results)
    # ...but they are not free: the heaviest omission rate and the
    # heaviest limp must measurably stretch the run.
    worst_omission = out["omission"][DROP_RATES[-1]]
    assert sum(r.sim_time for r in worst_omission) / len(worst_omission) > base_t
    assert all(r.omission_drops > 0 for r in worst_omission)
    # A severe limp on a communication-heavy job must cost > 20%.
    worst_limp = out["limp"][LIMP_FACTORS[-1]]
    assert (
        sum(r.sim_time for r in worst_limp) / len(worst_limp)
        > 1.2 * limp_base_t
    )
    # The campaigns exercised what they claim to exercise.
    for name, results in out["matrix"].items():
        assert any(
            r.partition_stalls or r.partition_retries or r.omission_drops
            or r.false_suspicions or r.recoveries
            for r in results
        ), name
