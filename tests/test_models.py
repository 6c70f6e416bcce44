"""Analytic models: C/R time, Vaidya, availability, multilevel efficiency."""

import math

import pytest

from repro.cluster.spec import COASTAL_L1_RATE, COASTAL_L2_RATE
from repro.models.availability import prob_continuous_run, run_probability_curve
from repro.models.cr_model import checkpoint_time, per_node_throughput, restart_time
from repro.models.efficiency import multilevel_efficiency, single_level_efficiency
from repro.models.vaidya import (
    expected_runtime_factor,
    optimal_interval,
    young_interval,
)

MEM, NET = 32e9, 3.24e9


# ------------------------------------------------------------------ cr_model
def test_checkpoint_time_formula():
    s, n = 6e9, 16
    expected = s / MEM + (s + s / (n - 1)) / NET + s / MEM
    assert checkpoint_time(s, n, MEM, NET) == pytest.approx(expected)


def test_restart_adds_gather():
    s, n = 6e9, 16
    assert restart_time(s, n, MEM, NET) == pytest.approx(
        checkpoint_time(s, n, MEM, NET) + s / NET
    )


def test_cr_time_independent_of_total_processes():
    # The model has no process-count parameter at all: constant scaling.
    t = checkpoint_time(1e9, 8, MEM, NET)
    assert t == checkpoint_time(1e9, 8, MEM, NET)


def test_procs_per_node_shares_bandwidth():
    t1 = checkpoint_time(0.5e9, 16, MEM, NET, procs_per_node=1)
    t12 = checkpoint_time(0.5e9, 16, MEM, NET, procs_per_node=12)
    assert t12 == pytest.approx(12 * t1)


def test_per_node_throughput_matches_paper_ballpark():
    # 6 GB/node, group 16: ~2.4 GB/s checkpoint, ~1.3 GB/s restart.
    ckpt = per_node_throughput(6e9, 16, MEM, NET)
    rst = per_node_throughput(6e9, 16, MEM, NET, restart=True)
    assert ckpt == pytest.approx(2.4e9, rel=0.15)
    assert rst == pytest.approx(1.3e9, rel=0.25)
    assert rst < ckpt


def test_group_size_saturation():
    times = {n: checkpoint_time(6e9, n, MEM, NET) for n in (2, 4, 8, 16, 32, 64)}
    assert times[2] > times[16]
    assert times[16] - times[64] < 0.10 * times[16]


def test_cr_model_validation():
    with pytest.raises(ValueError):
        checkpoint_time(1e9, 1, MEM, NET)
    with pytest.raises(ValueError):
        checkpoint_time(-1, 4, MEM, NET)


# -------------------------------------------------------------------- vaidya
def test_factor_penalises_extremes():
    c, m = 10.0, 3600.0
    best = optimal_interval(c, m)
    f_best = expected_runtime_factor(best, c, m)
    assert expected_runtime_factor(best / 20, c, m) > f_best
    assert expected_runtime_factor(best * 20, c, m) > f_best


def test_optimal_close_to_young_when_cheap():
    c, m = 1.0, 36000.0  # C << MTBF
    assert optimal_interval(c, m) == pytest.approx(young_interval(c, m), rel=0.10)


def test_optimal_interval_monotone_in_cost():
    m = 3600.0
    assert optimal_interval(1.0, m) < optimal_interval(10.0, m) < optimal_interval(100.0, m)


def test_optimal_interval_monotone_in_mtbf():
    c = 5.0
    assert optimal_interval(c, 600.0) < optimal_interval(c, 6000.0)


def test_restart_cost_scales_factor_only():
    # Restart cost multiplies the factor but does not move the optimum.
    c, m = 10.0, 3600.0
    t0 = optimal_interval(c, m, restart_cost=0.0)
    t1 = optimal_interval(c, m, restart_cost=50.0)
    assert t0 == pytest.approx(t1, rel=1e-3)
    assert expected_runtime_factor(t0, c, m, 50.0) > expected_runtime_factor(t0, c, m, 0.0)


def test_zero_cost_interval_is_zero():
    assert optimal_interval(0.0, 100.0) == 0.0


def _golden_section_over_the_public_factor(c, m, r):
    """``optimal_interval`` as it was written while every probe went
    through the checked public function."""
    lo = max(1e-9, 0.01 * young_interval(c, m))
    hi = max(100.0 * young_interval(c, m), 10.0 * c)
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def f(t):
        return expected_runtime_factor(t, c, m, r)

    a, b = lo, hi
    c_, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c_), f(d)
    for _ in range(200):
        if b - a < 1e-9 * max(1.0, b):
            break
        if fc < fd:
            b, d, fd = d, c_, fc
            c_ = b - phi * (b - a)
            fc = f(c_)
        else:
            a, c_, fc = c_, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize("restart", [0.0, 0.55, 50.0])
@pytest.mark.parametrize("mtbf", [1.0, 60.0, 3600.0, 1e7])
@pytest.mark.parametrize("cost", [
    # what the benchmark's himeno_cr run measures (least, median, most)
    0.299052230738722, 0.3112469803098836, 0.32344376988683643,
    1e-12, 1e-3, 1.0, 10.0, 977.0, 1e5,
])
def test_optimal_interval_probes_the_same_floats_unchecked(cost, mtbf, restart):
    # == on purpose: the unchecked probe must be the same expression,
    # so the search takes the same branches to the same bracket.
    assert optimal_interval(cost, mtbf, restart) == (
        _golden_section_over_the_public_factor(cost, mtbf, restart))


def test_vaidya_validation():
    with pytest.raises(ValueError):
        expected_runtime_factor(0.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        expected_runtime_factor(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        young_interval(1.0, 0.0)


# --------------------------------------------------------------- availability
def test_exponential_survival():
    lam = 1e-5
    assert prob_continuous_run(lam, 86400.0) == pytest.approx(math.exp(-lam * 86400))


def test_paper_quoted_points():
    # Section VI-C: 80 % at 6x with FMI; 70 % vs 10 % at 10x.
    rows = dict(
        (f, (w, wo)) for f, w, wo in run_probability_curve([6, 10])
    )
    assert rows[6][0] == pytest.approx(0.80, abs=0.02)
    assert rows[10][0] == pytest.approx(0.70, abs=0.02)
    assert rows[10][1] == pytest.approx(0.10, abs=0.02)


def test_fmi_always_at_least_as_good():
    for f, w, wo in run_probability_curve(range(0, 51, 5)):
        assert w >= wo


def test_availability_validation():
    with pytest.raises(ValueError):
        prob_continuous_run(-1.0)
    with pytest.raises(ValueError):
        run_probability_curve([-1])


# ----------------------------------------------------------------- efficiency
def test_single_level_efficiency_bounds():
    e = single_level_efficiency(10.0, 3600.0, 30.0)
    assert 0.8 < e < 1.0
    assert single_level_efficiency(0.0, 3600.0) == 1.0


def test_multilevel_reduces_to_l1_without_l2_failures():
    e1 = single_level_efficiency(0.4, 1 / COASTAL_L1_RATE, 0.7)
    e = multilevel_efficiency(0.4, 0.7, COASTAL_L1_RATE, 100.0, 100.0, 0.0)
    assert e == pytest.approx(e1)


def test_multilevel_monotone_in_scale():
    base = dict(c1=0.4, r1=0.7)
    effs = []
    for f in (1, 10, 50):
        effs.append(
            multilevel_efficiency(
                base["c1"], base["r1"], f * COASTAL_L1_RATE,
                f * 230.0, f * 230.0, f * COASTAL_L2_RATE,
            )
        )
    assert effs[0] > effs[1] > effs[2]


def test_multilevel_collapse_when_write_exceeds_mtbf():
    # c2 far beyond the MTBF: the vulnerable write never completes.
    eff = multilevel_efficiency(0.4, 0.7, 1e-3, 1e7, 1e7, 1e-4)
    assert eff < 0.01


def test_multilevel_validation():
    with pytest.raises(ValueError):
        multilevel_efficiency(-1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        multilevel_efficiency(0, 0, -1, 0, 0, 0)


# -------------------------------------------------------------- msglog model
def test_log_volume_scales_linearly():
    from repro.models.msglog_model import log_volume

    base = log_volume(100.0, 1e4, 0.5, 2.0, keep=2)
    assert base == pytest.approx(100.0 * 1e4 * 0.5 * 2.0 * 2)
    assert log_volume(200.0, 1e4, 0.5, 2.0) == pytest.approx(2 * base)
    assert log_volume(100.0, 1e4, 0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        log_volume(100.0, 1e4, 1.5, 2.0)
    with pytest.raises(ValueError):
        log_volume(100.0, 1e4, 0.5, 2.0, keep=0)


def test_partial_beats_global_below_crossover():
    from repro.models.msglog_model import (
        global_recovery_latency,
        partial_beats_global,
        partial_recovery_latency,
        replay_crossover_bytes,
    )

    kw = dict(s=1e8, group_size=16, mem_bw=1e10, net_bw=1e9)
    cross = replay_crossover_bytes(
        world_bootstrap_s=2.0, unit_bootstrap_s=0.1, net_bw=kw["net_bw"],
    )
    assert cross == pytest.approx(1.9 * 1e9)
    for backlog, wins in ((0.5 * cross, True), (2.0 * cross, False)):
        assert partial_beats_global(
            world_bootstrap_s=2.0, unit_bootstrap_s=0.1,
            replay_bytes=backlog, **kw,
        ) is wins
    # At zero backlog the gap is exactly the bootstrap saving.
    gap = global_recovery_latency(
        world_bootstrap_s=2.0, **kw
    ) - partial_recovery_latency(
        unit_bootstrap_s=0.1, replay_bytes=0.0, **kw
    )
    assert gap == pytest.approx(1.9)
