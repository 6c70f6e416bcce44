"""The run report, read from the trace."""

from repro.apps.synthetic import bsp_app
from repro.chaos import run_campaign
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.obs import Tracer
from repro.obs.summary import report, summarize
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def run_job(kill_at=None, iters=6, seed=0):
    sim = Simulator()
    tracer = Tracer(sim)
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(seed))
    job = FmiJob(
        machine, bsp_app(iters, work_s=0.4), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1),
    )
    done = job.launch()
    if kill_at is not None:
        def killer():
            yield sim.timeout(kill_at)
            job.fmirun.node_slots[0].crash("report-test")

        sim.spawn(killer())
    sim.run(until=done)
    return job, tracer


def test_report_failure_free():
    job, tracer = run_job()
    summary = summarize(tracer)
    r = summary.run()
    assert r["ranks"] == 16
    assert r["recoveries"] == []
    assert r["checkpoint_rounds"] == 7  # loops 0..6
    assert r["h3_share"] > 0.7  # most time is useful work
    assert 0 < summary.span <= job.sim.now


def test_report_with_failure():
    job, tracer = run_job(kill_at=1.5)
    r = summarize(tracer).run()
    assert len(r["recoveries"]) == 1
    latency = r["recoveries"][0]["duration"]
    assert 0.2 < latency < 30.0
    assert latency == job.recovery_latency(1)  # the job's own clock
    assert "node-crash" in r["recoveries"][0]["cause"]
    # Recovery stole some useful-time share.
    assert r["h3_share"] < summarize(run_job()[1]).run()["h3_share"]


def test_state_dwell_h2_is_short_next_to_h3():
    _job, tracer = run_job(kill_at=1.5)
    dwell = summarize(tracer).dwell()
    # H2 (log-ring build) is short compared to H3.
    assert dwell["H2"]["max"] < dwell["H3"]["mean"]


def test_report_renders_the_run_table():
    _job, tracer = run_job(kill_at=1.5)
    text = report(tracer)
    assert "== Run ==" in text
    assert "checkpoint rounds" in text
    assert "H3 share" in text
    assert "node-crash" in text


def _rows(text, title):
    """The cells of the report table titled ``title``, header first."""
    table = text.split(f"== {title} ==\n")[1].split("\n\n")[0].splitlines()
    return [[cell.strip() for cell in line.split("|")]
            for line in table[:1] + table[2:]]


def test_report_keeps_co_resident_tenants_apart():
    # Both tenants lose a node; each cascade reaches its own six
    # survivors, and each table row names its tenant.
    tracer = run_campaign("multi-tenant-kill", 1, keep_trace=True).tracer
    summary = summarize(tracer)
    assert {key: entry["count"] for key, entry in summary.notification().items()} == {
        ("t0", 1): 6, ("t1", 1): 6}
    assert [(r["job"], r["epoch"]) for r in summary.run()["recoveries"]] == [
        ("t0", 1), ("t1", 1)]
    text = report(tracer)
    notified = _rows(text, "Failure notification (log-ring cascade)")
    assert [row[:3] for row in notified] == [
        ["job", "gen", "survivors"], ["t0", "1", "6"], ["t1", "1", "6"]]
    recovered = _rows(text, "Recovery windows (failure -> all ranks in H3)")
    assert [row[:2] for row in recovered] == [["job", "epoch"], ["t0", "1"],
                                              ["t1", "1"]]


def test_a_tenants_notification_latency_runs_from_its_own_crash():
    # t1's node dies 50 ms after t0's; t0 used to be measured from it
    # (0.150 s), the newest crash before its first notification.
    tracer = run_campaign("multi-tenant-kill", 0, keep_trace=True).tracer
    notified = summarize(tracer).notification()
    assert notified["t0", 1]["failure_at"] == 2.8924427057095095
    assert abs(notified["t0", 1]["latency"] - 0.200) < 1e-9
    assert notified["t1", 1]["failure_at"] == 2.9424427057095093
    assert abs(notified["t1", 1]["latency"] - 0.200) < 1e-9


def test_recovery_latency_of_epoch_zero_is_none():
    # Epoch 0 is the launch, not a recovery: it used to be measured from
    # the *last* failure (recovery_causes[-1]) and came out negative.
    job, _tracer = run_job(kill_at=1.5)
    assert job.epoch == 1 and 0 in job.recovered_at
    assert job.recovery_latency(0) is None
    assert job.recovery_latency(1) > 0
