"""Job reports and phase accounting."""

import numpy as np
import pytest

from repro.analysis.report import job_report, phase_durations, render_report
from repro.apps.synthetic import bsp_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def run_job(kill_at=None, iters=6, seed=0):
    sim = Simulator()
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
    return job


def test_report_failure_free():
    job = run_job()
    r = job_report(job)
    assert r["finished"]
    assert r["recoveries"] == 0
    assert r["restores"] == 0
    assert r["checkpoint_rounds"] == 7  # loops 0..6
    assert r["h3_fraction"] > 0.7  # most time is useful work
    assert r["recovery_latencies"] == []


def test_report_with_failure():
    job = run_job(kill_at=1.5)
    r = job_report(job)
    assert r["finished"]
    assert r["recoveries"] == 1
    assert len(r["recovery_latencies"]) == 1
    assert 0.2 < r["recovery_latencies"][0] < 30.0
    assert r["failure_causes"] and "node-crash" in r["failure_causes"][0]
    # Recovery stole some useful-time fraction.
    assert r["h3_fraction"] < job_report(run_job())["h3_fraction"] + 1e-9


def test_phase_durations_sum_to_live_time():
    job = run_job(kill_at=1.5)
    phases = phase_durations(job)
    for rank, acc in phases.items():
        live = acc["H1"] + acc["H2"] + acc["H3"] + acc["done"]
        # Within the job's wall time (replacements start later).
        assert 0 < live <= job.sim.now + 1e-9, rank
        # H2 (log-ring build) is short compared to H3.
        assert acc["H2"] < acc["H3"]


def test_render_report_readable():
    job = run_job(kill_at=1.5)
    text = render_report(job, title="unit-test run")
    assert "unit-test run" in text
    assert "recoveries" in text
    assert "failure 1" in text
    assert "H3" in text


def test_recovery_latency_of_epoch_zero_is_none():
    # Epoch 0 is the launch, not a recovery: it used to be measured from
    # the *last* failure (recovery_causes[-1]) and came out negative.
    job = run_job(kill_at=1.5)
    assert job.epoch == 1 and 0 in job.recovered_at
    assert job.recovery_latency(0) is None
    assert job.recovery_latency(1) > 0
