"""The chaos campaign subsystem: DSL, event triggers, invariants, soak.

The heavyweight end-to-end coverage lives in the campaign runs (one
seed per canned campaign, each a full traced FMI job under injected
failures); the rest are unit tests of the trigger/action machinery and
of the invariant checkers against synthetic violations.
"""

import numpy as np
import pytest

from repro.chaos import (
    CAMPAIGNS,
    GRAY_CAMPAIGNS,
    AtTime,
    Campaign,
    ChaosEngine,
    DetectorMonitor,
    DrainSlot,
    KillRandomNode,
    KillRandomSlot,
    KillRank,
    KillSlot,
    KillTenantSlot,
    LimpSlot,
    Omission,
    OnEvent,
    Partition,
    Poisson,
    RandomTimes,
    Rule,
    Scenario,
    TraceInvariants,
    check_answer,
    run_campaign,
)
from repro.cluster import Machine
from repro.cluster.failures import TraceInjector
from repro.cluster.spec import SIERRA
from repro.mpi.runtime import MpiJob
from repro.obs import Tracer, write_jsonl
from repro.simt import Simulator
from repro.simt.primitives import AllOf
from repro.simt.rng import RngRegistry
from tests.collective_engine import verdict


# ------------------------------------------- on-event injection (OnEvent)
def _bare_engine(tracer=True, seed=5):
    """A machine engine (no job) on an 8-node machine."""
    sim = Simulator()
    if tracer:
        Tracer(sim)
    machine = Machine(sim, SIERRA.with_nodes(8), RngRegistry(0))
    return sim, ChaosEngine(machine, RngRegistry(seed).stream("chaos"))


def test_event_injector_requires_enabled_tracer():
    sim, engine = _bare_engine(tracer=False)  # NULL_TRACER: nothing to see
    with pytest.raises(ValueError, match="Tracer"):
        engine.arm(Scenario("t", [Rule(OnEvent("anything"), KillRandomNode())]))
    assert sim.fault_injectors == 0


def test_event_injector_validates_args():
    """The on-event injector is an ``OnEvent`` rule on a machine
    engine; its count and delay are refused when the rule is built."""
    with pytest.raises(ValueError, match="count"):
        Rule(OnEvent("anything", count=0), KillRandomNode())
    for delay in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="delay"):
            Rule(OnEvent("anything", delay=delay), KillRandomNode())


def test_event_injector_fires_on_nth_match_after_delay():
    sim, engine = _bare_engine()
    engine.arm(Scenario("t", [
        Rule(OnEvent("tick", count=3, delay=0.5), KillRandomNode()),
    ]))

    def emitter():
        for i in range(5):
            yield sim.timeout(1.0)
            sim.tracer.instant("tick", "test", args={"i": i})
            sim.tracer.instant("noise", "test")

    sim.spawn(emitter())
    sim.run()
    # 3rd tick at t=3.0, +0.5 delay; a match fires once.
    assert [t for t, _desc in engine.injected] == [pytest.approx(3.5)]
    assert "tick" not in sim.tracer._subscribers


def test_event_injector_stop_disarms():
    sim, engine = _bare_engine()
    engine.arm(Scenario("t", [Rule(OnEvent("anything"), KillRandomNode())]))
    engine.disarm()
    sim.tracer.instant("anything", "test")
    sim.run()
    assert engine.injected == [] and sim.fault_injectors == 0


def test_at_time_refuses_nan():
    # ``max(0.0, nan)`` is 0.0: the rule used to fire at once.
    with pytest.raises(ValueError, match="NaN"):
        AtTime(float("nan"))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, match", [
    # a NaN start or spacing fired every kill at t = 0
    (lambda: RandomTimes(k=2, mean_spacing=NAN), "RandomTimes"),
    (lambda: RandomTimes(k=2, mean_spacing=1.0, start=NAN), "RandomTimes"),
    (lambda: RandomTimes(k=2, mean_spacing=INF), "RandomTimes"),
    (lambda: RandomTimes(k=2, mean_spacing=1.0, start=-INF), "RandomTimes"),
    (lambda: RandomTimes(k=2, mean_spacing=0.0), "RandomTimes"),
    (lambda: RandomTimes(k=2, mean_spacing=-1.0), "RandomTimes"),
    (lambda: RandomTimes(k=-1, mean_spacing=1.0), "RandomTimes"),
    # a misspelt mode ran drop mode
    (lambda: Partition(groups=((0,), (1,)), mode="stal"), "mode"),
    # a NaN heal crashed the run when the cut went in
    (lambda: Partition(groups=((0,), (1,)), heal_after=NAN), "heal_after"),
    (lambda: Partition(groups=((0,), (1,)), heal_after=-1.0), "heal_after"),
    (lambda: Omission(drop_p=0.1, duration=NAN), "duration"),
    (lambda: Omission(drop_p=0.1, duration=-0.5), "duration"),
    (lambda: LimpSlot(0, duration=NAN), "duration"),
    (lambda: LimpSlot(0, duration=-2.0), "duration"),
    # an infinite delay raised inside the rank that emitted the event
    (lambda: OnEvent("ckpt.encode.begin", delay=INF), "delay"),
    (lambda: OnEvent("ckpt.encode.begin", delay=NAN), "delay"),
    (lambda: OnEvent("ckpt.encode.begin", delay=-1.0), "delay"),
    # count=0 used to be refused only at arm(), after launch
    (lambda: OnEvent("ckpt.encode.begin", count=0), "count"),
    # the on-event injector: an OnEvent rule on a machine engine
    (lambda: Rule(OnEvent("tick", delay=INF), KillRandomNode()), "delay"),
    # an MTBF of 0 or NaN left the engine armed (every collective on
    # hops) while no kill could ever be scheduled
    (lambda: Poisson(NAN), "Poisson"),
    (lambda: Poisson(0.0), "Poisson"),
    (lambda: Poisson(-60.0), "Poisson"),
    (lambda: Poisson(INF), "Poisson"),
    (lambda: Partition(groups=((0,), (1,)), heal_after=INF), "heal_after"),
    (lambda: Omission(drop_p=0.1, duration=INF), "duration"),
    (lambda: LimpSlot(0, duration=INF), "duration"),
    # a negative index silently picked from the end of the slot list
    (lambda: KillSlot(-1), "slot"),
    (lambda: KillRank(-1), "rank"),
    (lambda: DrainSlot(-1), "slot"),
    (lambda: LimpSlot(-1), "slot"),
    (lambda: KillTenantSlot(-1, 0), "tenant"),
    (lambda: KillTenantSlot(0, -1), "slot"),
], ids=[
    "spacing-nan", "start-nan", "spacing-inf", "start-inf", "spacing-zero",
    "spacing-negative", "k-negative", "partition-mode", "heal-nan",
    "heal-negative", "omission-nan", "omission-negative", "limp-nan",
    "limp-negative", "onevent-delay-inf", "onevent-delay-nan",
    "onevent-delay-negative", "onevent-count-zero", "injector-delay-inf",
    "mtbf-nan", "mtbf-zero", "mtbf-negative", "mtbf-inf", "heal-inf",
    "omission-inf", "limp-inf",
    "killslot-negative", "killrank-negative", "drainslot-negative",
    "limpslot-negative", "tenant-negative", "tenant-slot-negative",
])
def test_dsl_refuses_bad_input_at_construction(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_dsl_still_accepts_edge_values():
    RandomTimes(k=0, mean_spacing=1e-9, start=-1.0)
    Poisson(1e-9)
    Partition(groups=((0,), (1,)), heal_after=0.0, mode="drop")
    Omission(duration=0.0)
    LimpSlot(0, duration=None)
    OnEvent("recovery.begin", count=1, delay=0.0)
    KillTenantSlot(0, 0)


@pytest.mark.parametrize("build, match", [
    # each armed without error, then raised out of ``sim.run`` when its
    # rule fired: the DSL now applies its layer's own rule when built
    (lambda: LimpSlot(1, bw_factor=0.0), "limp factors"),
    (lambda: LimpSlot(1, bw_factor=-2.0), "limp factors"),
    (lambda: LimpSlot(1, bw_factor=NAN), "limp factors"),
    (lambda: LimpSlot(1, latency_factor=0.5), "limp factors"),
    (lambda: Omission(drop_p=1.0), "drop_p"),
    (lambda: Omission(drop_p=1.5), "drop_p"),
    (lambda: Omission(dup_p=NAN), "dup_p"),
    (lambda: Omission(rto=0.0), "rto"),
    (lambda: Omission(rto=-1.0), "rto"),
    (lambda: Partition(groups=((0, 1), (1, 2))), "two partition groups"),
], ids=[
    "limp-bw-zero", "limp-bw-negative", "limp-bw-nan", "limp-latency-below-one",
    "omission-drop-one", "omission-drop-above-one", "omission-dup-nan",
    "omission-rto-zero", "omission-rto-negative", "partition-slot-twice",
])
def test_dsl_refuses_what_its_layer_would_refuse_mid_run(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_the_package_exports_the_whole_dsl():
    import repro.chaos
    from repro.chaos import scenario

    dsl = [name for name in repro.chaos.__all__
           if getattr(repro.chaos, name) is getattr(scenario, name, None)]
    assert dsl == scenario.__all__


@pytest.mark.parametrize("action", [
    KillSlot(99), DrainSlot(4), LimpSlot(99), KillRank(99),
    KillTenantSlot(1, 0), KillTenantSlot(0, 99),
    Partition(groups=((0, 1), (2, 99))),
    # A rule that draws from the engine rng, on an engine without one:
    # RandomTimes raised partway through arm, after the rules before it
    # were armed; the random actions raised from a timer, mid-run.
    Rule(RandomTimes(k=1, mean_spacing=1.0), KillSlot(1)),
    Rule(Poisson(1.0), KillSlot(1)),
    KillRandomSlot(), KillRandomNode(), Omission(drop_p=0.1),
], ids=repr)
def test_arm_refuses_a_target_the_job_lacks(action):
    """Slots, ranks and tenants are counted before launch, and the rng
    is fixed when the engine is built: a rule naming a target the job
    lacks, or drawing from an rng the engine lacks, is refused at
    ``arm``, before any rule is armed, and nothing fires.
    (``KillSlot(99)`` used to end the run as ``liveness: job failed:
    IndexError``.)"""
    sim, machine, job = _tiny_job()
    Tracer(sim)
    assert job.fmirun.num_slots == 4 and job.num_ranks < 99
    engine = ChaosEngine(machine, jobs=[job])  # no rng
    done = job.launch()
    bad = action if isinstance(action, Rule) else Rule(AtTime(1.0), action)
    fine = [Rule(AtTime(1.0), KillSlot(1)),
            Rule(OnEvent("recovery.begin"), KillSlot(3))]
    with pytest.raises(ValueError, match="the (job|engine) has"):
        engine.arm(Scenario("t", [*fine, bad]))
    assert sim.fault_injectors == 0 and engine._subscribed == []
    sim.run(until=done)
    assert engine.injected == [] and job.epoch == 0


def test_machine_engine_refuses_job_scoped_actions():
    sim, engine = _bare_engine()
    with pytest.raises(ValueError, match="the engine has none"):
        engine.arm(Scenario("t", [Rule(AtTime(1.0), KillRandomSlot())]))
    assert sim.fault_injectors == 0


@pytest.mark.parametrize("rule", [
    Rule(AtTime(2.0), KillSlot(1)),
    Rule(RandomTimes(k=2, mean_spacing=0.1, start=1.5), KillSlot(1)),
    # its first gap on this stream ends at 2.58 s, after the disarm
    Rule(Poisson(1.0), KillRandomSlot()),
    # matched at launch; its kill is pending when the engine disarms
    Rule(OnEvent("fmi.state", delay=2.0), KillSlot(1)),
], ids=lambda rule: type(rule.trigger).__name__)
def test_disarm_silences_every_pending_rule(rule):
    """A rule armed, then disarmed before it fires, never fires.  (An
    ``AtTime(2.0)`` kill disarmed at 1.5 used to kill at 2.0 and open
    epoch 1, while ``sim.fault_injectors == 0`` told the collective
    verdict nothing was armed.)"""
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, machine.rng.stream("chaos"), [job])
    done = job.launch()
    engine.arm(Scenario("t", [rule]))
    sim.timeout(1.5).callbacks.append(lambda _e: engine.disarm())
    sim.run(until=done)
    assert engine.injected == [] and job.epoch == 0
    assert sim.fault_injectors == 0 and "fmi.state" not in sim.tracer._subscribers
    with pytest.raises(RuntimeError, match="disarmed"):
        engine.arm(Scenario("again", []))


def test_poisson_kill_random_node_keeps_the_mtbf_draw_order():
    """Gap, victim, gap, victim, ...: on a stream of its own the rule
    draws exactly what an exponential / integers loop draws, and a
    dead victim is recorded as a no-op."""
    sim, engine = _bare_engine(tracer=False)
    engine.arm(Scenario("mtbf", [Rule(Poisson(3.0), KillRandomNode())]))
    sim.run(until=60.0)
    rng, t, want, dead = RngRegistry(5).stream("chaos"), 0.0, [], set()
    while True:
        t += float(rng.exponential(3.0))
        if t > 60.0:
            break
        victim = int(rng.integers(8))
        want.append((t, "kill random node: already dead" if victim in dead
                     else f"kill random node (node {victim})"))
        dead.add(victim)
    assert engine.injected == want
    assert len(dead) < len(want)  # some draw hit a dead node


# ----------------------------------------------------------------- the DSL
def _tiny_job(seed=0):
    from repro.chaos.runner import _build_job

    return _build_job(CAMPAIGNS["mid-checkpoint-kill"], seed)


def test_attime_kills_the_slots_current_node():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("t", [Rule(AtTime(2.0), KillSlot(1))]))
    sim.run(until=done)
    assert len(engine.injected) == 1
    t, desc = engine.injected[0]
    assert t == pytest.approx(2.0)
    assert desc.startswith("kill slot 1")
    assert job.epoch >= 1 and job.finished


def test_disarm_removes_exactly_the_veto_arm_placed():
    """``arm``/``disarm`` are +1/-1 on ``sim.fault_injectors``, once
    each.  (``disarm`` used to lift a per-transport veto from every
    tenant, including ones launched after ``arm`` that it had never
    vetoed.)"""
    def app(mpi):
        yield from mpi.barrier()

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(4), RngRegistry(0))
    first = MpiJob(machine, app, 2, procs_per_node=1, charge_init=False)
    engine = ChaosEngine(machine, jobs=[first])
    engine.arm(Scenario("t", []))
    engine.arm(Scenario("again", []))
    assert sim.fault_injectors == 1
    assert verdict(first.transport) == "injector"

    late = MpiJob(machine, app, 2, procs_per_node=1, charge_init=False)
    engine.jobs.append(late)
    own = TraceInjector(sim, [(1e9, [0])], kill=lambda nodes: None)
    own.start()
    engine.disarm()
    engine.disarm()
    assert verdict(late.transport) == "injector"
    own.stop()
    assert verdict(late.transport) is None
    assert sim.fault_injectors == 0


def test_onevent_trigger_lands_at_marker():
    sim, machine, job = _tiny_job()
    tracer = Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("t", [
        Rule(OnEvent("ckpt.encode.begin", count=1), KillSlot(0)),
    ]))
    sim.run(until=done)
    engine.disarm()
    first_encode = next(
        ev.ts for ev in tracer.events if ev.name == "ckpt.encode.begin"
    )
    assert len(engine.injected) == 1
    assert engine.injected[0][0] == pytest.approx(first_encode)
    assert job.finished


def test_randomtimes_schedule_is_seed_deterministic():
    def schedule(seed):
        sim, machine, job = _tiny_job(seed)
        Tracer(sim)
        rng = machine.rng.stream("chaos")
        engine = ChaosEngine(machine, rng, [job])
        done = job.launch()
        engine.arm(Scenario("t", [
            Rule(RandomTimes(k=2, mean_spacing=1.0, start=1.0), KillRank(5)),
        ]))
        sim.run(until=done)
        return engine.injected

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)


def test_dead_slot_kill_is_recorded_as_noop():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("t", [
        Rule(AtTime(2.0), KillSlot(0)),
        Rule(AtTime(2.0), KillSlot(0)),  # same instant: second is a no-op
    ]))
    sim.run(until=done)
    descs = [d for _t, d in engine.injected]
    assert descs[0].startswith("kill slot 0 (node")
    assert descs[1] == "kill slot 0: already dead"
    assert job.finished


def test_drain_refusal_is_recorded():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("t", [
        Rule(AtTime(1.0), KillSlot(2)),
        Rule(AtTime(1.0), DrainSlot(2)),  # draining a dead slot: refused
    ]))
    sim.run(until=done)
    descs = [d for _t, d in engine.injected]
    assert any(d.startswith("drain slot 2: refused") for d in descs)
    assert job.finished


# ------------------------------------------------------ gray-failure actions
def test_partition_action_cuts_and_heals_on_schedule():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("t", [
        Rule(AtTime(1.0), Partition(groups=((0, 1), (2, 3)), heal_after=0.5)),
    ]))
    observed = []

    def probe():
        yield sim.timeout(1.1)
        observed.append(machine.fabric.partitioned)
        yield sim.timeout(0.5)  # t=1.6 > heal at 1.5
        observed.append(machine.fabric.partitioned)

    sim.spawn(probe())
    sim.run(until=done)
    assert observed == [True, False]
    descs = [d for _t, d in engine.injected]
    assert any(d.startswith("partition ") for d in descs)
    assert any(d.startswith("heal partition") for d in descs)
    assert job.finished and job.epoch == 0


def test_second_partition_is_refused():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("t", [
        Rule(AtTime(1.0), Partition(groups=((0, 1), (2, 3)), heal_after=2.0)),
        Rule(AtTime(1.2), Partition(groups=((0,), (1, 2, 3)))),
    ]))
    sim.run(until=done)
    descs = [d for _t, d in engine.injected]
    assert "partition: refused (already partitioned)" in descs


def test_omission_attach_detach_records():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, machine.rng.stream("chaos"), [job])
    done = job.launch()
    engine.arm(Scenario("t", [
        Rule(AtTime(1.0), Omission(drop_p=0.05, duration=1.0)),
    ]))
    sim.run(until=done)
    descs = [d for _t, d in engine.injected]
    assert any(d.startswith("omission on") for d in descs)
    assert any(d == "omission off (scheduled)" for d in descs)
    assert job.finished and job.transport.faults is None


def test_limp_on_dead_node_is_refused():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("t", [
        # Same instant: the slot's node is dead but not yet replaced
        # by a spare, so the limp must be refused, not applied to a
        # corpse.  (A later limp lands on the replacement node -- slot
        # actions always resolve the *current* holder.)
        Rule(AtTime(1.0), KillSlot(2)),
        Rule(AtTime(1.0), LimpSlot(2, bw_factor=8.0)),
    ]))
    sim.run(until=done)
    descs = [d for _t, d in engine.injected]
    assert any(d.startswith("limp slot 2: refused") for d in descs)


def test_limp_auto_reverts_after_duration():
    sim, machine, job = _tiny_job()
    Tracer(sim)
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    node = job.fmirun.node_slots[1]
    engine.arm(Scenario("t", [
        Rule(AtTime(1.0), LimpSlot(1, bw_factor=8.0, duration=0.5)),
    ]))
    observed = []

    def probe():
        yield sim.timeout(1.2)
        observed.append(node.limping)
        yield sim.timeout(0.5)
        observed.append(node.limping)

    sim.spawn(probe())
    sim.run(until=done)
    assert observed == [True, False]
    assert any(
        d.startswith("unlimp node") for _t, d in engine.injected
    )


# ------------------------------------------------------- invariant checkers
class _FakeEvent:
    def __init__(self, name, rank=0, epoch=0, incarnation=0, ts=0.0, args=(),
                 node=None):
        self.name = name
        self.rank = rank
        self.node = node
        self.epoch = epoch
        self.incarnation = incarnation
        self.ts = ts
        self.args = dict(args)


def _violations(events):
    """The trace invariants' verdict on ``events``, replayed."""
    return TraceInvariants().replay(events).violations()


def test_epoch_monotone_catches_backwards_epoch():
    violations = _violations([
        _FakeEvent("fmi.state", rank=1, epoch=2, ts=1.0),
        _FakeEvent("fmi.state", rank=1, epoch=1, ts=2.0),
    ])
    assert [v.invariant for v in violations] == ["epoch-monotone"]
    assert "went 2 -> 1" in violations[0].detail


def test_epoch_monotone_accepts_increasing():
    assert _violations([
        _FakeEvent("fmi.state", rank=1, epoch=0),
        _FakeEvent("fmi.state", rank=1, epoch=0),
        _FakeEvent("fmi.state", rank=1, epoch=2),
    ]) == []


def test_stale_delivery_checker():
    ok = _FakeEvent("net.recv", epoch=3, args={"ctx_epoch": 3})
    bad = _FakeEvent("net.recv", epoch=1, args={"ctx_epoch": 3})
    assert _violations([ok]) == []
    violations = _violations([ok, bad])
    assert [v.invariant for v in violations] == ["no-stale-delivery"]
    assert "epoch-1" in violations[0].detail


def test_split_brain_checker_flags_unconfirmed_partition_notify():
    violations = _violations([
        _FakeEvent("fmi.notify", rank=2,
                   args={"reason": "cascade:partition:p1"}),
    ])
    assert any(v.invariant == "no-split-brain"
               and "unconfirmed partition" in v.detail for v in violations)
    assert _violations([
        _FakeEvent("node.crash"),
        _FakeEvent("recovery.begin"),
        _FakeEvent("fmi.notify", rank=2,
                   args={"reason": "confirmed:partition:p1"}),
    ]) == []


def test_split_brain_checker_counts_recoveries_vs_deaths():
    violations = _violations([
        _FakeEvent("node.crash"),
        _FakeEvent("recovery.begin"),
        _FakeEvent("recovery.begin"),  # both sides of a cut recovered
    ])
    assert [v.invariant for v in violations] == ["no-split-brain"]
    assert "2 recovery epoch(s)" in violations[0].detail


def test_split_brain_notify_detail_names_epoch_and_job():
    (violation,) = _violations([
        _FakeEvent("fmi.notify", rank=2, epoch=3, ts=1.5,
                   args={"reason": "partition:p1", "job": "t1"}),
    ])
    assert violation.invariant == "no-split-brain"
    assert "rank 2 (epoch 3, job t1)" in violation.detail
    assert "t=1.5" in violation.detail


def test_zero_rollback_detail_names_epoch_and_job():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.instant("repl.promote", "repl")
    sim.now = 2.0
    tracer.instant("ckpt.restore.begin", "ckpt", rank=1, epoch=4, job="t0")
    sim.now = 3.0
    tracer.instant("ckpt.restore.begin", "ckpt", rank=2)
    first, second = _violations(tracer.events)
    assert first.invariant == second.invariant == "zero-rollback"
    assert "rank 1 (epoch 4, job t0) began" in first.detail
    assert "t=2" in first.detail and "never fell back" in first.detail
    assert "rank 2 began" in second.detail  # no context to name


def test_suspicion_checker_requires_resolution():
    violations = _violations([
        _FakeEvent("overlay.suspect", rank=1, args={"peer": 5}),
        _FakeEvent("overlay.suspect", rank=5, args={"peer": 1}),
        _FakeEvent("overlay.suspect.cleared", rank=1,
                   args={"peer": 5, "resolution": "peer-alive"}),
    ])
    assert [v.invariant for v in violations] == ["suspicion-resolved"]
    assert "rank 5's suspicion of rank 1" in violations[0].detail


def test_answer_checker_is_bit_exact():
    ref = [np.arange(4.0), np.ones(4)]
    assert check_answer([ref[0].copy(), ref[1].copy()], ref) == []
    off = [ref[0].copy(), ref[1] + 1e-12]
    assert len(check_answer(off, ref)) == 1
    assert len(check_answer([ref[0]], ref)) == 1  # length mismatch


def test_verdict_names_every_tenant_in_a_per_job_violation():
    """One shape for any number of jobs: the per-job checkers and the
    answer check run for *every* tenant, and what they find says whose
    it is -- tenant 0 is not special."""
    from repro.chaos.runner import _build_job, reference_results

    campaign = CAMPAIGNS["multi-tenant-kill"]
    sim, _machine, *jobs = _build_job(campaign, 0, ["t0", "t1"])
    tracer = Tracer(sim)
    monitors = [DetectorMonitor(job) for job in jobs]
    launched = [job.launch() for job in jobs]
    sim.run(until=AllOf(sim, launched))
    results = [done.value for done in launched]
    reference = reference_results(campaign)

    def verdict_of(results, reference):
        return TraceInvariants().replay(tracer.events).verdict(
            jobs, results, reference, monitors)

    assert verdict_of(results, reference) == []
    wrong = [np.asarray(r) + 1.0 for r in reference]
    found = verdict_of(results, wrong)
    assert {v.invariant for v in found} == {"answer"}
    for job in jobs:
        mine = [v for v in found if v.detail.startswith(f"{job.job_id}: ")]
        assert len(mine) == campaign.num_ranks
    # a run that never finished has no answers to check
    assert verdict_of(None, wrong) == []


# -------------------------------------------------------------- end to end
@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_survives_and_is_green(name):
    result = run_campaign(name, seed=1)
    assert result.violations == []
    assert result.trace_events > 0


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_closed_form_reference_equals_a_failure_free_run(name):
    from repro.chaos.runner import _build_job, reference_results

    campaign = CAMPAIGNS[name]
    sim, _machine, job = _build_job(campaign, 0)
    simulated = sim.run(until=job.launch())
    closed = reference_results(campaign)
    assert len(simulated) == len(closed)
    for got, want in zip(simulated, closed):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_campaigns_sharing_a_name_each_get_their_own_reference():
    for iterations in (5, 6):
        campaign = Campaign("adhoc", "no rules", lambda rng, c: [],
                            iterations=iterations)
        assert run_campaign(campaign, seed=0).violations == []


def test_campaign_replay_is_deterministic():
    a = run_campaign("kill-during-recovery", seed=3, keep_trace=True)
    b = run_campaign("kill-during-recovery", seed=3, keep_trace=True)
    assert a.injected == b.injected
    assert a.sim_time == b.sim_time
    assert a.trace_events == b.trace_events
    assert [ev.name for ev in a.tracer.events] == [
        ev.name for ev in b.tracer.events
    ]
    assert [ev.ts for ev in a.tracer.events] == [
        ev.ts for ev in b.tracer.events
    ]


@pytest.mark.parametrize("name", sorted(GRAY_CAMPAIGNS))
def test_gray_campaign_trace_replays_byte_identical(name, tmp_path):
    """Same (campaign, seed) -> byte-identical trace JSONL, for every
    new gray chaos action (partition/heal, omission, limp)."""
    a = run_campaign(name, seed=2, keep_trace=True)
    b = run_campaign(name, seed=2, keep_trace=True)
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    write_jsonl(a.tracer.events, path_a)
    write_jsonl(b.tracer.events, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.stat().st_size > 0
    assert a.injected == b.injected


def test_unknown_campaign_rejected():
    with pytest.raises(KeyError, match="unknown campaign"):
        run_campaign("no-such-campaign", seed=0)
