"""Failure injectors and the resource manager."""

import pytest

from repro.chaos import (
    ChaosEngine,
    KillRandomNode,
    OnEvent,
    Poisson,
    Rule,
    Scenario,
)
from repro.cluster import Machine
from repro.cluster.failures import (
    FailureInjector,
    FailureType,
    TSUBAME2_FAILURE_TYPES,
    TSUBAME2_TABLE1_CLASSES,
    TraceInjector,
)
from repro.cluster.resource_manager import AllocationError
from repro.cluster.spec import SECONDS_PER_YEAR, SIERRA, TSUBAME2
from repro.obs.tracer import Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


# ------------------------------------------------------------ failure types
def test_tsubame_table1_class_totals():
    # The component split must sum back to Table I's per-class totals.
    expected = {
        "PFS, Core switch": 5.61,
        "Rack": 4.20,
        "Edge switch": 21.02,
        "PSU": 12.61,
        "Compute node": 554.10,
    }
    for cls_name, _affected, members in TSUBAME2_TABLE1_CLASSES:
        total = sum(
            t.failures_per_year for t in TSUBAME2_FAILURE_TYPES if t.name in members
        )
        assert total == pytest.approx(expected[cls_name], rel=0.01), cls_name


def test_tsubame_table1_mtbf_days():
    # Table I MTBF column: 65.10, 86.90, 17.37, 28.94, 0.658 days.
    expected = {
        "PFS, Core switch": 65.10,
        "Rack": 86.90,
        "Edge switch": 17.37,
        "PSU": 28.94,
        "Compute node": 0.658,
    }
    for cls_name, _affected, members in TSUBAME2_TABLE1_CLASSES:
        rate = sum(
            t.rate_per_second for t in TSUBAME2_FAILURE_TYPES if t.name in members
        )
        mtbf_days = 1.0 / rate / 86400.0
        assert mtbf_days == pytest.approx(expected[cls_name], rel=0.02), cls_name


def test_failure_levels_match_affected_counts():
    for t in TSUBAME2_FAILURE_TYPES:
        expected_level = {1: 1, 4: 2, 16: 3, 32: 4, 1408: 5}[t.affected_nodes]
        assert t.level == expected_level


def test_failure_type_conversions():
    t = FailureType.from_per_year("x", 1, SECONDS_PER_YEAR, 1)
    assert t.rate_per_second == pytest.approx(1.0)
    assert t.mtbf_seconds == pytest.approx(1.0)


# ------------------------------------------------------------- injector
def test_injector_records_match_poisson_rates():
    sim = Simulator()
    rng = RngRegistry(42).stream("failures")
    inj = FailureInjector(sim, rng, TSUBAME2_FAILURE_TYPES, num_nodes=1408)
    inj.start()
    years = 20
    duration = years * SECONDS_PER_YEAR
    sim.run(until=duration)
    inj.stop()
    # Compute-node class: expect ~554/yr within ~10% over 20 years.
    stats = {name: (per_year, mtbf) for name, _a, per_year, mtbf in inj.class_stats(duration)}
    assert stats["Compute node"][0] == pytest.approx(554.1, rel=0.10)
    assert stats["Edge switch"][0] == pytest.approx(21.02, rel=0.35)
    assert stats["Compute node"][1] == pytest.approx(0.658, rel=0.10)


def test_injector_node_pick_respects_affected_count():
    sim = Simulator()
    rng = RngRegistry(1).stream("f")
    inj = FailureInjector(sim, rng, TSUBAME2_FAILURE_TYPES, num_nodes=1408)
    for t in TSUBAME2_FAILURE_TYPES:
        nodes = inj._pick_nodes(t)
        assert len(nodes) == min(t.affected_nodes, 1408)
        assert len(set(nodes)) == len(nodes)
        if 1 < t.affected_nodes < 1408:
            # aligned block
            assert nodes == list(range(nodes[0], nodes[0] + t.affected_nodes))
            assert nodes[0] % t.affected_nodes == 0


def test_injector_crashes_machine_nodes():
    sim = Simulator()
    m = Machine(sim, TSUBAME2.with_nodes(64), RngRegistry(3))
    one_per_hour = [FailureType("node", 1, 1.0 / 3600.0, 1)]
    inj = FailureInjector(
        sim, m.rng.stream("failures"), one_per_hour, m.spec.num_nodes,
        on_failure=lambda rec: m.fail_nodes(rec.nodes, cause=rec.type.name),
    )
    inj.start()
    sim.run(until=50 * 3600.0)
    inj.stop()
    assert len(inj.records) > 0
    dead = {n.id for n in m.nodes if not n.alive}
    hit = set()
    for r in inj.records:
        hit.update(r.nodes)
    assert dead == hit


# One arming protocol for every injector (cluster.failures._Injector).
INJECTORS = {
    "failure": lambda sim, rng: FailureInjector(
        sim, rng, TSUBAME2_FAILURE_TYPES, 16),
    "trace": lambda sim, rng: TraceInjector(
        sim, [(1.0, [0])], kill=lambda nodes: None),
    "engine": lambda sim, rng: ChaosEngine(
        Machine(sim, SIERRA.with_nodes(4)), rng),
}
#: The on-event and MTBF injectors are rules on a machine engine: these
#: rows start the engine by arming the rule.
RULES = {"event": OnEvent("never.recorded"), "mtbf": Poisson(60.0)}
INJECTORS.update(dict.fromkeys(RULES, INJECTORS["engine"]))


def fresh_injector(kind):
    """``(sim, injector, start)``: ``start()`` arms the injector."""
    sim = Simulator()
    Tracer(sim)  # an OnEvent rule needs an attached tracer to arm
    inj = INJECTORS[kind](sim, RngRegistry(0).stream("x"))
    if kind not in RULES:
        return sim, inj, inj.start
    scenario = Scenario(kind, [Rule(RULES[kind], KillRandomNode())])
    return sim, inj, lambda: inj.arm(scenario)


@pytest.mark.parametrize("kind", sorted(INJECTORS))
def test_injector_double_start_rejected(kind):
    sim, inj, start = fresh_injector(kind)
    start()
    with pytest.raises(RuntimeError, match="injector already started"):
        inj.start()
    assert sim.fault_injectors == 1
    inj.stop()
    assert sim.fault_injectors == 0


@pytest.mark.parametrize("kind", sorted(INJECTORS))
def test_injector_stop_is_idempotent_and_a_noop_before_start(kind):
    sim, inj, start = fresh_injector(kind)
    inj.stop()
    assert sim.fault_injectors == 0
    start()
    assert sim.fault_injectors == 1
    inj.stop()
    inj.stop()
    assert sim.fault_injectors == 0


def _mtbf_engine(sim, mtbf=60.0, nodes=32):
    """A machine engine killing a random node every Exp(``mtbf``)."""
    engine = ChaosEngine(Machine(sim, SIERRA.with_nodes(nodes)),
                         RngRegistry(5).stream("mtbf"))
    engine.arm(Scenario("mtbf", [Rule(Poisson(mtbf), KillRandomNode())]))
    return engine


def test_rejected_second_start_spawns_no_second_arrival_process():
    """``start(); start()`` used to spawn a second arrival process while
    counting the injector once: double the kill rate / every trace entry
    replayed twice, under ``sim.fault_injectors == 1``."""
    sim = Simulator()
    mtbf = _mtbf_engine(sim)
    trace = TraceInjector(sim, [(10.0, [1]), (20.0, [2])],
                          kill=lambda nodes: None)
    trace.start()
    for inj in (mtbf, trace):
        with pytest.raises(RuntimeError):
            inj.start()
    sim.run(until=60.0 * 1000)
    assert len(mtbf.injected) == pytest.approx(1000, rel=0.15)  # not ~2000
    assert trace.replayed == [(10.0, [1]), (20.0, [2])]


def test_mtbf_injector_rate():
    """MTBF injection is a ``Poisson`` rule on a machine engine."""
    sim = Simulator()
    engine = _mtbf_engine(sim)
    sim.run(until=60.0 * 1000)
    engine.disarm()
    assert len(engine.injected) == pytest.approx(1000, rel=0.15)
    # every node dies once; every later draw of it is a recorded no-op
    crashed = [d for _t, d in engine.injected if not d.endswith("already dead")]
    assert sorted(crashed) == sorted(f"kill random node (node {n})"
                                     for n in range(32))


def test_soak_mtbf_class_draws_what_the_poisson_rule_draws():
    """``repro.sched --mtbf`` runs its kills as one single-node
    ``FailureInjector`` class; on one stream it kills the nodes the
    ``Poisson`` / ``KillRandomNode`` rule kills, at the same times, so
    moving the soak onto the rule keeps its draws."""
    sim = Simulator()
    kills = []
    FailureInjector(
        sim, RngRegistry(5).stream("mtbf"),
        [FailureType("mtbf", 1, 1.0 / 60.0, 1)], 32,
        on_failure=lambda rec: kills.append((rec.time, rec.nodes[0])),
    ).start()
    sim.run(until=60.0 * 100)
    engine = _mtbf_engine(Simulator())
    engine.sim.run(until=60.0 * 100)
    want, dead = [], set()
    for t, node in kills:
        want.append((t, "kill random node: already dead" if node in dead
                     else f"kill random node (node {node})"))
        dead.add(node)
    assert len(want) > 50 and engine.injected == want


def test_trace_injector_refuses_nan_time():
    # Accepted, the replay stopped at the NaN entry and every later kill
    # was lost.
    with pytest.raises(ValueError, match="NaN"):
        TraceInjector(Simulator(), [(1.0, [1]), (float("nan"), [0]), (2.0, [2])],
                      kill=lambda nodes: None)


# -------------------------------------------------------- resource manager
def test_allocate_and_spares():
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(10), RngRegistry(0))
    alloc = m.rm.allocate(6, num_spares=2)
    assert len(alloc.nodes) == 6
    assert len(alloc.spares) == 2
    assert m.rm.idle_count == 2
    spare = alloc.take_spare()
    assert spare is not None and spare.alive
    assert len(alloc.spares) == 1


def test_take_spare_skips_dead():
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(8), RngRegistry(0))
    alloc = m.rm.allocate(4, num_spares=2)
    alloc.spares[0].crash()
    spare = alloc.take_spare()
    assert spare is not None and spare.alive
    assert alloc.take_spare() is None


def test_overallocation_raises():
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(4), RngRegistry(0))
    with pytest.raises(AllocationError):
        m.rm.allocate(5)


def test_replacement_grant_latency():
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(5), RngRegistry(0))
    m.rm.allocate(4)
    got = []

    def asker():
        node = yield m.rm.request_replacement()
        got.append((node.id, sim.now))

    sim.spawn(asker())
    sim.run()
    assert len(got) == 1
    assert got[0][1] == pytest.approx(m.spec.spare_grant_latency)


def test_replacement_waits_for_release():
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(4), RngRegistry(0))
    alloc = m.rm.allocate(4)  # pool empty
    got = []

    def asker():
        node = yield m.rm.request_replacement()
        got.append(sim.now)

    sim.spawn(asker())

    def releaser():
        yield sim.timeout(10.0)
        alloc.release()

    sim.spawn(releaser())
    sim.run()
    assert got and got[0] == pytest.approx(10.0 + m.spec.spare_grant_latency)


def test_release_returns_nodes_and_is_idempotent():
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(6), RngRegistry(0))
    alloc = m.rm.allocate(4, num_spares=1)
    assert m.rm.idle_count == 1
    alloc.release()
    alloc.release()
    assert m.rm.idle_count == 6


def test_dead_nodes_not_returned_to_pool():
    sim = Simulator()
    m = Machine(sim, SIERRA.with_nodes(4), RngRegistry(0))
    alloc = m.rm.allocate(4)
    alloc.nodes[0].crash()
    alloc.release()
    assert m.rm.idle_count == 3
