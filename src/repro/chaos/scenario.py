"""Declarative fault-injection scenarios: the chaos DSL.

A :class:`Scenario` is a named list of :class:`Rule` s, each pairing a
*trigger* (when) with an *action* (what):

triggers
    :class:`AtTime` -- a fixed simulated time;
    :class:`OnEvent` -- the ``count``-th trace event matching a name
    (and optional predicate), plus an optional extra ``delay`` -- this
    is how a kill lands exactly at ``ckpt.encode.begin`` or
    ``recovery.begin``;
    :class:`RandomTimes` -- ``k`` firings with exponential spacing
    drawn from the engine's seeded RNG stream, all drawn at ``arm``
    (``spare-exhaustion``'s schedule depends on that draw order, so
    folding it into ``Poisson`` would change the model);
    :class:`Poisson` -- a renewal process: a firing every Exp(``mtbf``)
    seconds until :meth:`ChaosEngine.disarm`, each gap drawn after the
    previous firing's victim (Fig 15's MTBF).

actions
    :class:`KillSlot` / :class:`KillRandomSlot` -- crash whichever node
    currently holds a job slot (replacements included);
    :class:`KillRandomNode` -- crash a uniformly drawn machine node,
    busy or idle (a machine engine's one action);
    :class:`KillRank` -- kill one rank's *process*, leaving its node up
    (exercises the fmirun.task sibling-kill / EXIT_FAILURE path);
    :class:`DrainSlot` -- gracefully vacate a slot (Section III-A).

gray-failure actions (nothing dies; see DESIGN.md)
    :class:`Partition` -- cut the fabric into slot groups (in-flight
    cross-cut messages stall or drop), healed after ``heal_after``;
    :class:`Omission` -- attach a seeded per-link drop/duplicate/delay
    model to the job's transport, detached after ``duration``;
    :class:`LimpSlot` -- degrade one slot's NIC bandwidth and latency,
    restored after ``duration``.

The :class:`ChaosEngine` arms a scenario against a machine and the
jobs it may target, refusing at ``arm`` any rule that names a slot,
rank or tenant the jobs lack, targets a job on an engine with none,
draws randomness on an engine without an rng, or triggers on events
with no attached tracer.  Every fault injected into a run enters here,
except the two arrival processes of :mod:`repro.cluster.failures`.
Every action fires from the event heap (a timeout callback), never
from inside a tracer subscriber: the trace event that triggers a kill is
frequently emitted by the very generator the kill would close, and a
generator cannot be closed from its own frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.cluster.failures import _Injector
from repro.cluster.network import partition_components
from repro.cluster.node import check_limp_factors
from repro.net.faults import LinkFaultModel, check_link_faults

__all__ = [
    "AtTime", "OnEvent", "RandomTimes", "Poisson",
    "KillSlot", "KillRandomSlot", "KillRandomNode", "KillRank", "DrainSlot",
    "KillTenantSlot",
    "Partition", "Omission", "LimpSlot",
    "Rule", "Scenario", "ChaosEngine",
]


# ---------------------------------------------------------------- triggers
@dataclass(frozen=True)
class AtTime:
    """Fire at a fixed simulated time (clamped to now if in the past)."""

    t: float

    def __post_init__(self) -> None:
        # max(0.0, nan) is 0.0: a NaN time would fire at once.
        if math.isnan(self.t):
            raise ValueError("AtTime needs a time, got NaN")


@dataclass(frozen=True)
class OnEvent:
    """Fire ``delay`` seconds after the ``count``-th trace event whose
    name equals ``name``."""

    name: str
    count: int = 1
    delay: float = 0.0

    def __post_init__(self) -> None:
        if not self.count >= 1:
            raise ValueError(f"OnEvent count must be >= 1, got {self.count!r}")
        _check_duration("OnEvent", "delay", self.delay)


@dataclass(frozen=True)
class RandomTimes:
    """Fire ``k`` times, with Exp(``mean_spacing``) gaps drawn from the
    engine's seeded RNG stream, starting at ``start``."""

    k: int
    mean_spacing: float
    start: float = 0.0

    def __post_init__(self) -> None:
        # a NaN start or spacing made every firing land at t = 0
        if not (self.k >= 0 and math.isfinite(self.start)
                and math.isfinite(self.mean_spacing) and self.mean_spacing > 0):
            raise ValueError(
                f"RandomTimes needs k >= 0, a finite start and a finite "
                f"mean_spacing > 0, got k={self.k!r}, start={self.start!r}, "
                f"mean_spacing={self.mean_spacing!r}"
            )


@dataclass(frozen=True)
class Poisson:
    """Fire Exp(``mtbf``) after arming, then Exp(``mtbf``) after each
    firing, until the engine is disarmed.  Each gap is drawn from the
    engine's RNG stream once the previous firing's action has drawn
    its victim, so on a stream of its own the ``(time, victim)``
    sequence is gap, victim, gap, victim, ..."""

    mtbf: float

    def __post_init__(self) -> None:
        if not 0 < self.mtbf < math.inf:
            raise ValueError(f"Poisson needs a finite mtbf > 0, "
                             f"got {self.mtbf!r}")


# A NaN, infinite or negative delay would reach ``sim.timeout`` only
# when the rule fires, mid-run: refuse it when the rule is built.
def _check_duration(owner: str, name: str, value: Optional[float]) -> None:
    if value is not None and not 0 <= value < math.inf:
        raise ValueError(f"{owner} {name} must be finite and >= 0, got {value!r}")


# A negative index would silently pick from the end of the slot list.
def _check_index(owner: str, name: str, value: int) -> None:
    if not value >= 0:
        raise ValueError(f"{owner} {name} must be >= 0, got {value!r}")


Trigger = Union[AtTime, OnEvent, RandomTimes, Poisson]


# ----------------------------------------------------------------- actions
@dataclass(frozen=True)
class KillSlot:
    """Crash the node currently holding job slot ``slot``."""

    slot: int

    def __post_init__(self) -> None:
        _check_index("KillSlot", "slot", self.slot)


@dataclass(frozen=True)
class KillRandomSlot:
    """Crash a uniformly random *live* slot (engine RNG stream)."""


@dataclass(frozen=True)
class KillRandomNode:
    """Crash ``machine.nodes[rng.integers(len(machine.nodes))]``, busy,
    idle or dead (a no-op); the one action a machine engine arms."""


@dataclass(frozen=True)
class KillRank:
    """Kill rank ``rank``'s process; its node stays up."""

    rank: int

    def __post_init__(self) -> None:
        _check_index("KillRank", "rank", self.rank)


@dataclass(frozen=True)
class DrainSlot:
    """Gracefully vacate slot ``slot`` (maintenance drain)."""

    slot: int

    def __post_init__(self) -> None:
        _check_index("DrainSlot", "slot", self.slot)


@dataclass(frozen=True)
class KillTenantSlot:
    """Crash the node currently holding slot ``slot`` of the
    ``tenant``-th job (multi-tenant engines only).  The record and the
    ``chaos.inject`` trace event carry the victim's ``job_id``, so the
    tenant-isolation invariant can tell targeted tenants from
    bystanders."""

    tenant: int
    slot: int

    def __post_init__(self) -> None:
        _check_index("KillTenantSlot", "tenant", self.tenant)
        _check_index("KillTenantSlot", "slot", self.slot)


@dataclass(frozen=True)
class Partition:
    """Split the fabric into components of job *slots*.

    ``groups`` lists slot indices per component (slots map to their
    current nodes at fire time; unlisted nodes -- spares, the RM pool
    -- join component 0).  Cross-cut in-flight messages are stalled
    until heal (``mode="stall"``) or dropped-and-retransmitted
    (``mode="drop"``); overlay connections across the cut raise
    disconnect events with a ``partition:`` reason on *both* (live)
    ends.  ``heal_after`` schedules the heal; None leaves the cut for
    the rest of the run.  A slot may sit in one group only.
    """

    groups: Tuple[Tuple[int, ...], ...]
    heal_after: Optional[float] = None
    mode: str = "stall"

    def __post_init__(self) -> None:
        if self.mode not in ("stall", "drop"):
            raise ValueError(
                f"Partition mode must be 'stall' or 'drop', got {self.mode!r}"
            )
        _check_duration("Partition", "heal_after", self.heal_after)
        partition_components(self.groups)


@dataclass(frozen=True)
class Omission:
    """Attach a seeded lossy-link model to the job's transport.

    Per message: each transmission attempt is lost with ``drop_p``
    (costing one ``rto`` retransmission each), the receiver sees a
    duplicate with ``dup_p``, and extra Exp(``delay_mean``) queueing
    delay strikes with ``delay_p``.  ``duration`` auto-detaches the
    model after that many seconds; None keeps it for the whole run.
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    delay_p: float = 0.0
    rto: float = 0.05
    delay_mean: float = 0.01
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_duration("Omission", "duration", self.duration)
        check_link_faults(self.drop_p, self.dup_p, self.delay_p,
                          rto=self.rto, delay_mean=self.delay_mean)


@dataclass(frozen=True)
class LimpSlot:
    """Degrade the network path of the node holding ``slot``: NIC
    bandwidth divided by ``bw_factor``, per-message latencies times
    ``latency_factor``.  ``duration`` auto-reverts; None limps for the
    rest of the run."""

    slot: int
    bw_factor: float = 8.0
    latency_factor: float = 4.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_index("LimpSlot", "slot", self.slot)
        _check_duration("LimpSlot", "duration", self.duration)
        check_limp_factors(self.bw_factor, self.latency_factor)


Action = Union[
    KillSlot, KillRandomSlot, KillRandomNode, KillRank, DrainSlot,
    KillTenantSlot,
    Partition, Omission, LimpSlot,
]


@dataclass(frozen=True)
class Rule:
    trigger: Trigger
    action: Action


@dataclass
class Scenario:
    """A named fault schedule: what to break, and when."""

    name: str
    rules: List[Rule] = field(default_factory=list)


# ------------------------------------------------------------------ engine
#: the triggers and actions that draw from the engine's rng
_DRAWS = (RandomTimes, Poisson, KillRandomSlot, KillRandomNode, Omission)


class ChaosEngine(_Injector):
    """Arms :class:`Scenario` s against a machine and the (survivable)
    jobs on it.

    The engine is itself an armed injector from the first :meth:`arm`
    to :meth:`disarm`: rules fire from bare timers at arbitrary points,
    so every collective in a chaos run keeps per-hop fidelity.  A
    disarmed engine fires nothing more and cannot be armed again.

    ``jobs`` are the tenants job-scoped actions may target; the first
    is the one slot, rank and gray-failure actions name.  With no jobs
    the engine is a machine engine, and only :class:`KillRandomNode`
    arms.  ``rng`` is the seeded stream every rule in ``_DRAWS`` draws
    from; scenarios without one can omit it.  ``injected`` records
    ``(time, description)`` for every action fired -- the soak driver
    prints it when replaying a failing seed.
    """

    def __init__(self, machine, rng=None, jobs=()):
        self.machine = machine
        self.sim = machine.sim
        #: every tenant the engine may target
        self.jobs = list(jobs)
        self.job = self.jobs[0] if self.jobs else None
        self.rng = rng
        self.injected: List[Tuple[float, str]] = []
        self._subscribed: List[Tuple[str, Callable]] = []
        self._disarmed = False

    # -- arming -----------------------------------------------------------
    def arm(self, scenario: Scenario) -> None:
        """Arm every rule of ``scenario``; a rule the engine cannot
        serve is refused before any rule is armed (every count it is
        checked against is fixed when the job is built)."""
        if self._disarmed:
            raise RuntimeError("a disarmed ChaosEngine cannot be armed again")
        for rule in scenario.rules:
            self._check_targets(rule)
        if not self._armed:
            self.start()
        for rule in scenario.rules:
            self._arm_rule(rule)

    def _check_targets(self, rule: Rule) -> None:
        trig, action = rule.trigger, rule.action
        for part in (trig, action):
            if self.rng is None and isinstance(part, _DRAWS):
                raise ValueError(f"{part!r} draws from the engine rng; "
                                 f"the engine has none")
        if isinstance(trig, OnEvent) and not self.sim.tracer.enabled:
            raise ValueError(f"{trig!r} needs an attached Tracer "
                             f"(NULL_TRACER records nothing to trigger on)")
        if isinstance(action, KillRandomNode):
            return
        if self.job is None:
            raise ValueError(f"{action!r} targets a job; the engine has none")
        job = self.job
        if isinstance(action, KillTenantSlot):
            if action.tenant >= len(self.jobs):
                raise ValueError(
                    f"{action!r}: the engine has {len(self.jobs)} tenant(s)"
                )
            job = self.jobs[action.tenant]
        if isinstance(action, KillRank):
            named, limit, what = [action.rank], job.num_ranks, "rank(s)"
        elif isinstance(action, Partition):
            named = [slot for group in action.groups for slot in group]
            limit, what = job.fmirun.num_slots, "slot(s)"
        elif isinstance(action, (KillSlot, DrainSlot, LimpSlot, KillTenantSlot)):
            named, limit, what = [action.slot], job.fmirun.num_slots, "slot(s)"
        else:
            return
        if not all(0 <= index < limit for index in named):
            raise ValueError(f"{action!r}: the job has {limit} {what}")

    def _arm_rule(self, rule: Rule) -> None:
        trig, action = rule.trigger, rule.action
        if isinstance(trig, AtTime):
            self._at(max(0.0, trig.t - self.sim.now), action)
        elif isinstance(trig, RandomTimes):
            t = trig.start
            for _ in range(trig.k):
                t += float(self.rng.exponential(trig.mean_spacing))
                self._at(max(0.0, t - self.sim.now), action)
        elif isinstance(trig, Poisson):
            self._renew(trig, action)
        elif isinstance(trig, OnEvent):
            self._on_event(trig, action)
        else:
            raise TypeError(f"unknown trigger {trig!r}")

    def _at(self, delay: float, action: Action) -> None:
        timer = self.sim.timeout(delay)
        timer.callbacks.append(lambda _e: self._fire(action))

    def _renew(self, trig: Poisson, action: Action) -> None:
        """Schedule the next firing of a :class:`Poisson` rule."""
        timer = self.sim.timeout(float(self.rng.exponential(trig.mtbf)))

        def fire(_e) -> None:
            if self._armed:  # a disarmed chain ends here
                self._fire(action)
                self._renew(trig, action)

        timer.callbacks.append(fire)

    def _on_event(self, trig: OnEvent, action: Action) -> None:
        """Fire ``trig.delay`` after the ``trig.count``-th match, from
        a (possibly zero-delay) timer: see the module docstring."""
        seen = 0

        def match(_ev) -> None:
            nonlocal seen
            seen += 1
            if seen == trig.count:
                self.sim.tracer.unsubscribe(trig.name, match)
                self._at(trig.delay, action)

        self.sim.tracer.subscribe(trig.name, match)
        self._subscribed.append((trig.name, match))

    def disarm(self) -> None:
        """Silence every pending rule and lift the engine's veto."""
        for name, match in self._subscribed:
            self.sim.tracer.unsubscribe(name, match)
        self._subscribed.clear()
        self._disarmed = True
        self.stop()

    # -- firing -----------------------------------------------------------
    def _record(self, desc: str, job_id=None) -> None:
        self.injected.append((self.sim.now, desc))
        if self.sim.tracer.enabled:
            tag = {} if job_id is None else {"job": job_id}
            self.sim.tracer.instant("chaos.inject", "failure", action=desc, **tag)

    def _crash(self, node, what: str, job_id=None) -> None:
        """Crash ``node``; a dead one is recorded as a no-op."""
        if not node.alive:
            self._record(f"kill {what}: already dead", job_id)
            return
        self._record(f"kill {what} (node {node.id})", job_id)
        node.crash(f"chaos: {what}")

    def _fire(self, action: Action) -> None:
        if not self._armed:
            return
        if isinstance(action, KillRandomNode):
            nodes = self.machine.nodes
            node = nodes[int(self.rng.integers(len(nodes)))]
            self._crash(node, "random node")
            return
        job = self.job
        if isinstance(action, KillTenantSlot):
            # Tenant-scoped: only the *target* job finishing disables
            # the action -- the engine's primary job may already be done
            # while other tenants still run.
            victim_job = self.jobs[action.tenant]
            if not victim_job.finished:
                self._crash(victim_job.fmirun.node_slots[action.slot],
                            f"tenant {action.tenant} slot {action.slot}",
                            victim_job.job_id)
            return
        if job.finished:
            return
        if isinstance(action, KillRandomSlot):
            live = [
                slot for slot, node in enumerate(job.fmirun.node_slots)
                if node.alive
            ]
            if not live:
                self._record("kill-random-slot: no live slots")
                return
            action = KillSlot(live[int(self.rng.integers(len(live)))])
        if isinstance(action, KillSlot):
            node = job.fmirun.node_slots[action.slot]
            self._crash(node, f"slot {action.slot}")
        elif isinstance(action, KillRank):
            rproc = job.rank_procs.get(action.rank)
            if rproc is None or not rproc.proc.alive:
                self._record(f"kill rank {action.rank}: already dead")
                return
            self._record(f"kill rank {action.rank} (process only)")
            rproc.proc.kill(cause=f"chaos: rank {action.rank}")
        elif isinstance(action, DrainSlot):
            try:
                job.fmirun.drain_slot(action.slot)
            except RuntimeError as exc:
                self._record(f"drain slot {action.slot}: refused ({exc})")
                return
            self._record(f"drain slot {action.slot}")
        elif isinstance(action, Partition):
            fabric = job.machine.fabric
            if fabric.partitioned:
                self._record("partition: refused (already partitioned)")
                return
            node_groups = [
                sorted({job.fmirun.node_slots[s].id for s in group})
                for group in action.groups
            ]
            job.transport.partition_mode = action.mode
            tag = fabric.partition(node_groups)
            desc = f"partition {tag} groups={node_groups} mode={action.mode}"
            if action.heal_after is not None:
                desc += f" heal_after={action.heal_after:g}"
                timer = self.sim.timeout(action.heal_after)
                timer.callbacks.append(lambda _e: self._heal(tag))
            self._record(desc)
        elif isinstance(action, Omission):
            model = LinkFaultModel(
                self.rng, drop_p=action.drop_p, dup_p=action.dup_p,
                delay_p=action.delay_p, rto=action.rto,
                delay_mean=action.delay_mean,
            )
            job.transport.set_faults(model)
            desc = f"omission on ({model.describe()})"
            if action.duration is not None:
                desc += f" duration={action.duration:g}"
                timer = self.sim.timeout(action.duration)
                timer.callbacks.append(lambda _e: self._omission_off(model))
            self._record(desc)
        elif isinstance(action, LimpSlot):
            node = job.fmirun.node_slots[action.slot]
            if not node.alive:
                self._record(f"limp slot {action.slot}: refused (node dead)")
                return
            node.set_limp(action.bw_factor, action.latency_factor)
            desc = (
                f"limp slot {action.slot} (node {node.id}) "
                f"bw/{action.bw_factor:g} lat*{action.latency_factor:g}"
            )
            if action.duration is not None:
                desc += f" duration={action.duration:g}"
                timer = self.sim.timeout(action.duration)
                timer.callbacks.append(lambda _e: self._unlimp(node))
            self._record(desc)
        else:
            raise TypeError(f"unknown action {action!r}")

    # -- deferred revert helpers (auto-heal / auto-detach / auto-unlimp) ----
    def _heal(self, tag: str) -> None:
        fabric = self.job.machine.fabric
        if self.job.finished or fabric.partition_tag != tag:
            return
        self._record(f"heal partition {tag} (scheduled)")
        fabric.heal()

    def _omission_off(self, model: LinkFaultModel) -> None:
        if self.job.finished or self.job.transport.faults is not model:
            return
        self.job.transport.clear_faults()
        self._record("omission off (scheduled)")

    def _unlimp(self, node) -> None:
        if self.job.finished or not node.alive or not node.limping:
            return
        node.clear_limp()
        self._record(f"unlimp node {node.id} (scheduled)")
