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
    drawn from the engine's seeded RNG stream.

actions
    :class:`KillSlot` / :class:`KillRandomSlot` -- crash whichever node
    currently holds a job slot (replacements included);
    :class:`KillRank` -- kill one rank's *process*, leaving its node up
    (exercises the fmirun.task sibling-kill / EXIT_FAILURE path);
    :class:`DrainSlot` -- gracefully vacate a slot (Section III-A).

gray-failure actions (nothing dies; see DESIGN.md)
    :class:`Partition` / :class:`HealPartition` -- cut the fabric into
    slot groups (in-flight cross-cut messages stall or drop), then heal;
    :class:`Omission` / :class:`OmissionOff` -- attach/detach a seeded
    per-link drop/duplicate/delay model to the job's transport;
    :class:`LimpSlot` -- degrade one slot's NIC bandwidth and latency
    for a ``duration``.

The :class:`ChaosEngine` arms a scenario against a launched job,
refusing any rule that names a slot, rank or tenant the job lacks.
Every action fires from the event heap (a timeout callback), never
from inside a tracer subscriber: the trace event that triggers a kill is
frequently emitted by the very generator the kill would close, and a
generator cannot be closed from its own frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from repro.cluster.failures import EventInjector, _Injector
from repro.net.faults import LinkFaultModel

__all__ = [
    "AtTime", "OnEvent", "RandomTimes",
    "KillSlot", "KillRandomSlot", "KillRank", "DrainSlot",
    "KillTenantSlot",
    "Partition", "HealPartition", "Omission", "OmissionOff",
    "LimpSlot",
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
    name equals ``name`` and for which ``where`` (if given) is true."""

    name: str
    count: int = 1
    delay: float = 0.0
    where: Optional[Callable[[object], bool]] = None

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


# A NaN, infinite or negative delay would reach ``sim.timeout`` only
# when the rule fires, mid-run: refuse it when the rule is built.
def _check_duration(owner: str, name: str, value: Optional[float]) -> None:
    if value is not None and not 0 <= value < math.inf:
        raise ValueError(f"{owner} {name} must be finite and >= 0, got {value!r}")


# A negative index would silently pick from the end of the slot list.
def _check_index(owner: str, name: str, value: int) -> None:
    if not value >= 0:
        raise ValueError(f"{owner} {name} must be >= 0, got {value!r}")


Trigger = Union[AtTime, OnEvent, RandomTimes]


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
    ends.  ``heal_after`` schedules the heal; None leaves the cut until
    an explicit :class:`HealPartition`.
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


@dataclass(frozen=True)
class HealPartition:
    """Heal the active partition (no-op when fully connected)."""


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


@dataclass(frozen=True)
class OmissionOff:
    """Detach the lossy-link model (in-flight faults still play out)."""


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


Action = Union[
    KillSlot, KillRandomSlot, KillRank, DrainSlot, KillTenantSlot,
    Partition, HealPartition, Omission, OmissionOff, LimpSlot,
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
class ChaosEngine(_Injector):
    """Arms a :class:`Scenario` against a (survivable) job.

    The engine is itself an armed injector from the first :meth:`arm`
    to :meth:`disarm`: rules fire from bare timers at arbitrary points,
    so every collective in a chaos run keeps per-hop fidelity.

    ``rng`` is the seeded stream used by :class:`RandomTimes` spacing
    and :class:`KillRandomSlot` victim selection; scenarios without
    either can omit it.  ``injected`` records ``(time, description)``
    for every action fired -- the soak driver prints it when replaying
    a failing seed.
    """

    def __init__(self, job, rng=None, jobs=None):
        self.job = job
        #: every tenant the engine may target; single-tenant runs have
        #: exactly ``[job]`` here
        self.jobs = list(jobs) if jobs is not None else [job]
        self.sim = job.sim
        self.rng = rng
        self.injected: List[Tuple[float, str]] = []
        self._injectors: List[EventInjector] = []

    # -- arming -----------------------------------------------------------
    def arm(self, scenario: Scenario) -> None:
        """Arm every rule of ``scenario``; a rule naming a slot, rank or
        tenant the jobs do not have is refused before any rule is armed
        (every such count is fixed when the job is built)."""
        for rule in scenario.rules:
            self._check_targets(rule.action)
        if not self._armed:
            self.start()
        for rule in scenario.rules:
            self._arm_rule(rule)

    def _check_targets(self, action: Action) -> None:
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
        trig = rule.trigger
        if isinstance(trig, AtTime):
            self._at(max(0.0, trig.t - self.sim.now), rule.action)
        elif isinstance(trig, RandomTimes):
            if self.rng is None:
                raise ValueError("RandomTimes triggers need an engine rng")
            t = trig.start
            for _ in range(trig.k):
                t += float(self.rng.exponential(trig.mean_spacing))
                self._at(max(0.0, t - self.sim.now), rule.action)
        elif isinstance(trig, OnEvent):
            injector = EventInjector(
                self.sim, trig.name,
                lambda action=rule.action: self._fire(action),
                trig.count, trig.delay, trig.where,
            )
            injector.start()
            self._injectors.append(injector)
        else:
            raise TypeError(f"unknown trigger {trig!r}")

    def _at(self, delay: float, action: Action) -> None:
        timer = self.sim.timeout(delay)
        timer.callbacks.append(lambda _e: self._fire(action))

    def disarm(self) -> None:
        for injector in self._injectors:
            injector.stop()
        self._injectors.clear()
        self.stop()

    # -- firing -----------------------------------------------------------
    def _record(self, desc: str, job_id=None) -> None:
        self.injected.append((self.sim.now, desc))
        if self.sim.tracer.enabled:
            if job_id is None:
                self.sim.tracer.instant("chaos.inject", "failure", action=desc)
            else:
                self.sim.tracer.instant(
                    "chaos.inject", "failure", action=desc, job=job_id
                )

    def _fire(self, action: Action) -> None:
        job = self.job
        if isinstance(action, KillTenantSlot):
            # Tenant-scoped: only the *target* job finishing disables
            # the action -- the engine's primary job may already be done
            # while other tenants still run.
            victim_job = self.jobs[action.tenant]
            if victim_job.finished:
                return
            node = victim_job.fmirun.node_slots[action.slot]
            if not node.alive:
                self._record(
                    f"kill tenant {action.tenant} slot {action.slot}: "
                    f"already dead",
                    job_id=victim_job.job_id,
                )
                return
            self._record(
                f"kill tenant {action.tenant} slot {action.slot} "
                f"(node {node.id})",
                job_id=victim_job.job_id,
            )
            node.crash(f"chaos: tenant {action.tenant} slot {action.slot}")
            return
        if job.finished:
            return
        if isinstance(action, KillRandomSlot):
            if self.rng is None:
                raise ValueError("KillRandomSlot needs an engine rng")
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
            if not node.alive:
                self._record(f"kill slot {action.slot}: already dead")
                return
            self._record(f"kill slot {action.slot} (node {node.id})")
            node.crash(f"chaos: slot {action.slot}")
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
        elif isinstance(action, HealPartition):
            fabric = job.machine.fabric
            if not fabric.partitioned:
                self._record("heal: no active partition")
                return
            tag = fabric.partition_tag
            self._record(f"heal partition {tag}")
            fabric.heal()
        elif isinstance(action, Omission):
            if self.rng is None:
                raise ValueError("Omission needs an engine rng")
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
        elif isinstance(action, OmissionOff):
            if job.transport.faults is None:
                self._record("omission off: no model attached")
                return
            job.transport.clear_faults()
            self._record("omission off")
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
