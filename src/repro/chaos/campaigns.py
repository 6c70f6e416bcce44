"""The canned campaign library: the corner matrix of recovery.

Each campaign is one adversarial failure *class*; the seed parametrises
victim choice and timing inside that class, so a seed sweep explores
many schedules of the same shape.  All campaigns run the verifiable
:func:`~repro.apps.synthetic.bsp_app` recurrence, so the invariant
checker can demand the surviving run's answer be bit-equal to the
failure-free one.

* ``mid-checkpoint-kill`` -- a node dies exactly when an XOR encode
  starts (the ``ckpt.encode.begin`` marker), leaving the group with a
  torn dataset that versioning must roll back.
* ``kill-during-recovery`` -- a second node dies inside the recovery
  window opened by the first (at ``recovery.begin`` + jitter), nesting
  epochs.
* ``double-kill-xor-group`` -- both nodes of one XOR group die within a
  tiny gap: beyond level-1 repair, so the multilevel fallback must pull
  the level-2 dataset from the PFS.
* ``spare-exhaustion`` -- more kills than pre-reserved spares; fmirun
  must fall through to on-demand resource-manager grants.
* ``drain-then-fail`` -- a healthy node is drained (and returned to the
  pool), then another node fails; the recovery may reclaim the drained
  node.

Gray-failure campaigns (nothing needs to die for these to hurt):

* ``partition-heal`` -- the fabric splits into two halves, stays cut
  for a while, then heals; the detector must *suspect* but never act
  (zero recoveries), and the overlay must repair itself.
* ``partition-kill-mid-heal`` -- a real node death lands inside the
  partition window; exactly that one failure may drive recovery, and
  the answer must still be bit-equal.
* ``flapping-partition`` -- several short cuts in a row, some shorter
  than the ibverbs close delay, so disconnect events land after their
  partition already healed.
* ``lossy-links`` -- a seeded drop/duplicate/delay model afflicts every
  link for the whole run, plus one mid-run node kill.
* ``limping-node`` -- one node limps (degraded NIC), a *different* node
  dies; the limping node must not be falsely suspected.

Message-logging (partial rollback) campaigns -- the same kills, run on
``recovery="logged"``; survivors must keep computing while only the
restarted slot rolls back, and the answer must stay bit-equal:

* ``logged-single-kill`` -- one random slot dies mid-run.
* ``logged-sequential-kills`` -- a second slot dies after the first
  recovery's log replay completed, exercising log GC and re-logging
  across epochs.

Replication (failover) campaigns -- ``recovery="replicated"`` backs
every rank with ``replication_degree`` physical copies; a single death
must be absorbed with *zero* rollback (the ``zero-rollback``
invariant), and only losing every copy of a slot may fall back to the
coordinated restore:

* ``replicated-single-kill`` -- one physical slot (a lead or a
  replica) dies; a lead death promotes its replica in place, a replica
  death only triggers a background re-arm.
* ``replicated-kill-both-copies`` -- both copies of one virtual slot
  die within a tiny gap, wiping the rank's last synced copy; the plane
  must fall back gracefully and the answer must stay bit-equal.

Multi-tenant campaign (service mode: several jobs share one cluster):

* ``multi-tenant-kill`` -- three co-resident FMI jobs on one machine;
  kills land in two of them within a small window.  Both victims must
  recover independently (their own epochs, bit-equal answers) and the
  bystander must never leave epoch 0 -- the ``tenant-isolation``
  invariant.

The builders stay hand-written: they define the benchmark's
``chaos_sweep`` workload, so turning them into rows of one strategy
over the DSL (ROADMAP item 16) waits for after ROADMAP item 21.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

import numpy as np

from repro.chaos.scenario import (
    AtTime,
    DrainSlot,
    KillRandomSlot,
    KillSlot,
    KillTenantSlot,
    LimpSlot,
    Omission,
    OnEvent,
    Partition,
    RandomTimes,
    Rule,
)
from repro.fmi.config import FmiConfig

__all__ = [
    "Campaign", "CAMPAIGNS", "GRAY_CAMPAIGNS", "LOGGED_CAMPAIGNS",
    "REPLICATED_CAMPAIGNS", "BASE_CONFIG",
]

RulesFn = Callable[[np.random.Generator, "Campaign"], List[Rule]]


#: every campaign's base configuration: a checkpoint per FMI_Loop call,
#: four-node XOR groups, two reserved spares
BASE_CONFIG = FmiConfig(interval=1, xor_group_size=4, spare_nodes=2)


@dataclass(frozen=True)
class Campaign:
    """One failure class: job geometry + config + seeded rule builder.

    An illegal geometry x config is refused at construction, by the
    rule ``FmiJob`` applies (:meth:`FmiConfig.check_job`)."""

    name: str
    summary: str
    rules: RulesFn
    num_ranks: int = 8
    ppn: int = 2
    iterations: int = 10
    work_s: float = 0.25
    halo_bytes: float = 1e4
    #: the FMI configuration every tenant's job runs with
    config: FmiConfig = BASE_CONFIG
    #: idle nodes beyond job + spares (the RM's on-demand pool)
    pool_extra: int = 2
    #: co-resident copies of the job on one shared cluster; > 1 turns
    #: on the multi-tenant runner path and the tenant-isolation check
    tenants: int = 1

    def __post_init__(self) -> None:
        # One tenant's allocation footprint (compute tiers + spares);
        # replicated jobs allocate one node tier per copy: physical slot
        # s hosts copy s // num_slots of virtual slot s % num_slots.
        object.__setattr__(self, "nodes_per_tenant", sum(
            self.config.check_job(self.num_ranks, self.ppn)
        ))

    @property
    def num_slots(self) -> int:
        """Virtual slots (node-sized tasks) of one copy of the job."""
        return self.num_ranks // self.ppn

    @property
    def total_nodes(self) -> int:
        return self.nodes_per_tenant * self.tenants + self.pool_extra


# --------------------------------------------------------------- rule builders
def _mid_checkpoint_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # Every checkpoint round emits one encode.begin per rank; picking
    # the n-th marker lands the kill inside one of the first few
    # checkpoints, with sub-encode jitter.
    nth = int(rng.integers(1, 3 * c.num_ranks + 1))
    slot = int(rng.integers(c.num_slots))
    delay = float(rng.uniform(0.0, 0.005))
    return [Rule(OnEvent("ckpt.encode.begin", count=nth, delay=delay),
                 KillSlot(slot))]


def _kill_during_recovery_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    first = int(rng.integers(c.num_slots))
    second = int((first + 1 + rng.integers(c.num_slots - 1)) % c.num_slots)
    t0 = float(rng.uniform(1.5, 3.5))
    # delay 0 coalesces into one epoch; > 0 nests a second recovery
    # inside the H1/H2 window of the first.
    delay = float(rng.choice([0.0, 0.05, 0.2, 0.5]))
    return [
        Rule(AtTime(t0), KillSlot(first)),
        Rule(OnEvent("recovery.begin", count=1, delay=delay), KillSlot(second)),
    ]


def _double_kill_xor_group_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # Group 0 (ranks 0..3 at ppn=2) lives on slots 0 and 1: killing
    # both wipes the whole group -- beyond XOR repair.
    t = float(rng.uniform(2.0, 4.0))
    gap = float(rng.choice([0.0, 0.02, 0.2]))
    return [
        Rule(AtTime(t), KillSlot(0)),
        Rule(AtTime(t + gap), KillSlot(1)),
    ]


def _spare_exhaustion_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    spacing = float(rng.uniform(1.5, 2.5))
    return [Rule(RandomTimes(k=3, mean_spacing=spacing, start=1.5),
                 KillRandomSlot())]


def _drain_then_fail_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    drained = int(rng.integers(c.num_slots))
    victim = int(rng.integers(c.num_slots))
    t1 = float(rng.uniform(1.0, 2.0))
    t2 = t1 + float(rng.uniform(1.0, 2.0))
    return [
        Rule(AtTime(t1), DrainSlot(drained)),
        Rule(AtTime(t2), KillSlot(victim)),
    ]


def _halves(c: Campaign):
    """Split the slots into two contiguous halves (the canonical cut)."""
    mid = c.num_slots // 2
    return (tuple(range(mid)), tuple(range(mid, c.num_slots)))


def _partition_heal_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    t0 = float(rng.uniform(1.5, 3.0))
    dur = float(rng.uniform(0.5, 1.5))
    mode = str(rng.choice(["stall", "drop"]))
    return [Rule(AtTime(t0), Partition(_halves(c), heal_after=dur, mode=mode))]


def _partition_kill_mid_heal_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # The acceptance scenario: cut the cluster, kill a node while the
    # cut is open, heal.  The kill's recovery has to rendezvous through
    # the (partition-immune) management network, resume on a split
    # fabric, and the heal must stitch the overlay back together.
    t0 = float(rng.uniform(1.5, 2.5))
    dur = float(rng.uniform(0.8, 1.5))
    kill_at = t0 + float(rng.uniform(0.1, 0.9)) * dur
    victim = int(rng.integers(c.num_slots))
    mode = str(rng.choice(["stall", "drop"]))
    return [
        Rule(AtTime(t0), Partition(_halves(c), heal_after=dur, mode=mode)),
        Rule(AtTime(kill_at), KillSlot(victim)),
    ]


def _flapping_partition_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # Several short cuts; some shorter than the 0.2 s ibverbs close
    # delay, so the disconnect events arrive after the heal -- the
    # flap the suspicion machinery has to shrug off.
    rules: List[Rule] = []
    t = float(rng.uniform(1.0, 2.0))
    for _ in range(3):
        dur = float(rng.uniform(0.05, 0.4))
        rules.append(Rule(AtTime(t), Partition(_halves(c), heal_after=dur)))
        t += dur + float(rng.uniform(0.4, 0.9))
    return rules


def _lossy_links_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    drop_p = float(rng.uniform(0.02, 0.08))
    dup_p = float(rng.uniform(0.01, 0.05))
    delay_p = float(rng.uniform(0.02, 0.08))
    victim = int(rng.integers(c.num_slots))
    kill_at = float(rng.uniform(2.0, 4.0))
    return [
        Rule(AtTime(0.5), Omission(drop_p=drop_p, dup_p=dup_p, delay_p=delay_p)),
        Rule(AtTime(kill_at), KillSlot(victim)),
    ]


def _limping_node_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    limper = int(rng.integers(c.num_slots))
    victim = int((limper + 1 + rng.integers(c.num_slots - 1)) % c.num_slots)
    t0 = float(rng.uniform(1.0, 2.0))
    dur = float(rng.uniform(1.0, 3.0))
    bw = float(rng.choice([4.0, 16.0, 64.0]))
    lat = float(rng.choice([2.0, 8.0]))
    kill_at = t0 + float(rng.uniform(0.2, 0.8)) * dur
    return [
        Rule(AtTime(t0), LimpSlot(limper, bw_factor=bw, latency_factor=lat,
                                  duration=dur)),
        Rule(AtTime(kill_at), KillSlot(victim)),
    ]


def _logged_single_kill_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    t0 = float(rng.uniform(1.5, 3.5))
    return [Rule(AtTime(t0), KillRandomSlot())]


def _logged_sequential_kills_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # The second kill waits for the first recovery's replay to finish
    # (one mlog.replay.done per restarted rank), so the restarted
    # slot's fresh log entries and the survivors' GC'd logs both feed
    # the second partial rollback.
    t0 = float(rng.uniform(1.5, 2.5))
    delay = float(rng.uniform(0.1, 0.8))
    return [
        Rule(AtTime(t0), KillRandomSlot()),
        Rule(OnEvent("mlog.replay.done", count=c.ppn, delay=delay),
             KillRandomSlot()),
    ]


def _multi_tenant_kill_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # Kill one compute slot in each of the first two tenants within a
    # small window; the remaining tenant(s) are bystanders.  Both
    # victims must recover through their own epochs with no detector
    # split-brain, and the bystanders must never leave epoch 0.
    t0 = float(rng.uniform(1.5, 3.0))
    gap = float(rng.choice([0.0, 0.05, 0.3]))
    s0 = int(rng.integers(c.num_slots))
    s1 = int(rng.integers(c.num_slots))
    return [
        Rule(AtTime(t0), KillTenantSlot(0, s0)),
        Rule(AtTime(t0 + gap), KillTenantSlot(1, s1)),
    ]


def _replicated_single_kill_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # Any *physical* slot: the copy-0 tier holds the boot-time leads
    # (killing one forces an in-place promotion), the upper tiers hold
    # replicas (killing one only triggers a background re-arm).  Either
    # way the zero-rollback invariant must hold.
    slot = int(rng.integers(c.num_slots * c.config.num_copies))
    t0 = float(rng.uniform(1.5, 3.5))
    return [Rule(AtTime(t0), KillSlot(slot))]


def _replicated_kill_both_copies_rules(rng: np.random.Generator, c: Campaign) -> List[Rule]:
    # Both copies of one virtual slot die within a tiny gap.  A gap
    # under FAILOVER_DELAY lands the second kill inside the promotion
    # window; a larger gap kills the freshly promoted lead before its
    # standby re-armed.  Either way no synced copy remains, so the
    # plane must fall back to the coordinated restore.
    vslot = int(rng.integers(c.num_slots))
    # Upper bound stays inside the failure-free makespan (~3 s) so the
    # double kill always actually lands.
    t = float(rng.uniform(1.5, 2.5))
    gap = float(rng.choice([0.02, 0.05, 0.2]))
    return [
        Rule(AtTime(t), KillSlot(vslot)),
        Rule(AtTime(t + gap), KillSlot(vslot + c.num_slots)),
    ]


# ------------------------------------------------------------------ registry
#: the level-2 (PFS) tier behind every campaign whose kills can wipe a
#: whole XOR group
_MULTILEVEL = replace(BASE_CONFIG, level2_every=1)

CAMPAIGNS: Dict[str, Campaign] = {
    c.name: c
    for c in [
        Campaign(
            "mid-checkpoint-kill",
            "node dies while an XOR encode is in flight",
            _mid_checkpoint_rules,
        ),
        Campaign(
            "kill-during-recovery",
            "second failure lands inside the recovery window",
            _kill_during_recovery_rules,
            pool_extra=3,
            # At ppn=2 a 4-rank XOR group spans two slots, so the two
            # kills can wipe a whole group; level 2 makes that survivable.
            config=_MULTILEVEL,
        ),
        Campaign(
            "double-kill-xor-group",
            "both nodes of one XOR group die; level-2 fallback",
            _double_kill_xor_group_rules,
            config=_MULTILEVEL,
            pool_extra=3,
        ),
        Campaign(
            "spare-exhaustion",
            "more kills than pre-reserved spares; on-demand RM grants",
            _spare_exhaustion_rules,
            pool_extra=4,
            config=replace(_MULTILEVEL, spare_nodes=1),
        ),
        Campaign(
            "drain-then-fail",
            "graceful drain, then a real failure",
            _drain_then_fail_rules,
            pool_extra=3,
            config=replace(_MULTILEVEL, spare_nodes=1),
        ),
        Campaign(
            "partition-heal",
            "fabric splits in half, then heals; nobody must die",
            _partition_heal_rules,
        ),
        Campaign(
            "partition-kill-mid-heal",
            "node dies while the fabric is partitioned",
            _partition_kill_mid_heal_rules,
            pool_extra=3,
            config=_MULTILEVEL,
        ),
        Campaign(
            "flapping-partition",
            "repeated short cuts, some under the ibverbs close delay",
            _flapping_partition_rules,
        ),
        Campaign(
            "lossy-links",
            "seeded drop/dup/delay on every link, plus one node kill",
            _lossy_links_rules,
            pool_extra=3,
            config=_MULTILEVEL,
        ),
        Campaign(
            "limping-node",
            "one node limps while a different node dies",
            _limping_node_rules,
            pool_extra=3,
            config=_MULTILEVEL,
        ),
        Campaign(
            "logged-single-kill",
            "partial rollback: one slot dies, survivors replay its logs",
            _logged_single_kill_rules,
            config=replace(BASE_CONFIG, recovery="logged"),
        ),
        Campaign(
            "logged-sequential-kills",
            "partial rollback: second kill after the first replay",
            _logged_sequential_kills_rules,
            pool_extra=3,
            config=replace(BASE_CONFIG, recovery="logged"),
        ),
        Campaign(
            "multi-tenant-kill",
            "kills land in two co-resident tenants; both recover alone",
            _multi_tenant_kill_rules,
            tenants=3,
            pool_extra=2,
            config=replace(_MULTILEVEL, spare_nodes=1),
        ),
        Campaign(
            "replicated-single-kill",
            "failover: one copy dies, nobody rolls back",
            _replicated_single_kill_rules,
            pool_extra=3,
            config=replace(BASE_CONFIG, recovery="replicated"),
        ),
        Campaign(
            "replicated-kill-both-copies",
            "both copies of one slot die; graceful fallback to rollback",
            _replicated_kill_both_copies_rules,
            pool_extra=3,
            config=replace(BASE_CONFIG, recovery="replicated"),
        ),
    ]
}

#: names of the gray-failure campaigns (the CI gray-soak job's set)
GRAY_CAMPAIGNS: List[str] = [
    "partition-heal",
    "partition-kill-mid-heal",
    "flapping-partition",
    "lossy-links",
    "limping-node",
]

#: names of the message-logging campaigns (half the CI recovery-planes set)
LOGGED_CAMPAIGNS: List[str] = [
    "logged-single-kill",
    "logged-sequential-kills",
]

#: names of the replication campaigns (the other half)
REPLICATED_CAMPAIGNS: List[str] = [
    "replicated-single-kill",
    "replicated-kill-both-copies",
]
