"""repro.chaos -- fault-injection campaigns for the survivable runtime.

A Jepsen-style adversarial-schedule harness on top of the simulator and
the observability layer:

* :mod:`~repro.chaos.scenario` -- the declarative DSL: triggers
  (fixed time, trace event, seeded random schedule, Poisson MTBF) x
  actions (kill slot/node/rank, drain, partition/heal, lossy links,
  limping nodes) armed by a :class:`ChaosEngine`;
* :mod:`~repro.chaos.campaigns` -- canned campaigns covering the
  corner matrix: crash faults (mid-checkpoint kill, kill-during-
  recovery, double kill in one XOR group, spare exhaustion,
  drain-then-fail) and gray failures (partition-heal, partition-kill-
  mid-heal, flapping-partition, lossy-links, limping-node);
* :mod:`~repro.chaos.invariants` -- runtime-wide properties: the trace
  invariants are one state machine, fed online during every run and
  replayable over a recorded trace; the state checks read the runtime
  once the run ends;
* :mod:`~repro.chaos.runner` -- deterministic (campaign, seed)
  execution.

CLI (see ``python -m repro.chaos --help``)::

    python -m repro.chaos --campaign all --seeds 25   # the soak
    python -m repro.chaos --replay drain-then-fail:7  # one failing pair
"""

from repro.chaos.campaigns import CAMPAIGNS, GRAY_CAMPAIGNS, Campaign
from repro.chaos.invariants import (
    DetectorMonitor,
    TraceInvariants,
    Violation,
    check_answer,
    check_detector_bounded,
    check_link_accounting,
    check_posted_receives,
)
from repro.chaos.runner import MAX_EVENTS, RunResult, run_campaign
from repro.chaos.scenario import (
    AtTime,
    ChaosEngine,
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
)

__all__ = [
    "AtTime", "OnEvent", "RandomTimes", "Poisson",
    "KillSlot", "KillRandomSlot", "KillRandomNode", "KillRank", "DrainSlot",
    "KillTenantSlot",
    "Partition", "Omission", "LimpSlot",
    "Rule", "Scenario", "ChaosEngine",
    "CAMPAIGNS", "GRAY_CAMPAIGNS", "Campaign",
    "Violation", "DetectorMonitor", "TraceInvariants",
    "check_posted_receives", "check_detector_bounded", "check_answer",
    "check_link_accounting",
    "RunResult", "run_campaign", "MAX_EVENTS",
]
