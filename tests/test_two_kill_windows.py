"""Two kills inside one detection delay, pinned point by point.

FMI learns of a death from an ibverbs disconnect, which reaches the
survivors ``ibverbs_close_delay`` (0.2 s) after it, or from
``fmirun.task``'s child exit.  A second kill inside that window is
where a decision made on what the runtime was told and one made on
what the machine knows can differ.  This table runs a BSP job (8
ranks, 2 per node, 2 spares) and crashes the node of slot ``a`` at
1.6 s and the node of slot ``b`` at ``1.6 + d``, for every pair of
node slots and every ``d`` in ``DELAYS``:

* XOR groups of 4 under ``replicated`` (8 slots, 28 pairs), ``global``
  and ``logged`` (4 slots, 6 pairs each): two nodes of one group are
  lost, so every global and logged point ends in ``FmiAbort``;
* XOR groups of 2 under ``global`` and ``logged``: a second kill in
  the other block of two nodes is survivable.  Losing both nodes of a
  block loses every member of two groups while the others hold the
  newest dataset: beyond level-1 repair, so both families end in
  ``FmiAbort`` (``UnrecoverableFailure``), never in a cold start or a
  stall.

``WIPES`` adds those same-block pairs under the ``partner`` and
``single`` schemes (groups of 2, where a block holds whole groups).

Each point records how the run ended (``ok`` for the bitwise
failure-free answer, else the exception's class name), ``repr`` of the
final clock and the job's recovery epoch.  Tier-1 runs every
``STRIDE``-th point; the ``deep`` hypothesis profile runs them all.

To re-record after a *declared* change of recovery behaviour: run
``PYTHONPATH=src python -m tests.test_two_kill_windows`` on the new
commit, paste the printed dicts over ``WINDOWS`` and ``WIPES``, and
quote in CHANGES.md every cell that moved.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.errors import FmiAbort, FmiError
from repro.simt import Simulator
from repro.simt.kernel import SimulationError
from repro.simt.rng import RngRegistry

ITERS = 6
FIRST = 1.6
#: gaps between the two kills, all inside the 0.2 s disconnect delay
DELAYS = (0.0, 0.02, 0.05, 0.1, 0.15, 0.19)
#: (recovery, XOR group size, node slots)
GEOMETRIES = (("replicated", 4, 8), ("global", 4, 4), ("logged", 4, 4),
              ("global", 2, 4), ("logged", 2, 4))

_SCALE = max(1, settings.default.max_examples // 100)
STRIDE = max(1, 10 // _SCALE)


def points():
    return [
        (recovery, xor, a, b, d)
        for recovery, xor, slots in GEOMETRIES
        for a, b in itertools.combinations(range(slots), 2)
        for d in DELAYS
    ]


def wipe_points():
    return [
        (recovery, redundancy, a, b, d)
        for recovery in ("global", "logged")
        for redundancy in ("partner", "single")
        for a, b in ((0, 1), (2, 3))
        for d in DELAYS
    ]


def launch(recovery, xor, a, b, d, redundancy="xor"):
    """The job of one point, launched with its two kills armed."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    job = FmiJob(
        machine, bsp_app(ITERS, work_s=0.25), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=xor, recovery=recovery,
                         redundancy=redundancy, spare_nodes=2),
    )
    done = job.launch()
    for slot, when in ((a, FIRST), (b, FIRST + d)):
        def killer(node=job.fmirun.node_slots[slot], when=when):
            yield sim.timeout(when)
            node.crash("injected")
        sim.spawn(killer())
    return sim, job, done


def run_window(recovery, xor, a, b, d, redundancy="xor"):
    """``(outcome, repr(final clock), epoch)`` of one point."""
    sim, job, done = launch(recovery, xor, a, b, d, redundancy)
    try:
        results = sim.run(until=done, max_events=2_000_000)
    except (FmiError, SimulationError) as exc:  # an abort or a stall
        outcome = type(exc).__name__
    else:
        outcome = "ok" if all(
            np.array_equal(u, expected_bsp_state(rank, 8, ITERS))
            for rank, u in enumerate(results)
        ) else "wrong"
    return outcome, repr(sim.now), job.epoch


WINDOWS = {
    ('replicated', 4, 0, 1, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 1, 0.02): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 0, 1, 0.05): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 0, 1, 0.1): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 0, 1, 0.15): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 0, 1, 0.19): ('ok', '2.017087235889346', 2),
    ('replicated', 4, 0, 2, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 2, 0.02): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 2, 0.05): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 2, 0.1): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 2, 0.15): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 2, 0.19): ('ok', '2.017087279036337', 2),
    ('replicated', 4, 0, 3, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 3, 0.02): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 3, 0.05): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 3, 0.1): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 3, 0.15): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 0, 3, 0.19): ('ok', '2.017087279036337', 2),
    ('replicated', 4, 0, 4, 0.0): ('ok', '2.636814864871968', 2),
    ('replicated', 4, 0, 4, 0.02): ('ok', '2.636814864871968', 2),
    ('replicated', 4, 0, 4, 0.05): ('ok', '2.666814864871968', 2),
    ('replicated', 4, 0, 4, 0.1): ('ok', '2.716814864871968', 2),
    ('replicated', 4, 0, 4, 0.15): ('ok', '2.766814864871968', 2),
    ('replicated', 4, 0, 4, 0.19): ('ok', '2.3867509373804596', 2),
    ('replicated', 4, 0, 5, 0.0): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 0, 5, 0.02): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 0, 5, 0.05): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 0, 5, 0.1): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 0, 5, 0.15): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 0, 5, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 6, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 6, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 6, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 6, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 6, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 6, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 7, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 7, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 7, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 7, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 7, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 0, 7, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 2, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 2, 0.02): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 1, 2, 0.05): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 1, 2, 0.1): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 1, 2, 0.15): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 1, 2, 0.19): ('ok', '2.017087235889346', 2),
    ('replicated', 4, 1, 3, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 3, 0.02): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 1, 3, 0.05): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 1, 3, 0.1): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 1, 3, 0.15): ('ok', '2.0170872792863372', 2),
    ('replicated', 4, 1, 3, 0.19): ('ok', '2.017087279036337', 2),
    ('replicated', 4, 1, 4, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 4, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 4, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 4, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 4, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 4, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 5, 0.0): ('ok', '2.6368148624028325', 2),
    ('replicated', 4, 1, 5, 0.02): ('ok', '2.6368148624028325', 2),
    ('replicated', 4, 1, 5, 0.05): ('ok', '2.6668148624028323', 2),
    ('replicated', 4, 1, 5, 0.1): ('ok', '2.7168148624028325', 2),
    ('replicated', 4, 1, 5, 0.15): ('ok', '2.7668148624028324', 2),
    ('replicated', 4, 1, 5, 0.19): ('ok', '2.386750934911324', 2),
    ('replicated', 4, 1, 6, 0.0): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 1, 6, 0.02): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 1, 6, 0.05): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 1, 6, 0.1): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 1, 6, 0.15): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 1, 6, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 7, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 7, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 7, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 7, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 7, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 1, 7, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 3, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 3, 0.02): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 2, 3, 0.05): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 2, 3, 0.1): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 2, 3, 0.15): ('ok', '2.017087236139346', 2),
    ('replicated', 4, 2, 3, 0.19): ('ok', '2.017087235889346', 2),
    ('replicated', 4, 2, 4, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 4, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 4, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 4, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 4, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 4, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 5, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 5, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 5, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 5, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 5, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 5, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 2, 6, 0.0): ('ok', '2.636814864871968', 2),
    ('replicated', 4, 2, 6, 0.02): ('ok', '2.636814864871968', 2),
    ('replicated', 4, 2, 6, 0.05): ('ok', '2.666814864871968', 2),
    ('replicated', 4, 2, 6, 0.1): ('ok', '2.716814864871968', 2),
    ('replicated', 4, 2, 6, 0.15): ('ok', '2.766814864871968', 2),
    ('replicated', 4, 2, 6, 0.19): ('ok', '2.3867509373804596', 2),
    ('replicated', 4, 2, 7, 0.0): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 2, 7, 0.02): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 2, 7, 0.05): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 2, 7, 0.1): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 2, 7, 0.15): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 2, 7, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 4, 0.0): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 3, 4, 0.02): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 3, 4, 0.05): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 3, 4, 0.1): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 3, 4, 0.15): ('ok', '2.0170811862091766', 2),
    ('replicated', 4, 3, 4, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 5, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 5, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 5, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 5, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 5, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 5, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 6, 0.0): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 6, 0.02): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 6, 0.05): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 6, 0.1): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 6, 0.15): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 6, 0.19): ('ok', '2.01708427262893', 2),
    ('replicated', 4, 3, 7, 0.0): ('ok', '2.636814864871968', 2),
    ('replicated', 4, 3, 7, 0.02): ('ok', '2.636814864871968', 2),
    ('replicated', 4, 3, 7, 0.05): ('ok', '2.666814864871968', 2),
    ('replicated', 4, 3, 7, 0.1): ('ok', '2.716814864871968', 2),
    ('replicated', 4, 3, 7, 0.15): ('ok', '2.766814864871968', 2),
    ('replicated', 4, 3, 7, 0.19): ('ok', '2.3867509373804596', 2),
    ('replicated', 4, 4, 5, 0.0): ('ok', '2.017070710462264', 2),
    ('replicated', 4, 4, 5, 0.02): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 5, 0.05): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 5, 0.1): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 5, 0.15): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 5, 0.19): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 6, 0.0): ('ok', '2.0170676298480665', 2),
    ('replicated', 4, 4, 6, 0.02): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 6, 0.05): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 6, 0.1): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 6, 0.15): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 6, 0.19): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 7, 0.0): ('ok', '2.0170707277462143', 2),
    ('replicated', 4, 4, 7, 0.02): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 7, 0.05): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 7, 0.1): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 7, 0.15): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 4, 7, 0.19): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 6, 0.0): ('ok', '2.0170707277462143', 2),
    ('replicated', 4, 5, 6, 0.02): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 6, 0.05): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 6, 0.1): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 6, 0.15): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 6, 0.19): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 7, 0.0): ('ok', '2.0170676298480665', 2),
    ('replicated', 4, 5, 7, 0.02): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 7, 0.05): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 7, 0.1): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 7, 0.15): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 5, 7, 0.19): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 6, 7, 0.0): ('ok', '2.017070710462264', 2),
    ('replicated', 4, 6, 7, 0.02): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 6, 7, 0.05): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 6, 7, 0.1): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 6, 7, 0.15): ('ok', '2.0170707304653503', 2),
    ('replicated', 4, 6, 7, 0.19): ('ok', '2.0170707304653503', 2),
    ('global', 4, 0, 1, 0.0): ('FmiAbort', '2.316645308302535', 1),
    ('global', 4, 0, 1, 0.02): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 1, 0.05): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 1, 0.1): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 1, 0.15): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 1, 0.19): ('FmiAbort', '2.326645308302535', 2),
    ('global', 4, 0, 2, 0.0): ('FmiAbort', '2.316645308302535', 1),
    ('global', 4, 0, 2, 0.02): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 2, 0.05): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 2, 0.1): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 2, 0.15): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 2, 0.19): ('FmiAbort', '2.326645308302535', 2),
    ('global', 4, 0, 3, 0.0): ('FmiAbort', '2.316645308302535', 1),
    ('global', 4, 0, 3, 0.02): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 3, 0.05): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 3, 0.1): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 3, 0.15): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 0, 3, 0.19): ('FmiAbort', '2.326645308302535', 2),
    ('global', 4, 1, 2, 0.0): ('FmiAbort', '2.316645308302535', 1),
    ('global', 4, 1, 2, 0.02): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 2, 0.05): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 2, 0.1): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 2, 0.15): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 2, 0.19): ('FmiAbort', '2.326645308302535', 2),
    ('global', 4, 1, 3, 0.0): ('FmiAbort', '2.316645308302535', 1),
    ('global', 4, 1, 3, 0.02): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 3, 0.05): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 3, 0.1): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 3, 0.15): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 1, 3, 0.19): ('FmiAbort', '2.326645308302535', 2),
    ('global', 4, 2, 3, 0.0): ('FmiAbort', '2.316645308302535', 1),
    ('global', 4, 2, 3, 0.02): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 2, 3, 0.05): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 2, 3, 0.1): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 2, 3, 0.15): ('FmiAbort', '2.316645308302535', 2),
    ('global', 4, 2, 3, 0.19): ('FmiAbort', '2.326645308302535', 2),
    ('logged', 4, 0, 1, 0.0): ('FmiAbort', '2.055328013651268', 1),
    ('logged', 4, 0, 1, 0.02): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 1, 0.05): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 1, 0.1): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 1, 0.15): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 1, 0.19): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 2, 0.0): ('FmiAbort', '2.055328013651268', 1),
    ('logged', 4, 0, 2, 0.02): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 2, 0.05): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 2, 0.1): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 2, 0.15): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 2, 0.19): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 3, 0.0): ('FmiAbort', '2.055328013651268', 1),
    ('logged', 4, 0, 3, 0.02): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 3, 0.05): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 3, 0.1): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 3, 0.15): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 0, 3, 0.19): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 2, 0.0): ('FmiAbort', '2.055328013651268', 1),
    ('logged', 4, 1, 2, 0.02): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 2, 0.05): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 2, 0.1): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 2, 0.15): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 2, 0.19): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 3, 0.0): ('FmiAbort', '2.055328013651268', 1),
    ('logged', 4, 1, 3, 0.02): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 3, 0.05): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 3, 0.1): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 3, 0.15): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 1, 3, 0.19): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 2, 3, 0.0): ('FmiAbort', '2.055328013651268', 1),
    ('logged', 4, 2, 3, 0.02): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 2, 3, 0.05): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 2, 3, 0.1): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 2, 3, 0.15): ('FmiAbort', '2.055328013651268', 2),
    ('logged', 4, 2, 3, 0.19): ('FmiAbort', '2.055328013651268', 2),
    ('global', 2, 0, 1, 0.0): ('FmiAbort', '2.316647371925992', 1),
    ('global', 2, 0, 1, 0.02): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 0, 1, 0.05): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 0, 1, 0.1): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 0, 1, 0.15): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 0, 1, 0.19): ('FmiAbort', '2.326647371925992', 2),
    ('global', 2, 0, 2, 0.0): ('ok', '2.816748009401298', 1),
    ('global', 2, 0, 2, 0.02): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 2, 0.05): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 2, 0.1): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 2, 0.15): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 2, 0.19): ('ok', '2.8267480094012982', 2),
    ('global', 2, 0, 3, 0.0): ('ok', '2.816748009401298', 1),
    ('global', 2, 0, 3, 0.02): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 3, 0.05): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 3, 0.1): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 3, 0.15): ('ok', '2.816748009401298', 2),
    ('global', 2, 0, 3, 0.19): ('ok', '2.8267480094012982', 2),
    ('global', 2, 1, 2, 0.0): ('ok', '2.816748009401298', 1),
    ('global', 2, 1, 2, 0.02): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 2, 0.05): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 2, 0.1): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 2, 0.15): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 2, 0.19): ('ok', '2.8267480094012982', 2),
    ('global', 2, 1, 3, 0.0): ('ok', '2.816748009401298', 1),
    ('global', 2, 1, 3, 0.02): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 3, 0.05): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 3, 0.1): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 3, 0.15): ('ok', '2.816748009401298', 2),
    ('global', 2, 1, 3, 0.19): ('ok', '2.8267480094012982', 2),
    ('global', 2, 2, 3, 0.0): ('FmiAbort', '2.316647371925992', 1),
    ('global', 2, 2, 3, 0.02): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 2, 3, 0.05): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 2, 3, 0.1): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 2, 3, 0.15): ('FmiAbort', '2.316647371925992', 2),
    ('global', 2, 2, 3, 0.19): ('FmiAbort', '2.326647371925992', 2),
    ('logged', 2, 0, 1, 0.0): ('FmiAbort', '2.0553208577747246', 1),
    ('logged', 2, 0, 1, 0.02): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 0, 1, 0.05): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 0, 1, 0.1): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 0, 1, 0.15): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 0, 1, 0.19): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 0, 2, 0.0): ('ok', '2.57542389259571', 1),
    ('logged', 2, 0, 2, 0.02): ('ok', '2.57542389259571', 2),
    ('logged', 2, 0, 2, 0.05): ('ok', '2.60542389259571', 2),
    ('logged', 2, 0, 2, 0.1): ('ok', '2.65542389259571', 2),
    ('logged', 2, 0, 2, 0.15): ('ok', '2.70542389259571', 2),
    ('logged', 2, 0, 2, 0.19): ('ok', '2.745425087253117', 2),
    ('logged', 2, 0, 3, 0.0): ('ok', '2.5754250872531173', 1),
    ('logged', 2, 0, 3, 0.02): ('ok', '2.5754250872531173', 2),
    ('logged', 2, 0, 3, 0.05): ('ok', '2.605425087253117', 2),
    ('logged', 2, 0, 3, 0.1): ('ok', '2.6554250872531173', 2),
    ('logged', 2, 0, 3, 0.15): ('ok', '2.705425087253117', 2),
    ('logged', 2, 0, 3, 0.19): ('ok', '2.745425087253117', 2),
    ('logged', 2, 1, 2, 0.0): ('ok', '2.57542150784571', 1),
    ('logged', 2, 1, 2, 0.02): ('ok', '2.57542150784571', 2),
    ('logged', 2, 1, 2, 0.05): ('ok', '2.6054215078457097', 2),
    ('logged', 2, 1, 2, 0.1): ('ok', '2.65542150784571', 2),
    ('logged', 2, 1, 2, 0.15): ('ok', '2.70542150784571', 2),
    ('logged', 2, 1, 2, 0.19): ('ok', '2.7454250857839813', 2),
    ('logged', 2, 1, 3, 0.0): ('ok', '2.57542389259571', 1),
    ('logged', 2, 1, 3, 0.02): ('ok', '2.57542389259571', 2),
    ('logged', 2, 1, 3, 0.05): ('ok', '2.60542389259571', 2),
    ('logged', 2, 1, 3, 0.1): ('ok', '2.65542389259571', 2),
    ('logged', 2, 1, 3, 0.15): ('ok', '2.70542389259571', 2),
    ('logged', 2, 1, 3, 0.19): ('ok', '2.74542389259571', 2),
    ('logged', 2, 2, 3, 0.0): ('FmiAbort', '2.0553208577747246', 1),
    ('logged', 2, 2, 3, 0.02): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 2, 3, 0.05): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 2, 3, 0.1): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 2, 3, 0.15): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 2, 2, 3, 0.19): ('FmiAbort', '2.0553208577747246', 2),
}


WIPES = {
    ('global', 'partner', 0, 1, 0.0): ('FmiAbort', '2.316647371925992', 1),
    ('global', 'partner', 0, 1, 0.02): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 0, 1, 0.05): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 0, 1, 0.1): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 0, 1, 0.15): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 0, 1, 0.19): ('FmiAbort', '2.326647371925992', 2),
    ('global', 'partner', 2, 3, 0.0): ('FmiAbort', '2.316647371925992', 1),
    ('global', 'partner', 2, 3, 0.02): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 2, 3, 0.05): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 2, 3, 0.1): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 2, 3, 0.15): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'partner', 2, 3, 0.19): ('FmiAbort', '2.326647371925992', 2),
    ('global', 'single', 0, 1, 0.0): ('FmiAbort', '2.316647371925992', 1),
    ('global', 'single', 0, 1, 0.02): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 0, 1, 0.05): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 0, 1, 0.1): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 0, 1, 0.15): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 0, 1, 0.19): ('FmiAbort', '2.326647371925992', 2),
    ('global', 'single', 2, 3, 0.0): ('FmiAbort', '2.316647371925992', 1),
    ('global', 'single', 2, 3, 0.02): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 2, 3, 0.05): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 2, 3, 0.1): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 2, 3, 0.15): ('FmiAbort', '2.316647371925992', 2),
    ('global', 'single', 2, 3, 0.19): ('FmiAbort', '2.326647371925992', 2),
    ('logged', 'partner', 0, 1, 0.0): ('FmiAbort', '2.0553208577747246', 1),
    ('logged', 'partner', 0, 1, 0.02): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 0, 1, 0.05): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 0, 1, 0.1): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 0, 1, 0.15): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 0, 1, 0.19): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 2, 3, 0.0): ('FmiAbort', '2.0553208577747246', 1),
    ('logged', 'partner', 2, 3, 0.02): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 2, 3, 0.05): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 2, 3, 0.1): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 2, 3, 0.15): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'partner', 2, 3, 0.19): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 0, 1, 0.0): ('FmiAbort', '2.0553208577747246', 1),
    ('logged', 'single', 0, 1, 0.02): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 0, 1, 0.05): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 0, 1, 0.1): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 0, 1, 0.15): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 0, 1, 0.19): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 2, 3, 0.0): ('FmiAbort', '2.0553208577747246', 1),
    ('logged', 'single', 2, 3, 0.02): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 2, 3, 0.05): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 2, 3, 0.1): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 2, 3, 0.15): ('FmiAbort', '2.0553208577747246', 2),
    ('logged', 'single', 2, 3, 0.19): ('FmiAbort', '2.0553208577747246', 2),
}


@pytest.mark.parametrize("point", points()[::STRIDE], ids=str)
def test_a_two_kill_window_ends_as_recorded(point):
    assert run_window(*point) == WINDOWS[point]


@pytest.mark.parametrize("point", wipe_points()[::STRIDE], ids=str)
def test_a_wiped_group_ends_by_name(point):
    recovery, redundancy, a, b, d = point
    assert run_window(recovery, 2, a, b, d, redundancy) == WIPES[point]


@pytest.mark.parametrize("recovery, named", [
    # the agreement names the wiped group by its first rank
    ("global", "xor group of rank 1 lost every member"),
    # the logging plane knows the group and its members
    ("logged", "xor group 0 lost every member (ranks [0, 2])"),
])
def test_a_wiped_group_is_named_with_the_dataset_that_survives(recovery,
                                                               named):
    sim, _job, done = launch(recovery, 2, 0, 1, 0.05)
    with pytest.raises(FmiAbort, match="UnrecoverableFailure") as info:
        sim.run(until=done, max_events=2_000_000)
    assert named in str(info.value)
    assert "while dataset 4 survives elsewhere" in str(info.value)


def test_the_table_covers_every_point():
    assert sorted(WINDOWS) == sorted(points())
    assert len(WINDOWS) == 6 * (28 + 4 * 6)
    assert sorted(WIPES) == sorted(wipe_points())
    # every ending is named: no point stalls
    endings = {outcome for outcome, _, _ in [*WINDOWS.values(),
                                             *WIPES.values()]}
    assert endings == {"ok", "FmiAbort"}, endings


if __name__ == "__main__":
    print("WINDOWS = {")
    for point in points():
        print(f"    {point!r}: {run_window(*point)!r},")
    print("}")
    print("WIPES = {")
    for recovery, redundancy, a, b, d in wipe_points():
        got = run_window(recovery, 2, a, b, d, redundancy)
        print(f"    {(recovery, redundancy, a, b, d)!r}: {got!r},")
    print("}")
