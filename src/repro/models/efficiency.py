"""Fig 17: efficiency of multilevel C/R under scaled failure rates.

Two nested renewal models:

* **level 1** -- XOR C/R handles rate-``l1`` failures with checkpoint
  cost ``c1`` and restart cost ``r1``; its efficiency ``e1`` comes from
  the single-level factor (:mod:`repro.models.vaidya`) at the optimal
  interval.
* **level 2** -- rate-``l2`` failures destroy everything since the last
  PFS checkpoint (cost ``c2``, restart ``r2``).  Useful work accrues at
  rate ``e1`` between L2 checkpoints; the expected wall time of an L2
  segment producing ``U`` useful seconds is
  ``exp(l2*r2) * (exp(l2*(U/e1 + c2)) - 1) / l2``, optimised over ``U``.

This reproduces the paper's qualitative result: if only level-1 rates
grow, efficiency stays high (L1 C/R is cheap and constant-cost); if
level-2 rates *and* level-2 cost both scale 50x with 10 GB/node
checkpoints, ``l2 * c2`` approaches/exceeds 1 and efficiency collapses
below a few percent.
"""

from __future__ import annotations

import math

from repro.models.vaidya import (
    _check_finite,
    expected_runtime_factor,
    optimal_interval,
)

__all__ = [
    "single_level_efficiency",
    "multilevel_efficiency",
    "replication_efficiency",
    "replication_vs_cr_crossover",
]


def single_level_efficiency(ckpt_cost: float, mtbf: float, restart_cost: float = 0.0) -> float:
    """Best-case efficiency (useful/wall) of one C/R level."""
    _check_finite(ckpt_cost=ckpt_cost, mtbf=mtbf, restart_cost=restart_cost)
    if ckpt_cost < 0:
        raise ValueError("ckpt_cost must be >= 0")
    if mtbf <= 0:
        raise ValueError("mtbf must be positive")
    if restart_cost < 0:
        raise ValueError("restart_cost must be >= 0")
    if ckpt_cost == 0.0:
        return 1.0
    t = optimal_interval(ckpt_cost, mtbf, restart_cost)
    factor = expected_runtime_factor(t, ckpt_cost, mtbf, restart_cost)
    return 1.0 / factor


def multilevel_efficiency(
    c1: float,
    r1: float,
    l1: float,
    c2: float,
    r2: float,
    l2: float,
) -> float:
    """Efficiency of the combined L1 (XOR) + L2 (PFS) scheme.

    ``c``/``r`` are checkpoint/restart costs in seconds, ``l`` are
    failure rates per second.  Failures of either level during an L2
    segment are accounted: level-1 ones through ``e1``, level-2 ones
    through the outer renewal term.

    The long PFS write itself is exposed to the *combined* failure
    rate -- any failure during the write aborts and restarts it (after
    a cheap L1 recovery).  Once the PFS write time approaches the
    machine MTBF this term explodes, which is the mechanism behind Fig
    17's efficiency collapse when both failure rates and 10 GB/node
    level-2 costs scale 50x.
    """
    _check_finite(c1=c1, r1=r1, l1=l1, c2=c2, r2=r2, l2=l2)
    for name, v in (("c1", c1), ("r1", r1), ("c2", c2), ("r2", r2)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0")
    if l1 < 0 or l2 < 0:
        raise ValueError("failure rates must be >= 0")

    e1 = single_level_efficiency(c1, 1.0 / l1, r1) if l1 > 0 else 1.0
    if l2 == 0:
        return e1

    # Expected wall time of one L2 checkpoint write.
    l_all = l1 + l2
    if c2 > 0:
        x = l_all * c2
        if x > 700:
            return 0.0
        write_time = math.exp(l_all * r1) * (math.exp(x) - 1.0) / l_all
        # An L2 *recovery* rereads the dataset under the same exposure.
        x_r = l_all * r2
        recover_time = (
            math.exp(l_all * r1) * (math.exp(x_r) - 1.0) / l_all
            if 0 < x_r <= 700
            else (r2 if x_r == 0 else math.inf)
        )
        if not math.isfinite(recover_time):
            return 0.0
    else:
        write_time = c2
        recover_time = r2

    # Outer level: choose U (useful seconds per L2 segment) to minimise
    # expected wall per useful second.
    def outer_factor(useful: float) -> float:
        wall_nofail = useful / e1 + write_time
        x = l2 * wall_nofail
        if x > 700:
            return math.inf
        return math.exp(l2 * recover_time) * (math.exp(x) - 1.0) / (l2 * useful)

    # Golden-section over U, bracketed around the Young-style estimate
    # for the outer level (using effective cost c2*e1 in useful time).
    guess = math.sqrt(2.0 * max(write_time, 1e-9) * e1 / l2)
    lo, hi = max(1e-6, 1e-3 * guess), max(1e3 * guess, 10.0 * write_time * e1 + 1.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = outer_factor(c), outer_factor(d)
    for _ in range(200):
        if b - a < 1e-9 * max(1.0, b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = outer_factor(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = outer_factor(d)
    best = outer_factor(0.5 * (a + b))
    if not math.isfinite(best):
        return 0.0
    return 1.0 / best


def replication_efficiency(
    degree: int,
    mtbf: float,
    n_nodes: int,
    ckpt_cost: float = 10.0,
    restart_cost: float = 10.0,
    rearm_window: float = 60.0,
    failover_cost: float = 0.2,
) -> float:
    """Efficiency (useful/wall) of ``degree``-modular rank replication.

    ``mtbf`` is the *per-node* MTBF in seconds and ``n_nodes`` the
    virtual job size in nodes (each backed by ``degree`` physical
    nodes, so the hardware bill is ``degree * n_nodes``).

    A single copy's death costs only ``failover_cost`` seconds (the
    replica is promoted in place -- no rollback).  The job only falls
    back to C/R when *all* copies of one virtual rank die inside the
    ``rearm_window`` it takes to re-arm a fresh replica from a spare:
    first deaths arrive at rate ``n * d * lam`` and each must be
    chased by ``d - 1`` further copy-deaths (probability ``lam * w``
    apiece), giving a catastrophic MTBF of
    ``1 / (n * d * lam * (lam * w)^(d-1))``.  Checkpointing still runs
    underneath at that far-longer effective MTBF, so the replicated
    efficiency is ``(1/degree)`` (the redundant hardware) times the
    single-level C/R efficiency at the catastrophic MTBF, discounted by
    failover time (FTHP-MPI's model shape; ReStore's in-memory replica
    state keeps ``failover_cost`` near zero).

    ``degree=1`` degenerates exactly to plain C/R at the system MTBF.
    """
    _check_finite(mtbf=mtbf, ckpt_cost=ckpt_cost, restart_cost=restart_cost,
                  rearm_window=rearm_window, failover_cost=failover_cost)
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if mtbf <= 0:
        raise ValueError("mtbf must be positive")
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if ckpt_cost < 0 or restart_cost < 0:
        raise ValueError("costs must be >= 0")
    if rearm_window <= 0:
        raise ValueError("rearm_window must be positive")
    if failover_cost < 0:
        raise ValueError("failover_cost must be >= 0")
    lam = 1.0 / mtbf
    if degree == 1:
        return single_level_efficiency(ckpt_cost, mtbf / n_nodes, restart_cost)
    catastrophic_rate = n_nodes * degree * lam * (lam * rearm_window) ** (degree - 1)
    if catastrophic_rate <= 0:
        e_cr = 1.0
    else:
        e_cr = single_level_efficiency(
            ckpt_cost, 1.0 / catastrophic_rate, restart_cost
        )
    # Failovers steal wall time at the full copy-death rate.
    failover_drag = 1.0 + n_nodes * degree * lam * failover_cost
    return (1.0 / degree) * e_cr / failover_drag


def replication_vs_cr_crossover(
    n_nodes: int,
    degree: int = 2,
    ckpt_cost: float = 10.0,
    restart_cost: float = 10.0,
    rearm_window: float = 60.0,
    failover_cost: float = 0.2,
    lo: float = 1e-1,
    hi: float = 1e9,
) -> float:
    """Node-MTBF (seconds) below which replication beats plain C/R.

    Answers the FTHP-MPI question the paper's Fig 17 never plotted: at
    what per-node MTBF does ``1/degree`` hardware redundancy out-run
    checkpoint/restart at system MTBF ``mtbf/n``?  Reliable machines
    (large MTBF) favour C/R -- replication can never beat ``1/degree``
    efficiency -- while failure-dense machines collapse C/R's renewal
    term long before they dent the replicated plane's catastrophic
    MTBF.  Bisects the gap on a log scale; raises if no crossover
    exists inside ``[lo, hi]``.
    """

    def gap(mtbf: float) -> float:
        repl = replication_efficiency(
            degree, mtbf, n_nodes, ckpt_cost, restart_cost,
            rearm_window, failover_cost,
        )
        cr = single_level_efficiency(ckpt_cost, mtbf / n_nodes, restart_cost)
        return repl - cr

    # Both planes collapse to ~0 efficiency at extreme failure density,
    # so the endpoints themselves need not bracket: scan log-spaced
    # samples for the highest MTBF where replication still wins, then
    # bisect against its right neighbour.
    samples = 120
    la, lb = math.log(lo), math.log(hi)
    a = b = None
    for i in range(samples):
        x = la + (lb - la) * i / (samples - 1)
        if gap(math.exp(x)) > 0:
            a = x
        elif a is not None:
            b = x
            break
    if a is None or b is None:
        raise ValueError(
            f"no replication-vs-C/R crossover in [{lo:g}, {hi:g}] s for "
            f"n_nodes={n_nodes}, degree={degree}"
        )
    for _ in range(200):
        m = 0.5 * (a + b)
        if gap(math.exp(m)) > 0:
            a = m  # replication still winning: crossover is above
        else:
            b = m
        if b - a < 1e-12 * max(1.0, abs(b)):
            break
    return math.exp(0.5 * (a + b))
