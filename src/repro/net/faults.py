"""Probabilistic link-fault model: omission, duplication, delay.

The transport (:mod:`repro.net.transport`) consults an attached
:class:`LinkFaultModel` for every message and gets back a *fault plan*:
how many times the message's bytes are dropped on the wire before a
copy finally lands, whether the receiver sees a duplicate, and how
much extra queueing delay the surviving copy picks up.

Losses never translate into a hung application: the reliable layer on
top of a lossy link retransmits on a timeout (``rto``), the way
GASPI-style fault-tolerant runtimes make every communication call
timeout-based rather than trusting the fabric.  Duplicates are
suppressed by the receiver through the envelope's globally unique
sequence number.  The model draws from one seeded RNG stream, so a
campaign replayed with the same seed loses, duplicates, and delays the
exact same messages.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

__all__ = ["FaultPlan", "LinkFaultModel", "check_link_faults"]

#: safety valve: a message is never dropped more times than this in a
#: row (drop_p < 1 makes longer runs astronomically unlikely anyway)
MAX_CONSECUTIVE_DROPS = 64


def check_link_faults(drop_p: float, dup_p: float, delay_p: float,
                      **positive: float) -> None:
    """Refuse a fault model's parameters: each probability must lie in
    [0, 1) (a drop_p of 1 would lose every copy), and each named
    duration in ``positive`` must be > 0 (NaN fails both)."""
    for name, p in (("drop_p", drop_p), ("dup_p", dup_p), ("delay_p", delay_p)):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"{name} must be in [0, 1), not {p}")
    for name, value in positive.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, not {value}")


class FaultPlan:
    """The per-message fault draw (see :meth:`LinkFaultModel.plan`)."""

    __slots__ = ("drops", "delay", "duplicate")

    def __init__(self, drops: int, delay: float, duplicate: bool):
        self.drops = drops
        self.delay = delay
        self.duplicate = duplicate

    @property
    def clean(self) -> bool:
        return self.drops == 0 and self.delay == 0.0 and not self.duplicate

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FaultPlan drops={self.drops} delay={self.delay:.6g}"
            f" dup={self.duplicate}>"
        )


class LinkFaultModel:
    """Seeded per-link drop/duplicate/delay model.

    Parameters are per message: ``drop_p`` is the chance each
    transmission attempt is lost (attempts are redrawn until one
    survives, each lost attempt costing one ``rto`` retransmission
    timeout); ``dup_p`` the chance the receiver sees the message twice
    (the copy trailing by ``dup_lag``); ``delay_p`` the chance of
    extra exponentially distributed queueing delay of mean
    ``delay_mean``.  ``links`` optionally restricts the model to a set
    of directed ``(src_node, dst_node)`` pairs; ``None`` afflicts every
    inter-node link.
    """

    def __init__(
        self,
        rng,
        drop_p: float = 0.0,
        dup_p: float = 0.0,
        delay_p: float = 0.0,
        rto: float = 0.05,
        dup_lag: float = 0.002,
        delay_mean: float = 0.01,
        links: Optional[Set[Tuple[int, int]]] = None,
    ):
        check_link_faults(drop_p, dup_p, delay_p, rto=rto, dup_lag=dup_lag,
                          delay_mean=delay_mean)
        self.rng = rng
        self.drop_p = drop_p
        self.dup_p = dup_p
        self.delay_p = delay_p
        self.rto = rto
        self.dup_lag = dup_lag
        self.delay_mean = delay_mean
        self.links = None if links is None else set(links)

    def applies(self, src_node: int, dst_node: int) -> bool:
        """Is the ``src -> dst`` link afflicted?  Loopback never is."""
        if src_node == dst_node:
            return False
        if self.links is None:
            return True
        return (src_node, dst_node) in self.links

    def plan(self, src_node: int, dst_node: int) -> FaultPlan:
        """Draw the fault plan for one message on ``src -> dst``."""
        if not self.applies(src_node, dst_node):
            return FaultPlan(0, 0.0, False)
        rng = self.rng
        drops = 0
        if self.drop_p:
            while rng.random() < self.drop_p and drops < MAX_CONSECUTIVE_DROPS:
                drops += 1
        delay = 0.0
        if self.delay_p and rng.random() < self.delay_p:
            delay = float(rng.exponential(self.delay_mean))
        duplicate = bool(self.dup_p) and rng.random() < self.dup_p
        return FaultPlan(drops, delay, duplicate)

    def describe(self) -> str:
        scope = "all links" if self.links is None else f"{len(self.links)} link(s)"
        return (
            f"drop_p={self.drop_p:g} dup_p={self.dup_p:g} "
            f"delay_p={self.delay_p:g} rto={self.rto:g} on {scope}"
        )
