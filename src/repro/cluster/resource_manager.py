"""A SLURM-like resource manager.

Supports the two spare-node strategies discussed in Section II-B of
the paper:

* **Pre-reserved spares** -- a job asks for, e.g., 64 compute nodes
  plus 6 spares; replacements come from the job's own spare list with
  no resource-manager round trip (``fmirun`` reads them from the
  machinefile).
* **On-demand allocation** -- when the spare list is exhausted,
  ``fmirun`` asks the resource manager; the grant costs
  ``spare_grant_latency`` if an idle node exists, otherwise the request
  queues until one is released.

Multi-tenant service mode adds a third tier between those two: a
scheduler-held :class:`SparePool` shared by every tenant, consulted by
:meth:`Allocation.grow` before falling back to an on-demand grant.

Node accounting is exact: every allocation tracks the nodes it *owns*
(the initial grant plus anything acquired mid-job through spares or
``grow()``), release is idempotent, and a grant racing a cancelled or
aborted waiter re-enters the pool instead of stranding.  Released nodes
are handed to queued waiters strictly FIFO and re-enter the idle list
in allocation order, so same-instant release/grant races resolve
deterministically.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.cluster.node import Node
from repro.simt.kernel import Event, Simulator

__all__ = ["ResourceManager", "Allocation", "AllocationError", "SparePool"]


class AllocationError(RuntimeError):
    """The request can never be satisfied (asked for too many nodes)."""


class Allocation:
    """A set of nodes granted to one job, with an optional spare list.

    The allocation owns every node it has been granted -- the initial
    compute + spare lists and anything acquired mid-job via
    :meth:`grow` -- and returns all of them (the live ones) to the
    resource manager exactly once, at :meth:`release`.
    """

    def __init__(self, rm: "ResourceManager", nodes: List[Node], spares: List[Node]):
        self.rm = rm
        self.nodes = nodes
        self.spares = spares
        self.released = False
        #: shared :class:`SparePool` consulted by :meth:`grow` before
        #: the on-demand RM path (the scheduler attaches this)
        self.spare_pool: Optional["SparePool"] = None
        # Insertion-ordered ownership set: deterministic release order.
        self._owned: Dict[Node, None] = dict.fromkeys(nodes + spares)
        self._pending_grows: List[Event] = []

    @property
    def all_nodes(self) -> List[Node]:
        """Every node this allocation currently owns (in grant order)."""
        return list(self._owned)

    def adopt(self, node: Node) -> None:
        """Record a node as owned (returned to the pool at release)."""
        self._owned.setdefault(node, None)

    def disown(self, node: Node) -> None:
        self._owned.pop(node, None)

    def take_spare(self) -> Optional[Node]:
        """Pop the next *live* pre-reserved spare, or None.

        The spare stays owned by the allocation: it is now a compute
        node and comes back to the pool when the job releases.
        """
        while self.spares:
            node = self.spares.pop(0)
            if node.alive:
                return node
            self._owned.pop(node, None)
        return None

    def grow(self) -> Event:
        """Acquire one more node mid-job (on-demand spare path).

        One seam for both acquisition tiers beyond the pre-reserved
        list: the shared :attr:`spare_pool` (immediate handoff, the
        nodes are already granted to the scheduler) when one is
        attached and stocked, else an on-demand resource-manager grant
        (``grant_latency``, queueing when the machine is full).  The
        returned event fires with a :class:`Node` that is already owned
        by this allocation.  Cancelling the event withdraws the
        request; a grant racing the cancel re-enters the pool instead
        of stranding.
        """
        if self.released:
            raise RuntimeError("grow() on a released allocation")
        pool = self.spare_pool
        node = pool.take() if pool is not None else None
        if node is not None:
            evt = Event(self.rm.sim)
            handoff = self.rm.sim.timeout(0.0)

            def deliver(_e, node=node, evt=evt):
                if evt in self._pending_grows:
                    self._pending_grows.remove(evt)
                if self.released or evt.triggered or evt.cancelled:
                    pool.put(node)  # withdrawn: back to the shared pool
                else:
                    self.adopt(node)
                    evt.succeed(node)

            handoff.callbacks.append(deliver)
        else:
            evt = self.rm.request_replacement()
            evt.callbacks.append(self._adopt_grant)
        self._pending_grows.append(evt)
        return evt

    def _adopt_grant(self, evt: Event) -> None:
        if evt in self._pending_grows:
            self._pending_grows.remove(evt)
        if self.released:
            self.rm._reclaim(evt.value)
        else:
            self.adopt(evt.value)

    def return_node(self, node: Node) -> None:
        """Hand one owned node back mid-job (the drain path): it leaves
        this allocation for good, so release will not reclaim it again."""
        self.disown(node)
        self.rm.return_node(node)

    def release(self) -> None:
        """Return every live owned node to the idle pool (idempotent).

        Pending :meth:`grow` requests are withdrawn; grants already in
        flight re-enter the pool when they land.
        """
        if self.released:
            return
        self.released = True
        for evt in self._pending_grows:
            if not evt.triggered:
                evt.cancel()
        self._pending_grows.clear()
        self.rm._release(self)


class SparePool:
    """A warm reserve of granted nodes shared by every tenant.

    The scheduler stocks it from the idle pool and attaches it to each
    job's allocation (``alloc.spare_pool = pool``); ``Allocation.grow``
    then draws from it with an *immediate* handoff -- the nodes were
    already granted to the scheduler, so no resource-manager round trip
    is charged.  Nodes drawn from the pool are owned by the borrowing
    allocation and return to the resource manager (not the pool) when
    that job releases; the scheduler tops the pool back up with
    :meth:`refill` when the cluster has slack.
    """

    def __init__(self, rm: "ResourceManager", size: int = 0):
        self.rm = rm
        self._nodes: List[Node] = rm.acquire_idle(size)

    def __len__(self) -> int:
        self._gc()
        return len(self._nodes)

    def _gc(self) -> None:
        self._nodes = [n for n in self._nodes if n.alive]

    def take(self) -> Optional[Node]:
        """Pop the next live pooled node, or None when empty."""
        while self._nodes:
            node = self._nodes.pop(0)
            if node.alive:
                return node
        return None

    def put(self, node: Node) -> None:
        """Return a (live) node to the pool."""
        if node.alive:
            self._nodes.append(node)

    def refill(self, target: int) -> int:
        """Top up to ``target`` nodes from the idle pool; returns how
        many were actually acquired (the idle pool may be short)."""
        self._gc()
        grabbed = self.rm.acquire_idle(max(0, target - len(self._nodes)))
        self._nodes.extend(grabbed)
        return len(grabbed)

    def drain(self) -> None:
        """Give every pooled node back to the resource manager."""
        nodes, self._nodes = self._nodes, []
        for node in nodes:
            self.rm._reclaim(node)


class ResourceManager:
    """Tracks idle nodes; grants allocations and single replacements."""

    def __init__(self, sim: Simulator, nodes: List[Node], grant_latency: float = 0.5):
        self.sim = sim
        self.grant_latency = grant_latency
        # Insertion-ordered (dict-as-set): grants pop from the front, so
        # a node can be idle only once and same-instant races resolve in
        # release order.
        self._idle: Dict[Node, None] = dict.fromkeys(nodes)
        self._pending: Deque[Event] = deque()

    # -- bookkeeping ----------------------------------------------------------
    @property
    def idle_count(self) -> int:
        self._gc_idle()
        return len(self._idle)

    def _gc_idle(self) -> None:
        if any(not n.alive for n in self._idle):
            self._idle = {n: None for n in self._idle if n.alive}

    def _pop_idle(self, count: int) -> List[Node]:
        taken = list(self._idle)[:count]
        for node in taken:
            del self._idle[node]
        return taken

    # -- allocation --------------------------------------------------------------
    def allocate(self, num_nodes: int, num_spares: int = 0) -> Allocation:
        """Grant ``num_nodes`` + ``num_spares`` idle nodes immediately.

        Raises :class:`AllocationError` if not enough idle nodes exist
        (callers that queue jobs instead -- the service-mode scheduler
        -- use :meth:`try_allocate`).
        """
        alloc = self.try_allocate(num_nodes, num_spares)
        if alloc is None:
            want = num_nodes + num_spares
            raise AllocationError(
                f"requested {want} nodes, only {len(self._idle)} idle"
            )
        return alloc

    def try_allocate(self, num_nodes: int, num_spares: int = 0) -> Optional[Allocation]:
        """Like :meth:`allocate` but returns None when the idle pool is
        short (the scheduler's non-raising admission probe)."""
        self._gc_idle()
        want = num_nodes + num_spares
        if want > len(self._idle):
            return None
        granted = self._pop_idle(want)
        return Allocation(self, granted[:num_nodes], granted[num_nodes:])

    def acquire_idle(self, count: int) -> List[Node]:
        """Immediately take up to ``count`` idle nodes with no
        allocation bookkeeping (spare-pool stocking).  The caller owns
        them until it hands them back via :meth:`return_node` /
        ``SparePool.drain``."""
        self._gc_idle()
        return self._pop_idle(max(0, count))

    def request_replacement(self) -> Event:
        """Ask for one idle node (on-demand spare path).

        The returned event fires with a :class:`Node` after
        ``grant_latency`` if one is idle, else whenever a node is
        released back to the pool.  Cancel the event to withdraw the
        request: a queued waiter is skipped, and a grant already in
        flight re-enters the pool when it lands.
        """
        evt = Event(self.sim)
        self._gc_idle()
        if self._idle:
            self._grant(self._pop_idle(1)[0], evt)
        else:
            self._pending.append(evt)
        return evt

    def _grant(self, node: Node, waiter: Event) -> None:
        """Deliver ``node`` to ``waiter`` after the grant latency.  A
        waiter that was cancelled (job abort) or served meanwhile must
        not strand the node: it goes straight back through _reclaim."""
        grant = self.sim.timeout(self.grant_latency)

        def deliver(_e, node=node, waiter=waiter):
            if waiter.cancelled or waiter.triggered:
                self._reclaim(node)
            else:
                waiter.succeed(node)

        grant.callbacks.append(deliver)

    def return_node(self, node: Node) -> None:
        """Hand one healthy node back to the pool (e.g. a drained node
        whose job migrated off it).  Pending replacement requests are
        served first."""
        self._reclaim(node)

    def _release(self, alloc: Allocation) -> None:
        for node in alloc.all_nodes:
            self._reclaim(node)

    def _reclaim(self, node: Node) -> None:
        if not node.alive or node in self._idle:
            return
        while self._pending:
            waiter = self._pending.popleft()
            if not waiter.cancelled and not waiter.triggered:
                self._grant(node, waiter)
                return
        self._idle[node] = None
