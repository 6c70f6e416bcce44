"""Closed-form completion-time model for the collective algorithms.

The macro-event fast path (:mod:`repro.mpi.macro`) replaces every hop
of a collective with **one** kernel event; this module prices that
event.  Each function replays the hop algorithm's message schedule on
virtual per-rank clocks, charging the same closed-form per-message
costs the fabric would charge an uncontended transfer:

* inter-node: ``t(b) = 2*o + L + b/B``   (head overhead, send, wire
  latency + tail overhead -- exactly what :meth:`Fabric.send` charges
  a message alone on its NICs; :meth:`NetParams.p2p`)
* intra-node: ``m(b) = 2*o + b/M``       (the memory-bus path)

where ``o`` is the per-side software overhead, ``L`` the wire latency,
``B`` the NIC bandwidth and ``M`` the memory-bus bandwidth from the
cluster spec.  Because ``yield comm.send_async(...)`` blocks until
delivery, a sender's messages serialize; the virtual clocks reproduce
that, so for the regular shapes the totals collapse to the familiar
closed forms (uniform payload ``b``, power-of-two ``p``, one rank per
node):

=================  ==========================================
``bcast``          ``ceil(log2 p) * t(b)``
``reduce``         ``log2 p * t(b)``
``allreduce``      ``(log2 p + 2*[p not pof2]) * t(b)``
``barrier``        ``ceil(log2 p) * t(4)``
``gather``         ``R(p) = max_k R(s_k) + t(b*s_k)`` recurrence
``allgather``      ``(p-1) * t(b)``
``scatter``        ``sum over dst != root of t(b_dst)`` (serialized)
``alltoall``       ``(p-1) * t(b)``
=================  ==========================================

The model deliberately ignores *intra-collective* NIC/memory-bus
contention between concurrent flows of the same round: the fast path
is only eligible when the network is otherwise idle, and for the
latency-dominated messages our collectives carry the bandwidth error
is far below the conformance tolerance.  Per-message flow sharing is
what the hop-level oracle still prices exactly.

Every function takes ``nodes`` -- the node id of each communicator
rank, in rank order -- so mixed intra-/inter-node shapes (e.g. twelve
ranks per node) price each edge with the right formula.  The formulas
are evaluated once per rank, not once per edge: a function builds the
two tables ``shm[r] = m(b_r)`` and ``p2p[r] = t(b_r)`` up front
(:func:`_tables`) and its schedule loop only picks between them, which
yields the same floats as evaluating the formula per edge
(``tests/collective_model_reference.py`` keeps those loops as the
oracle; the comparison is ``==``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["NetParams", "collective_time"]


@dataclass(frozen=True)
class NetParams:
    """The four calibrated constants the per-message costs need."""

    sw_overhead: float
    wire_latency: float
    link_bw: float
    mem_bw: float

    @classmethod
    def from_transport(cls, transport) -> "NetParams":
        spec = transport.machine.spec
        return cls(
            sw_overhead=transport.sw_overhead,
            wire_latency=spec.network.wire_latency,
            link_bw=spec.network.link_bw,
            mem_bw=spec.node.memory_bw,
        )

    def p2p(self, nbytes: float) -> float:
        """Uncontended inter-node transfer (what ``Fabric.send``
        charges a message alone on its NICs)."""
        return (
            2.0 * self.sw_overhead
            + self.wire_latency
            + nbytes / self.link_bw
        )

    def shm(self, nbytes: float) -> float:
        """Uncontended intra-node (memory-bus) transfer."""
        return 2.0 * self.sw_overhead + nbytes / self.mem_bw


def collective_time(
    kind: str,
    nodes: Sequence[int],
    sizes,
    net: NetParams,
    root: int = 0,
) -> float:
    """Completion time (seconds from synchronized entry) of one
    collective over ranks placed at ``nodes``.

    ``sizes`` is the per-message byte count input, shaped per kind:
    a scalar for the uniform collectives (``bcast`` uses the root's
    payload size, the others the per-rank size), a per-rank sequence
    for ``reduce``/``allreduce``/``gather``/``scatter``, and a
    per-rank-per-destination matrix for ``alltoall``.
    """
    if kind in ("bcast", "reduce", "gather", "scatter"):
        return _KINDS[kind](nodes, sizes, net, root)
    return _KINDS[kind](nodes, sizes, net)


def _per_rank(sizes, size: int) -> List[float]:
    if isinstance(sizes, (int, float)):
        return [float(sizes)] * size
    return [float(s) for s in sizes]


def _tables(per: List[float], net: NetParams) -> Tuple[List[float], List[float]]:
    """``(shm, p2p)``: what a message of rank ``r``'s ``per[r]`` bytes
    costs within a node and between two.

    A ``*_time`` function builds these once and then only *picks* per
    edge (``shm[a] if nodes[a] == nodes[b] else p2p[a]``) -- the same
    expression on the same float, so the model times are bit-equal to
    pricing every edge afresh (``tests/collective_model_reference.py``
    is that loop).  Uniform sizes, the common case, cost one call each.
    """
    first = per[0]
    if per.count(first) == len(per):
        return [net.shm(first)] * len(per), [net.p2p(first)] * len(per)
    return [net.shm(b) for b in per], [net.p2p(b) for b in per]


def _from_root(seq: Sequence, root: int) -> Sequence:
    """``seq`` indexed by rank relative to ``root``."""
    root %= len(seq)
    return [*seq[root:], *seq[:root]] if root else seq


def bcast_time(nodes: Sequence[int], nbytes: float, net: NetParams,
               root: int = 0) -> float:
    """Binomial tree; the root (and every forwarder) serializes its
    sends largest-subtree first."""
    size = len(nodes)
    if size <= 1:
        return 0.0
    nodes = _from_root(nodes, root)
    shm, p2p = net.shm(nbytes), net.p2p(nbytes)
    top = 1
    while top < size:
        top <<= 1
    done = 0.0
    # (relative rank, receive mask upper bound, arrival time)
    stack = [(0, top, 0.0)]
    while stack:
        rel, recv_mask, t = stack.pop()
        clock = t
        mask = recv_mask >> 1
        while mask >= 1:
            child = rel + mask
            if child < size:
                clock += shm if nodes[rel] == nodes[child] else p2p
                if clock > done:
                    done = clock
                stack.append((child, mask, clock))
            mask >>= 1
    return done


def reduce_time(nodes: Sequence[int], sizes, net: NetParams,
                root: int = 0) -> float:
    """Binomial tree fan-in; a rank sends its accumulator once all its
    own fold-ins arrived, so cost is the critical path, not the round
    sum (non-power-of-two trees overlap rounds)."""
    size = len(nodes)
    per = _per_rank(sizes, size)
    if size <= 1:
        return 0.0
    nodes = _from_root(nodes, root)
    shm, p2p = _tables(_from_root(per, root), net)
    done = [0.0] * size
    mask = 1
    while mask < size:
        for rel in range(0, size - mask, mask << 1):
            sender = rel + mask
            c = shm[sender] if nodes[sender] == nodes[rel] else p2p[sender]
            arrived = done[sender] + c
            done[sender] = arrived  # send_async blocks until delivery
            if arrived > done[rel]:
                done[rel] = arrived
        mask <<= 1
    return max(done)


def allreduce_time(nodes: Sequence[int], sizes, net: NetParams) -> float:
    """Recursive doubling with the pairwise pre/post fold for
    non-power-of-two sizes."""
    size = len(nodes)
    per = _per_rank(sizes, size)
    if size <= 1:
        return 0.0
    shm, p2p = _tables(per, net)
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    done = [0.0] * size
    for r in range(0, 2 * rem, 2):
        c = shm[r] if nodes[r] == nodes[r + 1] else p2p[r]
        done[r] += c
        if done[r] > done[r + 1]:
            done[r + 1] = done[r]
    # the power-of-two core, by new rank: the odd half of each
    # pre-folded pair, then everyone past the pairs
    ranks = [*range(1, 2 * rem, 2), *range(2 * rem, size)]
    mask = 1
    while mask < pof2:
        prev = [done[r] for r in ranks]
        for nr in range(pof2):
            a = ranks[nr]
            p = ranks[nr ^ mask]
            if nodes[a] == nodes[p]:
                out = prev[nr] + shm[a]
                back = prev[nr ^ mask] + shm[p]
            else:
                out = prev[nr] + p2p[a]
                back = prev[nr ^ mask] + p2p[p]
            done[a] = out if out > back else back
        mask <<= 1
    for r in range(0, 2 * rem, 2):
        c = shm[r + 1] if nodes[r + 1] == nodes[r] else p2p[r + 1]
        done[r + 1] += c
        if done[r + 1] > done[r]:
            done[r] = done[r + 1]
    return max(done)


def barrier_time(nodes: Sequence[int], nbytes: float, net: NetParams) -> float:
    """Dissemination: every round each rank sendrecvs distance ``mask``."""
    size = len(nodes)
    if size <= 1:
        return 0.0
    shm, p2p = net.shm(nbytes), net.p2p(nbytes)
    done = [0.0] * size
    mask = 1
    while mask < size:
        prev = list(done)
        for r in range(size):
            dst = (r + mask) % size
            src = (r - mask) % size
            out = prev[r] + (shm if nodes[r] == nodes[dst] else p2p)
            inc = prev[src] + (shm if nodes[src] == nodes[r] else p2p)
            done[r] = out if out > inc else inc
        mask <<= 1
    return max(done)


def gather_time(nodes: Sequence[int], sizes, net: NetParams,
                root: int = 0) -> float:
    """Binomial fan-in like reduce, but message bytes grow with the
    sender's accumulated subtree (``b * subtree_size``), so each of
    the ``size - 1`` edges is priced on its own byte count."""
    size = len(nodes)
    per = _per_rank(sizes, size)
    if size <= 1:
        return 0.0
    nodes = _from_root(nodes, root)
    per = _from_root(per, root)
    done = [0.0] * size
    mask = 1
    while mask < size:
        for rel in range(0, size - mask, mask << 1):
            sender = rel + mask
            count = min(mask, size - sender)
            b = per[sender] * count
            c = net.shm(b) if nodes[sender] == nodes[rel] else net.p2p(b)
            arrived = done[sender] + c
            done[sender] = arrived
            if arrived > done[rel]:
                done[rel] = arrived
        mask <<= 1
    return max(done)


def allgather_time(nodes: Sequence[int], sizes, net: NetParams) -> float:
    """Ring: p-1 simultaneous-shift steps.  Every block a rank forwards
    is priced at that rank's *own* byte count (the hop algorithm fixes
    ``nbytes`` once per rank), so ``sizes`` may be per-rank."""
    size = len(nodes)
    per = _per_rank(sizes, size)
    if size <= 1:
        return 0.0
    shm, p2p = _tables(per, net)
    done = [0.0] * size
    for _step in range(size - 1):
        prev = list(done)
        for r in range(size):
            right = (r + 1) % size
            left = (r - 1) % size
            out = prev[r] + (shm[r] if nodes[r] == nodes[right] else p2p[r])
            inc = prev[left] + (
                shm[left] if nodes[left] == nodes[r] else p2p[left]
            )
            done[r] = out if out > inc else inc
    return max(done)


def scatter_time(nodes: Sequence[int], sizes, net: NetParams,
                 root: int = 0) -> float:
    """Linear from root; the root's sends serialize."""
    size = len(nodes)
    per = _per_rank(sizes, size)
    if size <= 1:
        return 0.0
    shm, p2p = _tables(per, net)
    clock = 0.0
    for dst in range(size):
        if dst == root:
            continue
        clock += shm[dst] if nodes[root] == nodes[dst] else p2p[dst]
    return clock


def alltoall_time(nodes: Sequence[int], sizes, net: NetParams) -> float:
    """Ring-schedule pairwise exchange; ``sizes`` may be a scalar
    (uniform) or a per-rank-per-destination matrix -- one pair of
    tables per source row, a single shared pair when uniform."""
    size = len(nodes)
    if size <= 1:
        return 0.0
    if isinstance(sizes, (int, float)):
        rows = [_tables(_per_rank(sizes, size), net)] * size
    else:
        rows = [_tables(_per_rank(row, size), net) for row in sizes]
    shm = [row[0] for row in rows]
    p2p = [row[1] for row in rows]
    done = [0.0] * size
    for step in range(1, size):
        prev = list(done)
        for r in range(size):
            dst = (r + step) % size
            src = (r - step) % size
            out = prev[r] + (
                shm[r][dst] if nodes[r] == nodes[dst] else p2p[r][dst]
            )
            inc = prev[src] + (
                shm[src][r] if nodes[src] == nodes[r] else p2p[src][r]
            )
            done[r] = out if out > inc else inc
    return max(done)


_KINDS = {
    "bcast": bcast_time,
    "reduce": reduce_time,
    "allreduce": allreduce_time,
    "barrier": barrier_time,
    "gather": gather_time,
    "allgather": allgather_time,
    "scatter": scatter_time,
    "alltoall": alltoall_time,
}
