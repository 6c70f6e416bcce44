"""The per-edge pricing loops, kept as a test oracle.

This is :mod:`repro.models.collective_model` as it stood before the
``*_time`` functions learned to price from two per-rank tables: every
message edge calls :meth:`NetParams.cost`, which picks the intra- or
inter-node formula and evaluates it on the spot.  Everything below the
imports is preserved verbatim; ``test_collective_model_oracle.py``
prices the same random placements and size shapes with this module and
the production one and asserts float ``==``, not ``approx``.

It defines *what* a macro collective costs; do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

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
        """Uncontended inter-node transfer (Fabric.transfer_time)."""
        return (
            2.0 * self.sw_overhead
            + self.wire_latency
            + nbytes / self.link_bw
        )

    def shm(self, nbytes: float) -> float:
        """Uncontended intra-node (memory-bus) transfer."""
        return 2.0 * self.sw_overhead + nbytes / self.mem_bw

    def cost(self, src_node: int, dst_node: int, nbytes: float) -> float:
        if src_node == dst_node:
            return self.shm(nbytes)
        return self.p2p(nbytes)


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


def bcast_time(nodes: Sequence[int], nbytes: float, net: NetParams,
               root: int = 0) -> float:
    """Binomial tree; the root (and every forwarder) serializes its
    sends largest-subtree first."""
    size = len(nodes)
    if size <= 1:
        return 0.0
    node_of = lambda rel: nodes[(rel + root) % size]  # noqa: E731
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
                clock += net.cost(node_of(rel), node_of(child), nbytes)
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
    node_of = lambda rel: nodes[(rel + root) % size]  # noqa: E731
    b_of = lambda rel: per[(rel + root) % size]  # noqa: E731
    done = [0.0] * size
    mask = 1
    while mask < size:
        for rel in range(0, size - mask, mask << 1):
            sender = rel + mask
            c = net.cost(node_of(sender), node_of(rel), b_of(sender))
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
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    done = [0.0] * size
    for r in range(0, 2 * rem, 2):
        c = net.cost(nodes[r], nodes[r + 1], per[r])
        done[r] += c
        if done[r] > done[r + 1]:
            done[r + 1] = done[r]

    def realrank(nr: int) -> int:
        return nr * 2 + 1 if nr < rem else nr + rem

    mask = 1
    while mask < pof2:
        ranks = [realrank(nr) for nr in range(pof2)]
        prev = [done[r] for r in ranks]
        for nr in range(pof2):
            a = ranks[nr]
            p = ranks[nr ^ mask]
            out = prev[nr] + net.cost(nodes[a], nodes[p], per[a])
            back = prev[nr ^ mask] + net.cost(nodes[p], nodes[a], per[p])
            done[a] = out if out > back else back
        mask <<= 1
    for r in range(0, 2 * rem, 2):
        c = net.cost(nodes[r + 1], nodes[r], per[r + 1])
        done[r + 1] += c
        if done[r + 1] > done[r]:
            done[r] = done[r + 1]
    return max(done)


def barrier_time(nodes: Sequence[int], nbytes: float, net: NetParams) -> float:
    """Dissemination: every round each rank sendrecvs distance ``mask``."""
    size = len(nodes)
    if size <= 1:
        return 0.0
    done = [0.0] * size
    mask = 1
    while mask < size:
        prev = list(done)
        for r in range(size):
            dst = (r + mask) % size
            src = (r - mask) % size
            out = prev[r] + net.cost(nodes[r], nodes[dst], nbytes)
            inc = prev[src] + net.cost(nodes[src], nodes[r], nbytes)
            done[r] = out if out > inc else inc
        mask <<= 1
    return max(done)


def gather_time(nodes: Sequence[int], sizes, net: NetParams,
                root: int = 0) -> float:
    """Binomial fan-in like reduce, but message bytes grow with the
    sender's accumulated subtree (``b * subtree_size``)."""
    size = len(nodes)
    per = _per_rank(sizes, size)
    if size <= 1:
        return 0.0
    node_of = lambda rel: nodes[(rel + root) % size]  # noqa: E731
    done = [0.0] * size
    mask = 1
    while mask < size:
        for rel in range(0, size - mask, mask << 1):
            sender = rel + mask
            count = min(mask, size - sender)
            b = per[(sender + root) % size] * count
            c = net.cost(node_of(sender), node_of(rel), b)
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
    done = [0.0] * size
    for _step in range(size - 1):
        prev = list(done)
        for r in range(size):
            right = (r + 1) % size
            left = (r - 1) % size
            out = prev[r] + net.cost(nodes[r], nodes[right], per[r])
            inc = prev[left] + net.cost(nodes[left], nodes[r], per[left])
            done[r] = out if out > inc else inc
    return max(done)


def scatter_time(nodes: Sequence[int], sizes, net: NetParams,
                 root: int = 0) -> float:
    """Linear from root; the root's sends serialize."""
    size = len(nodes)
    per = _per_rank(sizes, size)
    clock = 0.0
    for dst in range(size):
        if dst == root:
            continue
        clock += net.cost(nodes[root], nodes[dst], per[dst])
    return clock


def alltoall_time(nodes: Sequence[int], sizes, net: NetParams) -> float:
    """Ring-schedule pairwise exchange; ``sizes`` may be a scalar
    (uniform) or a per-rank-per-destination matrix."""
    size = len(nodes)
    if size <= 1:
        return 0.0
    uniform = isinstance(sizes, (int, float))
    b_of = (
        (lambda src, dst: float(sizes))
        if uniform
        else (lambda src, dst: float(sizes[src][dst]))
    )
    done = [0.0] * size
    for step in range(1, size):
        prev = list(done)
        for r in range(size):
            dst = (r + step) % size
            src = (r - step) % size
            out = prev[r] + net.cost(nodes[r], nodes[dst], b_of(r, dst))
            inc = prev[src] + net.cost(nodes[src], nodes[r], b_of(src, r))
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
