"""XOR-group construction.

Section V-A: "FMI splits ranks into XOR encoding groups with ranks in
each group distributed across nodes.  Because the common failure
affects a single node, FMI ensures that each rank in the same node
belongs to a different XOR group."

With block rank placement (ranks ``0..P-1`` on node 0, ``P..2P-1`` on
node 1, ...), the group of a rank is determined by its *local slot* on
the node and its node's *block* of ``g`` consecutive nodes: the group
contains the rank at the same slot on each of the ``g`` nodes of the
block.  Every group therefore spans ``g`` distinct nodes, and two ranks
sharing a node are always in different groups -- losing one node costs
each affected group exactly one member, which XOR can repair.
"""

from __future__ import annotations

from typing import List

from repro.runtime.core import check_geometry

__all__ = ["XorGroupLayout"]


class XorGroupLayout:
    """Rank → XOR-group mapping for block placement.

    ``group_size`` is the requested size; a job with fewer nodes gets
    one group across all of them."""

    def __init__(self, num_ranks: int, procs_per_node: int, group_size: int):
        num_nodes = check_geometry(num_ranks, procs_per_node)
        requested, group_size = group_size, min(group_size, num_nodes)
        if group_size < 2:
            raise ValueError(
                f"an XOR group needs >= 2 nodes, got group_size="
                f"{requested} on {num_nodes} node(s)"
            )
        if num_nodes % group_size != 0:
            raise ValueError(
                f"node count ({num_nodes}) must be a multiple of the XOR "
                f"group size ({group_size})"
            )
        self.num_ranks = num_ranks
        self.procs_per_node = procs_per_node
        self.group_size = group_size
        self.num_nodes = num_nodes
        self.num_blocks = num_nodes // group_size

    # -- rank geometry ----------------------------------------------------
    def node_of(self, rank: int) -> int:
        self._check(rank)
        return rank // self.procs_per_node

    def slot_of(self, rank: int) -> int:
        self._check(rank)
        return rank % self.procs_per_node

    # -- group geometry ----------------------------------------------------
    def group_of(self, rank: int) -> int:
        """Global group index of ``rank``."""
        block = self.node_of(rank) // self.group_size
        return block * self.procs_per_node + self.slot_of(rank)

    def members(self, group: int) -> List[int]:
        """Ranks of ``group``, ordered by position within the group."""
        if not 0 <= group < self.num_groups:
            raise ValueError(f"group {group} out of range")
        block, slot = divmod(group, self.procs_per_node)
        first_node = block * self.group_size
        return [
            (first_node + i) * self.procs_per_node + slot
            for i in range(self.group_size)
        ]

    @property
    def num_groups(self) -> int:
        return self.num_blocks * self.procs_per_node

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range")
