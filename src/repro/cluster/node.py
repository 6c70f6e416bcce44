"""A simulated compute node.

A node bundles the shared hardware its processes contend for:

* ``mem_bw``  -- the memory bus (memcpy checkpoints, XOR encoding);
* ``nic_tx`` / ``nic_rx`` -- the full-duplex InfiniBand link;
* ``tmpfs``   -- node-local RAM filesystem (dies with the node);
* a registry of simulated processes, all killed on :meth:`crash`.

A node reports to the :class:`~repro.cluster.machine.Machine` that
built it: a crash goes to the machine's ``death_listeners`` (the
connection managers and detectors of the jobs it hosts), and a limp
transition moves the machine's ``limping_count``.
"""

from __future__ import annotations

from typing import Any, List

from repro.cluster.filesystem import Tmpfs
from repro.simt.process import Process
from repro.simt.resources import BandwidthResource

__all__ = ["Node", "NodeDownError", "check_limp_factors"]


class NodeDownError(RuntimeError):
    """Operation attempted on a crashed node."""


def check_limp_factors(bw_factor: float, latency_factor: float) -> None:
    """Refuse limp factors below 1.0: a limp only slows a node down.
    ``not >=`` so that NaN is refused too."""
    if not (bw_factor >= 1.0 and latency_factor >= 1.0):
        raise ValueError(
            f"limp factors must be >= 1.0, got {bw_factor!r}, "
            f"{latency_factor!r}"
        )


class Node:
    """One compute node of the simulated machine."""

    def __init__(self, machine, node_id: int):
        self.machine = machine
        sim = self.sim = machine.sim
        spec = self.spec = machine.spec
        self.id = node_id
        self.alive = True
        ns = spec.node
        self.mem_bw = BandwidthResource(sim, ns.memory_bw, name=f"mem[{node_id}]")
        net = spec.network
        self.nic_tx = BandwidthResource(sim, net.link_bw, name=f"tx[{node_id}]")
        self.nic_rx = BandwidthResource(sim, net.link_bw, name=f"rx[{node_id}]")
        fs = spec.filesystem
        self.tmpfs = Tmpfs(sim, fs.tmpfs_bw, fs.tmpfs_latency, f"tmpfs[{node_id}]")
        self._procs: List[Process] = []
        #: gray-failure degradation factors (1.0 = healthy); >= 1 slows
        #: the node's network path down without killing anything.
        self.limp_bw = 1.0
        self.limp_latency = 1.0

    # -- process registry ------------------------------------------------------
    def spawn(self, generator, name: str = "") -> Process:
        """Spawn a simulated process bound to this node: a crash kills
        it.  A dead node refuses it before its start is queued."""
        if not self.alive:
            raise NodeDownError(f"node {self.id} is down")
        proc = Process(self.sim, generator, name)
        self._procs.append(proc)
        return proc

    # -- memory-bus helpers -----------------------------------------------------
    def memcpy(self, nbytes: float):
        """Copy ``nbytes`` through the memory bus (fair-shared)."""
        return self.mem_bw.transfer(nbytes)

    def compute(self, flops: float):
        """Event firing after ``flops`` of work on one core.

        Compute is modelled per-process (each rank owns its core), so
        this is a plain timeout rather than a shared resource.
        """
        return self.sim.timeout(flops / self.spec.node.core_flops)

    # -- gray failures: limping -------------------------------------------------
    @property
    def limping(self) -> bool:
        return self.limp_bw != 1.0 or self.limp_latency != 1.0

    def set_limp(self, bw_factor: float = 1.0, latency_factor: float = 1.0) -> None:
        """Degrade (or restore) this node's network path.

        A limping node is alive and makes progress -- the defining gray
        failure -- but its NIC runs at ``link_bw / bw_factor`` and every
        message it touches pays ``latency_factor`` times the per-hop
        latency/overhead.  ``set_limp(1.0, 1.0)`` reverts to healthy.
        In-flight transfers keep accrued progress and continue at the
        new rate.
        """
        if not self.alive:
            raise NodeDownError(f"node {self.id} is down")
        # before any state is written: a NaN would move the machine's
        # limping count, then surface from a wire's tail timer
        check_limp_factors(bw_factor, latency_factor)
        was_limping = self.limping
        self.limp_bw = float(bw_factor)
        self.limp_latency = float(latency_factor)
        self.machine.limping_count += self.limping - was_limping
        cap = self.spec.network.link_bw / self.limp_bw
        self.nic_tx.set_capacity(cap)
        self.nic_rx.set_capacity(cap)
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "node.limp", "failure", node=self.id,
                bw_factor=self.limp_bw, latency_factor=self.limp_latency,
            )

    def clear_limp(self) -> None:
        """Restore full network health (no-op on a healthy node)."""
        if self.limping:
            self.set_limp(1.0, 1.0)

    # -- failure ------------------------------------------------------------
    def crash(self, cause: Any = "failure") -> None:
        """Unrecoverable node failure.

        Kills every registered process (they are never resumed),
        destroys tmpfs contents, and informs the machine's death
        listeners.  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        # A dead node no longer perturbs the fabric; stop counting it
        # against the macro-event eligibility check.
        self.machine.limping_count -= self.limping
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "node.crash", "failure", node=self.id, cause=str(cause),
            )
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.kill(cause=f"node {self.id} crash: {cause}")
        self.tmpfs.destroy()
        for listener in list(self.machine.death_listeners):
            listener(self, cause)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.id} {state}>"
