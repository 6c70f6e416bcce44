"""A simulated compute node.

A node bundles the shared hardware its processes contend for:

* ``mem_bw``  -- the memory bus (memcpy checkpoints, XOR encoding);
* ``nic_tx`` / ``nic_rx`` -- the full-duplex InfiniBand link;
* ``tmpfs``   -- node-local RAM filesystem (dies with the node);
* a registry of simulated processes, all killed on :meth:`crash`.

Crash listeners (the endpoint manager, ``fmirun``, the resource
manager) subscribe via :meth:`on_crash`.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.cluster.filesystem import Tmpfs
from repro.cluster.spec import ClusterSpec
from repro.simt.kernel import Simulator
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

    def __init__(self, sim: Simulator, node_id: int, spec: ClusterSpec):
        self.sim = sim
        self.id = node_id
        self.spec = spec
        self.alive = True
        ns = spec.node
        self.mem_bw = BandwidthResource(sim, ns.memory_bw, name=f"mem[{node_id}]")
        net = spec.network
        self.nic_tx = BandwidthResource(sim, net.link_bw, name=f"tx[{node_id}]")
        self.nic_rx = BandwidthResource(sim, net.link_bw, name=f"rx[{node_id}]")
        fs = spec.filesystem
        self.tmpfs = Tmpfs(sim, fs.tmpfs_bw, fs.tmpfs_latency, f"tmpfs[{node_id}]")
        self._procs: List[Process] = []
        self._crash_listeners: List[Callable[["Node", Any], None]] = []
        #: gray-failure degradation factors (1.0 = healthy); >= 1 slows
        #: the node's network path down without killing anything.
        self.limp_bw = 1.0
        self.limp_latency = 1.0
        #: healthy<->limping transition sink (set by Machine so it can
        #: keep an O(1) ``limping_count`` for the macro-event
        #: eligibility check); called with +1 / -1.
        self._limp_sink: Any = None

    # -- process registry ------------------------------------------------------
    def register(self, proc: Process) -> Process:
        """Track ``proc`` so it dies if this node crashes."""
        if not self.alive:
            raise NodeDownError(f"node {self.id} is down")
        self._procs.append(proc)
        return proc

    def spawn(self, generator, name: str = "") -> Process:
        """Spawn a simulated process bound to this node."""
        return self.register(self.sim.spawn(generator, name=name))

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
        # before any state is written: a NaN would flip the limp sink,
        # then surface from a wire's tail timer
        check_limp_factors(bw_factor, latency_factor)
        was_limping = self.limping
        self.limp_bw = float(bw_factor)
        self.limp_latency = float(latency_factor)
        if self._limp_sink is not None and was_limping != self.limping:
            self._limp_sink(1 if self.limping else -1)
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
    def on_crash(self, callback: Callable[["Node", Any], None]) -> None:
        self._crash_listeners.append(callback)

    def crash(self, cause: Any = "failure") -> None:
        """Unrecoverable node failure.

        Kills every registered process (they are never resumed),
        destroys tmpfs contents, and informs listeners.  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        if self._limp_sink is not None and self.limping:
            # A dead node no longer perturbs the fabric; stop counting
            # it against the macro-event eligibility check.
            self._limp_sink(-1)
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "node.crash", "failure", node=self.id, cause=str(cause),
            )
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.kill(cause=f"node {self.id} crash: {cause}")
        self.tmpfs.destroy()
        for listener in list(self._crash_listeners):
            listener(self, cause)

    def __repr__(self) -> str:  # pragma: no cover
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.id} {state}>"
