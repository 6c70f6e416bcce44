"""Machine descriptions and calibrated hardware constants.

The constants here are the *only* quantitative inputs of the
reproduction.  They come from:

* Table II of the paper (Sierra: 1,856 compute nodes, 12 cores, 24 GB
  RAM with 32 GB/s peak memory bandwidth, QLogic QDR InfiniBand);
* Table III (ping-pong calibration: ~3.56 us 1-byte latency and
  ~3.22 GB/s large-message bandwidth);
* Section VI-C (Lustre ``/p/lscratchd`` at 50 GB/s for level-2 C/R);
* the Coastal cluster failure rates used for Figs 16-17 (level-1 MTBF
  130 h, level-2 MTBF 650 h).

Everything downstream (transport, checkpoint engine, analytic models)
reads these specs rather than hard-coding numbers, so a user can model
a different machine by building another :class:`ClusterSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "NodeSpec",
    "NetworkSpec",
    "FilesystemSpec",
    "ClusterSpec",
    "SIERRA",
    "TSUBAME2",
    "COASTAL",
    "GiB",
    "MiB",
    "KiB",
]

KiB = 1024
MiB = 1024**2
GiB = 1024**3

#: Seconds per (365.25-day) year, used to convert failures/year rates.
SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


@dataclass(frozen=True)
class NodeSpec:
    """Per-node hardware description."""

    cores: int = 12
    #: bytes of DRAM per node
    memory_bytes: float = 24 * GiB
    #: peak CPU memory bandwidth, bytes/s (Table II: 32 GB/s)
    memory_bw: float = 32e9
    #: per-core double-precision compute rate actually achieved by the
    #: Himeno stencil kernel, flop/s.  Calibrated so 1,536 processes
    #: reach ~2.1 TFlops as in Fig 15 (~1.37 GFlops per process).
    core_flops: float = 1.37e9


@dataclass(frozen=True)
class NetworkSpec:
    """Interconnect description (QLogic QDR InfiniBand on Sierra).

    ``link_bw`` is calibrated from Table III's 8 MB ping-pong bandwidth
    (3.227 GB/s); one-byte latency decomposes into wire latency plus a
    per-message software overhead charged at each endpoint, which
    differs slightly between the MPI (MVAPICH2) and FMI transports --
    that difference *is* Table III's 3.555 us vs 3.573 us.
    """

    #: NIC / link bandwidth per direction, bytes/s
    link_bw: float = 3.24e9
    #: one-way wire/switch latency, seconds
    wire_latency: float = 1.5e-6
    #: per-message software overhead per endpoint, MPI transport
    sw_overhead_mpi: float = 1.0275e-6
    #: per-message software overhead per endpoint, FMI transport
    sw_overhead_fmi: float = 1.0365e-6
    #: delay before ibverbs reports a dead peer as a disconnection
    #: event (Section VI-A: "ibverbs waits approximately 0.2 seconds")
    ibverbs_close_delay: float = 0.2
    #: per-hop forwarding delay when a failure notification cascades
    #: through the overlay (explicit connection closes + event handling).
    #: Calibrated so notification time grows from ~0.27 s at 48 procs to
    #: ~0.35 s at 1536 procs (Fig 13).
    notify_hop_delay: float = 0.025
    #: cost of establishing one overlay (ibverbs RC) connection during
    #: the H2 Connecting state; the log-ring build time in Fig 14 is
    #: ceil(log2 n) of these.
    overlay_connect_cost: float = 0.028


@dataclass(frozen=True)
class FilesystemSpec:
    """Node-local tmpfs and global PFS characteristics."""

    #: tmpfs streaming bandwidth, bytes/s.  Writing "to memory via a
    #: file system" (SCR's level-1 path) goes through VFS copies,
    #: per-block CRC32 computation, and metadata updates, so the
    #: *effective* per-process streaming rate is far below raw memcpy.
    #: Calibrated (together with the CRC read-back pass in
    #: ``TmpfsStorage``) so MPI+C trails FMI+C by ~10 % on Himeno with
    #: Vaidya-tuned intervals at MTBF = 1 min (Fig 15).
    tmpfs_bw: float = 0.6e9
    #: per-file open/close/metadata cost for tmpfs, seconds
    tmpfs_latency: float = 150e-6
    #: parallel filesystem aggregate bandwidth, bytes/s (Lustre, 50 GB/s)
    pfs_bw: float = 50e9
    #: per-operation PFS latency (metadata round trips), seconds
    pfs_latency: float = 2e-3


@dataclass(frozen=True)
class ClusterSpec:
    """A whole machine: nodes + network + storage + bootstrap costs."""

    name: str = "generic"
    num_nodes: int = 16
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    filesystem: FilesystemSpec = field(default_factory=FilesystemSpec)
    #: time for the resource manager to grant an idle spare node
    spare_grant_latency: float = 0.5
    #: time fmirun.task takes to fork/exec one application process
    proc_spawn_latency: float = 0.02
    #: per-process cost of loading the executable/libraries at launch
    exec_load_latency: float = 0.15
    #: extra fixed cost of a full job (re)launch through the resource
    #: manager -- scheduling, prolog, remote daemons (MPI fail-stop path)
    job_relaunch_latency: float = 5.0
    #: Bootstrap scaling.  Fig 14 shows MPI_Init growing ~sqrt(n)
    #: (launcher/PMI contention): ~0.9 s at 48 procs to ~4.5 s at 1536.
    #: FMI's PMGR bootstrap exchanges roughly half the state, making
    #: FMI_Init "about two times faster" (Section VI-A).
    mpi_init_sqrt_coeff: float = 0.115
    fmi_bootstrap_sqrt_coeff: float = 0.0575
    #: fixed component of either bootstrap (daemon setup, PMI exchange)
    bootstrap_fixed_cost: float = 0.10

    # -- derived bootstrap-time models (shared by runtimes & benches) ----
    def mpi_init_time(self, nprocs: int) -> float:
        """Modelled MVAPICH2/SLURM ``MPI_Init`` time (Fig 14 baseline)."""
        return self.bootstrap_fixed_cost + self.mpi_init_sqrt_coeff * nprocs**0.5

    def fmi_bootstrap_time(self, nprocs: int) -> float:
        """Modelled H1 (PMGR endpoint-exchange) time for FMI."""
        return self.bootstrap_fixed_cost + self.fmi_bootstrap_sqrt_coeff * nprocs**0.5

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """Copy of this spec with a different node count."""
        return replace(self, num_nodes=num_nodes)


#: LLNL Sierra (Table II): 1,856 compute nodes of 1,944 total.
SIERRA = ClusterSpec(name="sierra", num_nodes=1944)

#: TSUBAME2.0 -- used for the failure-characteristics experiments
#: (Table I / Fig 1).  ~1,400 compute nodes.
TSUBAME2 = ClusterSpec(name="tsubame2", num_nodes=1408)

#: LLNL Coastal -- source of the level-1/level-2 failure rates behind
#: Figs 16 and 17 (L1 MTBF = 130 h, L2 MTBF = 650 h).
COASTAL = ClusterSpec(name="coastal", num_nodes=1152)

#: Coastal failure rates from Section VI-C (per second).
COASTAL_L1_RATE = 2.13e-6
COASTAL_L2_RATE = 4.27e-7
COASTAL_L1_MTBF_HOURS = 130.0
COASTAL_L2_MTBF_HOURS = 650.0
