"""repro -- a reproduction of "FMI: Fault Tolerant Messaging Interface
for Fast and Transparent Recovery" (Sato et al., IPDPS 2014).

A survivable MPI-like runtime on a calibrated, deterministic
discrete-event-simulated HPC cluster.  Layer map (bottom up):

==================  ==================================================
``repro.simt``      discrete-event kernel: generator processes,
                    interrupts/kills, fair-share bandwidth resources
``repro.cluster``   the machine: nodes, fabric, tmpfs/PFS, resource
                    manager, failure injection
``repro.net``       PSM-like transport, MPI-style matching,
                    ibverbs-like connections, overlays, PMGR bootstrap
``repro.mpi``       the fail-stop MPI baseline + SCR checkpointing
``repro.fmi``       the paper's contribution: the survivable runtime
``repro.models``    the paper's analytic models (C/R cost, Vaidya,
                    availability, multilevel efficiency)
``repro.apps``      ping-pong, Himeno, conjugate gradient, synthetic
``repro.analysis``  fixed-width table rendering
==================  ==================================================

Start with :class:`repro.fmi.FmiJob` (see the README quickstart) or the
scripts under ``examples/``.
"""

__version__ = "1.0.0"
