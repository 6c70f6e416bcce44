"""Process states (Figure 5).

Every transition is an ``fmi.state`` trace instant
(:meth:`~repro.fmi.runtime.FmiProcess._set_state`); the obs report
(:mod:`repro.obs.summary`) reads dwell times and the H3 share from it.
"""

from __future__ import annotations

import enum

__all__ = ["ProcState"]


class ProcState(enum.Enum):
    """The paper's three live states plus the terminal one."""

    H1_BOOTSTRAPPING = "H1"
    H2_CONNECTING = "H2"
    H3_RUNNING = "H3"
    DONE = "done"
