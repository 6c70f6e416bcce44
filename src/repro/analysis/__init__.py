"""repro.analysis -- fixed-width table rendering.

The run report is read from the trace: :mod:`repro.obs.summary`.
"""

from repro.analysis.tables import Table, fmt_bytes, fmt_seconds

__all__ = ["Table", "fmt_bytes", "fmt_seconds"]
