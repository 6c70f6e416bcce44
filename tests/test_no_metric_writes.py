"""Guard: metrics are a view of the trace, and no site writes them.

``repro.obs.metrics.MetricsRegistry`` reads every counter, gauge and
histogram off the simulator's tracer, so the runtime emits each fact
once, as a trace event.  This walks every module under ``src/repro``
outside ``repro/obs`` and fails on any ``.metrics`` attribute read --
the handle a site would need to write a metric a second time.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
OBS = SRC / "obs"


def metrics_reads(tree: ast.AST):
    """Line numbers of ``<anything>.metrics``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "metrics":
            yield node.lineno


def test_no_site_outside_obs_reads_metrics():
    modules = sorted(path for path in SRC.rglob("*.py") if OBS not in path.parents)
    assert modules, f"nothing found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno}"
        for path in modules
        for lineno in metrics_reads(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, "metric writes outside repro/obs: " + ", ".join(offenders)


def test_the_guard_sees_every_spelling():
    source = (
        "job.metrics.counter('x').inc()\n"
        "m = self.machine.metrics\n"
        "metrics = registry\n"
        "getattr(sim, 'tracer').metrics\n"
    )
    assert sorted(metrics_reads(ast.parse(source))) == [1, 2, 4]
