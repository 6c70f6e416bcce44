"""Smoke test of the benchmark itself (not part of tier-1)::

    python -m pytest benchmarks/perf/bench_perf_smoke.py -q

Runs every workload at a tiny size through the same code path as the
real benchmark and checks that what it emits, what ``spec.py``
declares, ``BENCHMARK.json`` and the README all name the same things.
"""

import ast
import json
import math
import os
import re
import sys
from fnmatch import fnmatchcase

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "BENCH_smoke.json"
    status = run.main(["--tiny", "--repeats", "1", "--seconds", "0.3",
                       "--out", str(out)])
    assert status == 0, "a tiny workload failed its output checks"
    with open(out) as fh:
        return json.load(fh)


def test_every_declared_metric_once_and_finite(record):
    assert list(record["workloads"]) == list(spec.WORKLOADS)
    for name, w in record["workloads"].items():
        assert list(w["end_to_end"]) == [m.name for m in spec.END_TO_END], name
        assert list(w["per_layer"]) == [m.name for m in spec.PER_LAYER], name
        for metric, s in w["end_to_end"].items():
            assert math.isfinite(s["median"]) and s["median"] > 0, (name, metric)
        for metric, m in w["per_layer"].items():
            assert math.isfinite(m["value"]), (name, metric)
        assert w["failed"] == 0 and w["attempted"] >= 1, w["notes"]
        assert w["per_layer"]["py.unmapped_self_share"]["value"] < 0.05


def _per_layer(record):
    return {name: {k: v["value"] for k, v in w["per_layer"].items()}
            for name, w in record["workloads"].items()}


def _check_declared_properties(record, traffic_factor, checkpoint_share):
    """What ``spec.WORKLOADS`` says each workload is for, as relations
    between the ledgers of one record.  The two floors are lower at the
    tiny sizes, where ``himeno_cr`` has two nodes and an XOR group of 2."""
    layer = _per_layer(record)
    ops = {name: w["ops"] for name, w in record["workloads"].items()}

    def per_op(name, metric):
        return layer[name][metric] / ops[name]

    # himeno_ff bypasses checkpoints, the macro tier and every plane
    ff = layer["himeno_ff"]
    assert ff["fmi.checkpoint.checkpoints_done"] == 0
    assert ff["fmi.checkpoint.incl_share"] == 0
    assert ff["mpi.macro.instances_macro"] == 0
    assert ff["mpi.collectives.incl_share"] > 0.10
    # himeno_cr is himeno_ff's app plus checkpoints and one recovery:
    # their traffic multiplies the events and the calls per rank-iteration
    cr = layer["himeno_cr"]
    assert cr["fmi.checkpoint.checkpoints_done"] > 0
    assert cr["fmi.checkpoint.restores_done"] > 0
    assert cr["fmi.runtime.recoveries"] == 1 and cr["sim_recovery_s"] > 0
    for metric in ("simt.kernel.events", "simt.resources.calls_m"):
        assert per_op("himeno_cr", metric) \
            > traffic_factor * per_op("himeno_ff", metric), metric
    assert cr["fmi.checkpoint.incl_share"] > checkpoint_share
    # the recovery planes run on himeno_planes (and inside chaos and
    # sched tenants) and nowhere else
    planes = layer["himeno_planes"]
    assert planes["fmi.msglog.sim_recovery_s"] > 0
    assert planes["fmi.replication.sim_recovery_s"] > 0
    assert planes["fmi.msglog.incl_share"] > 0.015
    assert planes["fmi.replication.incl_share"] > 0.015
    for name in ("himeno_ff", "himeno_cr", "macro_16k"):
        assert layer[name]["fmi.msglog.calls_m"] == 0, name
        assert layer[name]["fmi.replication.calls_m"] == 0, name
    # macro_16k: every collective on the macro tier, and the most memory
    macro = layer["macro_16k"]
    assert macro["mpi.macro.instances_hop"] == 0
    assert macro["mpi.collectives.incl_share"] == 0
    assert macro["mpi.macro.incl_share"] > 0.10
    assert macro["fmi.checkpoint.incl_share"] == 0
    # tracing is on in chaos_sweep only; the scheduler runs in sched_soak only
    assert layer["chaos_sweep"]["obs.trace_events"] > 0
    assert layer["chaos_sweep"]["chaos.calls_m"] > 0
    assert layer["sched_soak"]["sched.calls_m"] > 0
    for name in layer:
        if name != "chaos_sweep":
            assert layer[name]["chaos.calls_m"] == 0, name
        if name not in ("chaos_sweep", "sched_soak"):
            assert layer[name]["obs.trace_events"] == 0, name
        if name != "sched_soak":
            assert layer[name]["sched.calls_m"] == 0, name


def test_layers_show_what_each_workload_is_for(record):
    _check_declared_properties(record, traffic_factor=1.5,
                               checkpoint_share=0.015)


def test_manifest_is_benchmark_json_and_within_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        text = fh.read()
    manifest = json.loads(text)
    assert manifest == spec.manifest()
    assert len(text) <= 64 * 1024
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for w in manifest["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_repro_module_maps_to_one_layer():
    src = os.path.join(ROOT, "src", "repro")
    for folder, _dirs, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                assert layers.layer_of(path) in layers.LAYERS[:-1], path
    assert layers.layer_of("/usr/lib/python3/heapq.py") == layers.EXT
    assert layers.layer_of("~") == layers.EXT


def test_entry_points_name_functions_that_exist():
    for metric, entries in layers.ENTRY_POINTS.items():
        for rel, patterns in entries:
            with open(os.path.join(ROOT, "src", "repro", rel)) as fh:
                defined = {
                    node.name for node in ast.walk(ast.parse(fh.read()))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
            for pattern in patterns:
                assert any(fnmatchcase(n, pattern) for n in defined), (
                    f"{metric}: no function {pattern!r} in {rel}")


def test_committed_record_and_readme_agree():
    path = os.path.join(HERE, "results", "BENCH_11.json")
    with open(path) as fh:
        committed = json.load(fh)
    assert list(committed["workloads"]) == list(spec.WORKLOADS)
    _check_declared_properties(committed, traffic_factor=3,
                               checkpoint_share=0.05)
    peak = {name: w["end_to_end"]["peak_rss_mb"]["median"]
            for name, w in committed["workloads"].items()}
    assert peak["macro_16k"] > 2 * max(
        v for name, v in peak.items() if name != "macro_16k")
    for w in committed["workloads"].values():
        assert list(w["end_to_end"]) == [m.name for m in spec.END_TO_END]
        assert list(w["per_layer"]) == [m.name for m in spec.PER_LAYER]
        assert w["failed"] == 0
    with open(os.path.join(HERE, "README.md")) as fh:
        readme = fh.read()
    assert run.report(path) in readme, "regenerate with `run.py report`"
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert f"`{m.name}`" in readme, f"README does not explain {m.name}"
    for name in spec.WORKLOADS:
        assert f"`{name}`" in readme
