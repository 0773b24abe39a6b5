"""The benchmark's tracer still finds what it wraps in billiardlab.

`benchmark/layers.py` names spans after modules, classes and methods, so a
refactor that renames one leaves its metrics at zero without an error.
This runs the tracer on three presets, and one traced pass of each workload
with its checks; it reads `benchmark/` and changes nothing there.
"""

import importlib
import sys
from pathlib import Path

import pytest

from billiardlab import dynamics, measure, presets, tables

BENCH = str(Path(__file__).resolve().parents[1] / "benchmark")


def test_benchmark_tracer_names_the_hit_spans():
    sys.path.insert(0, BENCH)
    try:
        layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    finally:
        sys.path.remove(BENCH)
    ray_hit = tables.Ball.ray_hit
    rec = layers.install(spans.Recorder())
    try:
        assert tables.Ball.ray_hit is not ray_hit
        rec.begin_pass(1)
        for name in ("disk", "cap-pi4", "torus-two-balls"):
            table = presets.preset_table(name)
            s = measure.sample_mu_theta(table, 64, seed=5)
            assert dynamics.causality_batch(table, s.q, s.v).ok.all()
        rec.end_pass()
    finally:
        rec.uninstall()
    assert tables.Ball.ray_hit is ray_hit
    agg = rec.aggregate()
    assert agg["tables.Table.first_hit"]["rows"] >= 3 * 64
    assert agg["tables.Ball.ray_hit.euclidean"]["rows"] >= 64
    assert agg["tables.Ball.ray_hit.sphere"]["rows"] >= 64
    assert agg["tables.window_hit"]["rows"] >= 64
    metrics = layers.compute(rec, rec.passes, [], 0, 0.0)
    for name in ("tables.first_hit.rows", "tables.ray_hit.ball-euclidean.rows",
                 "tables.ray_hit.ball-sphere.rows", "dynamics.causality_batch.rows"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("workload", ["mc-closed-form", "orbits-lockstep", "hits-iterative",
                                      "holography"])
def test_one_traced_benchmark_pass_is_correct(workload, tmp_path):
    # one traced pass, as `benchmark/run.py --trace 1` runs it: every named check
    # holds and the rows the tracer saw are the rows the inputs imply
    sys.path.insert(0, BENCH)
    try:
        layers, spans, worker, workloads = (importlib.import_module(m) for m in
                                            ("layers", "spans", "worker", "workloads"))
    finally:
        sys.path.remove(BENCH)
    workloads.write_inputs(tmp_path)
    ctx = worker.Context(workload, tmp_path)
    ops = workloads.operations(workload, workloads.pass_seed(1, 1), tmp_path)
    rec = spans.Recorder()
    rec.begin_pass(1)
    layers.install(rec)
    try:
        res, outputs = worker.run_pass(ops, ctx, rec)
    finally:
        rec.uninstall()
        rec.end_pass()
    assert res["failed_ops"] == []
    assert res["checks"] and all(check["ok"] for check in res["checks"])
    worker._coverage(rec, rec.passes[-1], outputs, ctx)  # SystemExit on a row mismatch
