"""Per-layer metrics of the traced run, and the end-to-end metric each moves.

A layer is one billiardlab module.  LAYERS says, for each, which end-to-end
metric a change to that layer should move, on which workload, and where the
prediction is no change.  PER_LAYER lists every metric the traced run
reports, in the order of BENCHMARK.json.  Counts and seconds are per traced
pass (totals over the traced passes divided by their number).
"""

from __future__ import annotations

import statistics

CLI_SUBCOMMANDS = ("mfp", "probe", "simulate", "measure-check", "recurrence",
                   "slices", "reconstruct", "conjugacy")

# layer: (end-to-end metric it should move, on which workload, should not move on)
LAYERS = {
    "measure": ("chords_per_s", "mc-closed-form", "orbits-lockstep"),
    "tables-hits": ("chords_per_s", "hits-iterative (Fourier, windows); "
                    "mc-closed-form (closed form)", "the other of the two"),
    "tables-strata": ("chords_per_s (bounces on orbits-lockstep)", "orbits-lockstep",
                      "hits-iterative"),
    "tables-build": ("setup_s; wall_s (each CLI call rebuilds its table)", "all", "-"),
    "spaces": ("chords_per_s", "mc-closed-form (hyperbolic and cap rows)", "hits-iterative"),
    "dynamics": ("chords_per_s (bounces on orbits-lockstep); kept_fraction",
                 "orbits-lockstep; all", "-"),
    "ergodic": ("chords_per_s (bounces on orbits-lockstep)", "orbits-lockstep",
                "mc-closed-form"),
    "lyapunov": ("chords_per_s; setup_s", "mc-closed-form", "hits-iterative"),
    "holography": ("wall_s", "holography", "the other three"),
    "parallel": ("chords_per_s", "mc-closed-form", "orbits-lockstep"),
    "cli": ("wall_s", "holography, orbits-lockstep (simulate)", "hits-iterative"),
    "setup": ("setup_s", "all", "-"),
    "trace": ("none: cost of the tracing itself", "all", "-"),
}


def _m(layer, name, unit, better):
    return {"layer": layer, "name": name, "unit": unit, "better": better}


def _cs(layer, base, calls=True, rows=True):
    out = []
    if calls:
        out.append(_m(layer, f"{base}.calls", "count", "lower"))
    if rows:
        out.append(_m(layer, f"{base}.rows", "count", "higher"))
    out.append(_m(layer, f"{base}.self_s", "s", "lower"))
    return out


PER_LAYER = (
    _cs("measure", "measure.sample_mu_theta")
    + [_m("measure", "measure.sample_mu_theta.resampled_fraction", "ratio", "lower")]
    + _cs("measure", "measure.PhaseBox.contains", calls=False)
    + _cs("tables-hits", "tables.first_hit")
    + [m for kind in ("ball-euclidean", "ball-hyperbolic", "ball-sphere", "fourier")
       for m in _cs("tables-hits", f"tables.ray_hit.{kind}", calls=False)]
    + _cs("tables-hits", "tables.window_hit")
    + [_m("tables-hits", "tables.torus.windows_per_ray", "count", "lower"),
       _m("tables-hits", "tables.fourier.gauge_rows_per_ray", "count", "lower")]
    + _cs("tables-strata", "tables.classify")
    + _cs("tables-strata", "tables.active_piece")
    + _cs("tables-strata", "tables.inward_normal_at")
    + _cs("tables-build", "tables.Table.init", rows=False)
    + _cs("spaces", "spaces.flow")
    + [_m("spaces", "spaces.self_s", "s", "lower")]
    + _cs("dynamics", "dynamics.causality_batch")
    + [_m("dynamics", "dynamics.causality_batch.ns_per_row", "ns", "lower")]
    + _cs("dynamics", "dynamics.reflect_batch")
    + [_m("dynamics", "dynamics.billiard_batch.us_per_call", "us", "lower"),
       _m("dynamics", "dynamics.billiard_batch.rows_per_call", "count", "higher")]
    + _cs("dynamics", "dynamics.iterate_orbit", rows=False)
    + [_m("dynamics", f"dynamics.{k}", "count", "lower")
       for k in ("trapped", "grazing", "degenerate")]
    + [_m("dynamics", "dynamics.excluded_fraction", "ratio", "lower")]
    + [_m("ergodic", f"ergodic.{f}.self_s", "s", "lower")
       for f in ("time_average_many", "recurrence_test", "space_average", "mean_free_path")]
    + _cs("lyapunov", "lyapunov.value_batch")
    + [_m("lyapunov", f"lyapunov.{f}.self_s", "s", "lower")
       for f in ("build_well_balanced_F", "var_F_boundary", "slice_area_curve")]
    + [_m("holography", f"holography.{f}.self_s", "s", "lower")
       for f in ("generate_scattering_dataset", "conjugacy_residual", "reconstruct_chords")]
    + [_m("holography", "holography.reconstruct_chords.points", "count", "higher")]
    + [_m("parallel", "parallel.run_blocks.calls", "count", "lower"),
       _m("parallel", "parallel.run_blocks.blocks", "count", "higher"),
       _m("parallel", "parallel.run_blocks.self_s", "s", "lower")]
    + [_m("cli", f"cli.{sub}.wall_s", "s", "lower") for sub in CLI_SUBCOMMANDS]
    + [_m("cli", "cli.write_s", "s", "lower"),
       _m("cli", "cli.bytes_written", "bytes", "lower"),
       _m("cli", "cli.version_string.self_s", "s", "lower")]
    + [_m("setup", f"setup.{k}", "s", "lower") for k in ("import_s", "tables_s", "f_s")]
    + [_m("trace", "trace.overhead_s", "s", "lower"),
       _m("trace", "trace.spans", "count", "lower")]
)

# span name of the traced run -> metric prefix, where they differ
SPAN_METRIC = {
    "tables.Table.first_hit": "tables.first_hit",
    "tables.Ball.ray_hit.euclidean": "tables.ray_hit.ball-euclidean",
    "tables.Ball.ray_hit.hyperbolic-ball": "tables.ray_hit.ball-hyperbolic",
    "tables.Ball.ray_hit.sphere": "tables.ray_hit.ball-sphere",
    "tables.RadialFourierCurve.ray_hit": "tables.ray_hit.fourier",
    "tables.Ball.window_hit": "tables.window_hit",
    "tables.Table.classify": "tables.classify",
    "tables.Table.active_piece": "tables.active_piece",
    "tables.Table.inward_normal_at": "tables.inward_normal_at",
    "lyapunov.LyapunovF.value_batch": "lyapunov.value_batch",
}


# -- hooks that refine span names and feed counters ------------------------------


def _causality_flags(rec, args, batch):
    rec.count("dynamics.trapped", int(batch.trapped.sum()))
    rec.count("dynamics.grazing", int(batch.grazing.sum()))
    rec.count("dynamics.degenerate", int(batch.degenerate.sum()))


def _resampled(rec, args, samples):
    rec.count("measure.resampled_rows", samples.resampled_fraction * len(samples))


def _torus_rays(rec, args, hit):
    table = args[0]
    if table.space.kind == "flat-torus":
        rec.count("tables.torus.ray_pieces", hit.s.shape[0] * len(table.pieces))


def _cloud_points(rec, args, recon):
    rec.count("holography.reconstruct_chords.points", recon.points.shape[0])


def _blocks(rec, args, result):
    rec.count("parallel.run_blocks.blocks", len(args[1]))


SPECIAL = {
    "dynamics.causality_batch": {"hook": _causality_flags},
    "measure.sample_mu_theta": {"rows": lambda args, result: len(result), "hook": _resampled},
    "tables.Table.first_hit": {"hook": _torus_rays},
    "tables.Ball.ray_hit": {"namer": lambda args: f"tables.Ball.ray_hit.{args[1].kind}"},
    "holography.reconstruct_chords": {"hook": _cloud_points},
    "parallel.run_blocks": {"hook": _blocks},
}


def install(recorder):
    """Wrap the public functions and methods of every layer module."""
    from billiardlab import (cli, dynamics, ergodic, holography, lyapunov, measure,
                             parallel, spaces, tables)

    modules = [measure, tables, spaces, dynamics, ergodic, lyapunov, holography,
               parallel, cli]
    classes = [tables.Table, tables.Ball, tables.RadialFourierCurve, tables.HalfSpaceOrCap,
               lyapunov.LyapunovF, measure.PhaseBox, spaces.ModelSpace, spaces.Euclidean,
               spaces.FlatTorus, spaces.HyperbolicBall, spaces.Sphere]
    # cli.main is covered by the benchmark's own operation span, named per subcommand
    recorder.install(modules, classes, SPECIAL, skip={"cli.main"})
    return recorder


# -- metric assembly ----------------------------------------------------------------


def compute(recorder, traced_passes, untraced_cli, bytes_written, overhead_s):
    """Every PER_LAYER metric except setup.*, which run.py measures.

    traced_passes: recorder pass entries [id, first span, last span];
    untraced_cli: list over untraced passes of {subcommand: seconds}.
    """
    n = len(traced_passes)
    first, last = traced_passes[0][1], traced_passes[-1][2]
    agg = recorder.aggregate(first, last)
    by_metric = {}
    for span, a in agg.items():
        key = SPAN_METRIC.get(span, span)
        tgt = by_metric.setdefault(key, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})
        for k in tgt:
            tgt[k] += a[k]
    zero = {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}
    get = lambda key: by_metric.get(key, zero)  # noqa: E731
    out = dict.fromkeys((m["name"] for m in PER_LAYER if m["layer"] != "setup"), 0.0)
    for name in out:
        base, _, field = name.rpartition(".")
        if field in ("calls", "rows", "self_s"):
            out[name] = get(base)[field] / n
    # spaces: flow counts only outermost flow spans (FlatTorus.flow calls Euclidean.flow)
    flow_names = [s for s in agg if s.startswith("spaces.") and s.endswith(".flow")]
    flow_calls = sum(agg[s]["calls"] for s in flow_names)
    nested_calls, nested = recorder.under("spaces.Euclidean.flow", "spaces.FlatTorus.flow",
                                          first, last)
    out["spaces.flow.calls"] = (flow_calls - nested_calls) / n
    out["spaces.flow.rows"] = (sum(agg[s]["rows"] for s in flow_names) - nested) / n
    out["spaces.flow.self_s"] = sum(agg[s]["self_s"] for s in flow_names) / n
    out["spaces.self_s"] = sum(a["self_s"] for s, a in agg.items() if s.startswith("spaces.")) / n
    cb = get("dynamics.causality_batch")
    out["dynamics.causality_batch.ns_per_row"] = (cb["total_s"] / cb["rows"] * 1e9
                                                  if cb["rows"] else 0.0)
    bb = get("dynamics.billiard_batch")
    out["dynamics.billiard_batch.us_per_call"] = (bb["total_s"] / bb["calls"] * 1e6
                                                  if bb["calls"] else 0.0)
    out["dynamics.billiard_batch.rows_per_call"] = bb["rows"] / bb["calls"] if bb["calls"] else 0.0
    c = recorder.counters
    for k in ("trapped", "grazing", "degenerate"):
        out[f"dynamics.{k}"] = c.get(f"dynamics.{k}", 0) / n
    excluded = sum(c.get(f"dynamics.{k}", 0) for k in ("trapped", "grazing", "degenerate"))
    out["dynamics.excluded_fraction"] = excluded / cb["rows"] if cb["rows"] else 0.0
    sm = get("measure.sample_mu_theta")
    out["measure.sample_mu_theta.resampled_fraction"] = (
        c.get("measure.resampled_rows", 0) / sm["rows"] if sm["rows"] else 0.0)
    ray_pieces = c.get("tables.torus.ray_pieces", 0)
    out["tables.torus.windows_per_ray"] = (get("tables.window_hit")["rows"] / ray_pieces
                                           if ray_pieces else 0.0)
    fourier_rows = get("tables.ray_hit.fourier")["rows"]
    _, gauge_rows = recorder.under("tables.RadialFourierCurve.gauge",
                                   "tables.RadialFourierCurve.ray_hit", first, last)
    out["tables.fourier.gauge_rows_per_ray"] = gauge_rows / fourier_rows if fourier_rows else 0.0
    out["holography.reconstruct_chords.points"] = (
        c.get("holography.reconstruct_chords.points", 0) / n)
    out["parallel.run_blocks.blocks"] = c.get("parallel.run_blocks.blocks", 0) / n
    for sub in CLI_SUBCOMMANDS:
        per_pass = [p.get(sub, 0.0) for p in untraced_cli]
        out[f"cli.{sub}.wall_s"] = statistics.median(per_pass) if per_pass else 0.0
    out["cli.write_s"] = sum(a["self_s"] for s, a in agg.items()
                             if s.startswith("cli.") and s[4:] in CLI_SUBCOMMANDS) / n
    out["cli.bytes_written"] = bytes_written
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = (last - first) / n
    return out

