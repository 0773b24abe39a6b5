"""Batch front-end: presets, experiment subcommands, deterministic output.

Every subcommand loads a table (preset or JSON config), runs one experiment,
writes a JSON report embedding the full parameter set, seed, version string,
and wall time, and emits CSV / JSON Lines side files where curves or streams
are produced.  Sampling subcommands call the API estimators, which share one
block reduction, so reports equal the API's for any worker count.

Exit codes: 0 success, 1 validation error (bad configuration, a count flag
below 1, a length flag that is not positive and finite, an unreadable input
file, boundary angles on an n = 3 table), 2 runtime error (trapping budget
exceeded, degenerate test sets).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_table_config
from .dynamics import Elastic, iterate_orbits, trapping_probe
from .errors import BilliardError, ConfigError
from .ergodic import _checkpoint_list, hear_volume, mean_free_path, recurrence_test
from .holography import (boundary_param_map, conjugacy_residual,
                         domain_reference_sample, generate_scattering_dataset,
                         identity_map, reconstruct_chords, reflection_map,
                         rotation_map, torus_translation_map)
from .lyapunov import build_well_balanced_F, slice_identity
from .measure import (PhaseBox, boundary_rng, domain_volumes, measure_preservation_test,
                      random_phase_boxes, sample_mu_theta, trajectory_space_volume)
from .parallel import BLOCK_SIZE
from .presets import PRESETS, preset_table
from .spaces import FlatTorus

__all__ = ["main"]


def version_string():
    """Package version, suffixed with the git description when available."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).parent)
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+g{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


def _add_common(parser, samples=True):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS), help="named table preset")
    group.add_argument("--config", help="path to a JSON table config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: $BILLIARDLAB_WORKERS or 1)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--lmax", type=float, default=None, help="override the length cap")
    if samples:
        parser.add_argument("--samples", type=float, default=1e5)


# count and length flags of every subcommand; checked once, before any output
_COUNTS = ("samples", "orbits", "bounces", "boxes", "starters", "grid_points", "grid",
           "reference_points", "dim")
_LENGTHS = ("lmax", "resolution", "boundary")


def _check_flags(args):
    for name in _COUNTS:
        value = getattr(args, name, None)
        if value is not None and int(value) < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least 1")
    for name in _LENGTHS:
        value = getattr(args, name, None)
        if value is not None and not 0.0 < value < np.inf:
            raise ConfigError(f"--{name} must be positive and finite")


def _build_table(args):
    table = preset_table(args.preset) if args.preset else load_table_config(args.config)
    if args.lmax:
        table = table.with_l_max(args.lmax)
    return table


def _table_ref(args):
    return {"preset": args.preset, "config": args.config}


def _emit(args, command, params, results, started, files=()):
    report = {
        "command": command,
        "config": params,
        "seed": getattr(args, "seed", None),
        "version": version_string(),
        "wall_time_s": round(time.time() - started, 3),
        "files": list(files),
        "results": results,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{command}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_mfp(args):
    started = time.time()
    table = _build_table(args)
    total = int(args.samples)
    report = mean_free_path(table, total, args.seed, workers=args.workers)
    vols = domain_volumes(table)
    results = {
        "prediction": report.prediction,
        "space_mean": report.space.mean,
        "stderr": report.space.stderr,
        "count": report.space.count,
        "relative_gap": report.relative_gap,
        "trapped_fraction": report.space.trapped_fraction,
        "grazing_fraction": report.space.grazing_fraction,
        "vol_m": vols.vol_m,
        "vol_dm": vols.vol_dm,
        "note": report.note,
    }
    params = {**_table_ref(args), "samples": total, "lmax": table.l_max,
              "block_size": BLOCK_SIZE}
    return _emit(args, "mfp", params, results, started)


def _cmd_probe(args):
    started = time.time()
    table = _build_table(args)
    probe = trapping_probe(table, int(args.samples), seed=args.seed, workers=args.workers)
    warning = ""
    if not probe.gd_stabilized:
        warning = ("longest observed chord is still growing with the sample: the geodesic "
                   "diameter appears unbounded (trapping signature)")
    results = {
        "escape_fraction": probe.escape_fraction,
        "max_chord": probe.max_chord,
        "grazing_fraction": probe.grazing_fraction,
        "max_chord_progression": list(probe.max_chord_progression),
        "gd_stabilized": probe.gd_stabilized,
        "l_max": probe.l_max,
        "warning": warning,
    }
    params = {**_table_ref(args), "samples": int(args.samples), "lmax": table.l_max}
    return _emit(args, "probe", params, results, started)


def _cmd_simulate(args):
    started = time.time()
    table = _build_table(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    law = Elastic()
    files = []
    summary_rows = []
    starts = sample_mu_theta(table, args.orbits, args.seed)
    orbits = iterate_orbits(table, law, starts.q, starts.v, int(args.bounces))
    for i, orbit in enumerate(orbits):
        path = out_dir / f"orbit_{i:03d}.jsonl"
        with open(path, "w") as fh:
            for ch in orbit.chords:
                fh.write(json.dumps({
                    "entry_q": ch.entry.q.tolist(), "entry_v": ch.entry.v.tolist(),
                    "exit_q": ch.exit.q.tolist(), "exit_v": ch.exit.v.tolist(),
                    "length": ch.length, "degenerate": ch.degenerate,
                    "grazing": ch.grazing,
                }) + "\n")
        files.append(str(path))
        lengths = [c.length for c in orbit.chords]
        summary_rows.append([i, orbit.termination.kind, orbit.termination.bounces,
                             sum(lengths), np.mean(lengths) if lengths else 0.0])
    summary = out_dir / "orbits_summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["orbit", "termination", "bounces", "total_length", "mean_length"])
        writer.writerows(summary_rows)
    files.append(str(summary))
    results = {"orbits": args.orbits,
               "terminations": {row[1]: sum(1 for r in summary_rows if r[1] == row[1])
                                for row in summary_rows}}
    params = {**_table_ref(args), "orbits": args.orbits, "bounces": int(args.bounces)}
    return _emit(args, "simulate", params, results, started, files)


def _cmd_measure_check(args):
    started = time.time()
    table = _build_table(args)
    rng = boundary_rng(args.seed, 7777)
    boxes = random_phase_boxes(table, args.boxes, rng)
    results = measure_preservation_test(table, Elastic(), boxes, int(args.samples), args.seed,
                                        workers=args.workers)
    rows = []
    for r in results:
        rows.append({
            "piece": r.box.piece,
            "boundary": list(r.box.boundary) if r.box.boundary else None,
            "incidence": list(r.box.incidence) if r.box.incidence else None,
            "mu_k": r.mu_k.mean, "mu_k_stderr": r.mu_k.stderr,
            "mu_preimage_k": r.mu_preimage_k.mean,
            "z_score": r.z_score,
        })
    summary = {
        "boxes": rows,
        "max_abs_z": max(abs(r.z_score) for r in results),
        "excluded_fraction": results[0].excluded_fraction if results else 0.0,
        "total_mass": trajectory_space_volume(table),
    }
    params = {**_table_ref(args), "samples": int(args.samples), "boxes": args.boxes}
    return _emit(args, "measure-check", params, summary, started)


def _cmd_recurrence(args):
    started = time.time()
    table = _build_table(args)
    if not 0 <= args.box_piece < len(table.pieces):
        raise ConfigError(f"--box-piece must index one of the table's {len(table.pieces)} pieces")
    box = PhaseBox(piece=args.box_piece, boundary=tuple(args.box_angle),
                   incidence=tuple(args.box_incidence))
    res = recurrence_test(table, Elastic(), box, args.starters, int(args.bounces), args.seed)
    results = {"returned_fraction": res.returned_fraction,
               "mean_return_count": res.mean_return_count,
               "starters": res.starters, "bounces": res.bounces}
    params = {**_table_ref(args), "starters": args.starters, "bounces": int(args.bounces),
              "box_piece": args.box_piece, "box_angle": list(args.box_angle),
              "box_incidence": list(args.box_incidence)}
    return _emit(args, "recurrence", params, results, started)


def _cmd_slices(args):
    started = time.time()
    table = _build_table(args)
    f = build_well_balanced_F(table, seed=args.seed)
    total = int(args.samples)
    res = slice_identity(table, f, total, args.seed, args.grid_points, workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "slice_areas.csv"
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "area_mean", "area_stderr"])
        writer.writerows([t, e.mean, e.stderr] for t, e in zip(res.grid, res.areas))
    var = res.variation
    results = {"f_min": var.f_min, "f_max": var.f_max, "var_f": var.var,
               "integral_a_dt": res.integral, "predicted_integral": res.predicted,
               "relative_gap": res.relative_gap, "max_area": res.max_area,
               "trajectory_space_volume": trajectory_space_volume(table)}
    params = {**_table_ref(args), "samples": total, "grid_points": args.grid_points,
              "block_size": BLOCK_SIZE}
    return _emit(args, "slices", params, results, started, [str(curve_path)])


def _cmd_reconstruct(args):
    started = time.time()
    table = _build_table(args)
    f = None
    if not isinstance(table.space, FlatTorus):
        f = build_well_balanced_F(table, seed=args.seed)
    data = generate_scattering_dataset(table, f, grid=(args.grid, args.grid))
    reference = domain_reference_sample(table, args.reference_points, args.seed)
    recon = reconstruct_chords(data, table.space, h=args.resolution,
                               reference_points=reference)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "scattering.jsonl"
    data.to_jsonl(data_path)
    cloud_path = out_dir / "chord_cloud.csv"
    recon.to_csv(cloud_path)
    results = {
        "records": len(data), "skipped_grid_cells": data.skipped,
        "cloud_points": int(recon.points.shape[0]),
        "hausdorff_reference_to_cloud": recon.hausdorff,
        "skipped_ambiguous": recon.skipped_ambiguous,
    }
    params = {**_table_ref(args), "grid": args.grid, "resolution": args.resolution,
              "reference_points": args.reference_points}
    return _emit(args, "reconstruct", params, results, started,
                 [str(data_path), str(cloud_path)])


def _parse_boundary_map(spec, table, other):
    if spec == "identity":
        return identity_map()
    if spec == "param":
        return boundary_param_map(table, other)
    if spec == "reflection":
        return reflection_map()
    if spec.startswith("rotation:"):
        return rotation_map(float(spec.split(":", 1)[1]))
    if spec.startswith("translation:"):
        if not isinstance(table.space, FlatTorus):
            raise ConfigError("translation maps need a flat torus")
        parts = [float(x) for x in spec.split(":", 1)[1].split(",")]
        return torus_translation_map(parts, table.space.periods)
    raise ConfigError(f"unknown boundary map {spec!r}; use identity, param, "
                      "reflection, rotation:ANGLE, or translation:DX,DY")


def _cmd_conjugacy(args):
    started = time.time()
    table = _build_table(args)
    other = preset_table(args.other) if args.other else table
    if args.lmax:
        other = other.with_l_max(args.lmax)
    phi = _parse_boundary_map(args.map, table, other)
    res = conjugacy_residual(table, other, phi, int(args.samples), args.seed,
                             workers=args.workers)
    results = {"max_residual": res.max_residual, "mean_residual": res.mean_residual,
               "used": res.used, "skipped": res.skipped}
    params = {**_table_ref(args), "other": args.other, "map": args.map,
              "samples": int(args.samples)}
    return _emit(args, "conjugacy", params, results, started)


def _cmd_hear(args):
    started = time.time()
    try:
        with open(args.lengths, newline="") as fh:
            cells = [row[0] for row in csv.reader(fh) if row]
        lengths = [float(c) for c in cells[1:]]
    except (OSError, ValueError) as exc:  # no such file, or a non-numeric row after the first
        raise ConfigError(f"cannot read --lengths: {exc}") from exc
    with contextlib.suppress(IndexError, ValueError):  # no rows, or a header row
        lengths.insert(0, float(cells[0]))
    running = hear_volume(np.asarray(lengths), args.boundary, args.dim)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "hear_volume.csv"
    with open(curve_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bounces", "vol_estimate"])
        writer.writerows([k, running[k - 1]] for k in _checkpoint_list(len(running)))
    results = {"bounces": len(running), "vol_m_estimate": float(running[-1])}
    params = {"lengths": args.lengths, "boundary": args.boundary, "dim": args.dim}
    return _emit(args, "hear", params, results, started, [str(curve_path)])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="billiardlab",
        description="Geometric billiard and inverse-scattering experiments")
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mfp", help="mean free path: prediction vs Monte Carlo")
    _add_common(p)
    p.set_defaults(func=_cmd_mfp)

    p = sub.add_parser("probe", help="trapping probe and geodesic-diameter estimate")
    _add_common(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("simulate", help="dump billiard orbits as JSON lines")
    _add_common(p, samples=False)
    p.add_argument("--orbits", type=int, default=4)
    p.add_argument("--bounces", type=float, default=1000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("measure-check", help="pushforward invariance on random boxes")
    _add_common(p)
    p.add_argument("--boxes", type=int, default=20)
    p.set_defaults(func=_cmd_measure_check)

    p = sub.add_parser("recurrence", help="return statistics for a phase box")
    _add_common(p, samples=False)
    p.add_argument("--bounces", type=float, default=1e4)
    p.add_argument("--starters", type=int, default=200)
    p.add_argument("--box-piece", type=int, default=0)
    p.add_argument("--box-angle", type=float, nargs=2, default=(0.0, 0.1))
    p.add_argument("--box-incidence", type=float, nargs=2, default=(0.4, 0.6))
    p.set_defaults(func=_cmd_recurrence)

    p = sub.add_parser("slices", help="level-slice area curve A(t)")
    _add_common(p)
    p.add_argument("--grid-points", type=int, default=100)
    p.set_defaults(func=_cmd_slices)

    p = sub.add_parser("reconstruct", help="chord-cloud reconstruction of the domain")
    _add_common(p, samples=False)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--reference-points", type=int, default=4096)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("conjugacy", help="scattering-map conjugacy residual")
    _add_common(p)
    p.add_argument("--other", choices=sorted(PRESETS), default=None,
                   help="second table (default: same table)")
    p.add_argument("--map", default="identity",
                   help="identity | reflection | rotation:ANGLE | translation:DX,DY")
    p.set_defaults(func=_cmd_conjugacy)

    p = sub.add_parser("hear", help="recover the volume from a bounce-length file")
    p.add_argument("--lengths", required=True, help="CSV with one length per row")
    p.add_argument("--boundary", type=float, required=True, help="boundary volume")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_hear, seed=None)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_flags(args)
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "validation", "message": str(exc)}}))
        return 1
    except BilliardError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
