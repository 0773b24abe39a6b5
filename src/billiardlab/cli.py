"""Batch front-end: presets, experiment subcommands, deterministic output.

Every subcommand loads a table (preset or JSON config), runs one experiment,
writes a JSON report embedding the full parameter set, seed, version string,
and wall time, and emits CSV / JSON Lines side files where curves or streams
are produced.  Sampling subcommands call the API estimators, which share one
block reduction, so reports equal the API's for any worker count.

Exit codes: 0 success, 1 validation error (a command line the parser rejects,
bad configuration, a count flag below 1, a negative seed, a length flag that
is not positive and finite, a non-finite box bound or map parameter, a
translation without one component per torus axis, an unreadable or empty input
file, boundary angles on an n = 3 table, a Lyapunov function asked of a table
that no convex ball encloses), 2 runtime error (trapping budget exceeded,
degenerate test sets, an enclosing ball that fails its checks).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_table_config
from .dynamics import Elastic, orbit_batches
from .errors import BilliardError, ConfigError
from .ergodic import (_checkpoint_list, hear_volume, mean_free_path, recurrence_test,
                      trapping_probe)
from .holography import (boundary_param_map, conjugacy_residual, domain_reference_sample,
                         generate_scattering_dataset, identity_map, reconstruct_chords,
                         reflection_map, rotation_map, torus_translation_map)
from .lyapunov import build_well_balanced_F, slice_identity
from .measure import (PhaseBox, boundary_rng, measure_preservation_test, random_phase_boxes,
                      sample_mu_theta, trajectory_space_volume)
from .parallel import BLOCK_SIZE
from .presets import PRESETS, preset_table
from .spaces import FlatTorus

__all__ = ["main"]

_version = None  # what version_string found: `git describe` runs once per process


def version_string():
    """Package version, suffixed with the git description when available."""
    global _version
    if _version is None:
        _version = __version__
        try:
            out = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 capture_output=True, text=True, timeout=5,
                                 cwd=Path(__file__).parent)
            if out.returncode == 0 and out.stdout.strip():
                _version = f"{__version__}+g{out.stdout.strip()}"
        except (OSError, subprocess.SubprocessError):
            pass
    return _version


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are validation errors, as are its subparsers'."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _table_command(sub, name, func, help, samples=True):
    """A subcommand on one table, with the flags every such subcommand takes."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(func=func)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS), help="named table preset")
    group.add_argument("--config", help="path to a JSON table config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default 1)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--lmax", type=float, default=None, help="override the length cap")
    if samples:
        parser.add_argument("--samples", type=float, default=1e5)
    return parser


# count and length flags of every subcommand; checked once, before any output
_COUNTS = ("samples", "orbits", "bounces", "boxes", "starters", "grid_points", "grid",
           "reference_points", "dim", "workers")
_LENGTHS = ("lmax", "resolution", "boundary")
# flags of how a run goes, not what it computes; every other flag is a parameter
_RUN_FLAGS = ("command", "func", "seed", "workers", "out", "lmax")


def _check_flags(args):
    for name in _COUNTS:
        value = getattr(args, name, None)
        if value is not None:
            if not 1 <= value < np.inf:
                raise ConfigError(f"--{name.replace('_', '-')} must be finite and at least 1")
            setattr(args, name, int(value))
    for name in _LENGTHS:
        value = getattr(args, name, None)
        if value is not None and not 0.0 < value < np.inf:
            raise ConfigError(f"--{name} must be positive and finite")
    if (args.seed or 0) < 0:
        raise ConfigError("--seed must be at least 0")
    for name in ("box_angle", "box_incidence"):
        if not np.isfinite(getattr(args, name, 0.0)).all():
            raise ConfigError(f"--{name.replace('_', '-')} bounds must be finite")


def _csv_writer(header, rows):
    """A side-file writer: one header row, then `rows`."""
    def write(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return write


def _run(args):
    """Run one subcommand, then write its side files and its report.

    A subcommand returns (derived, results, side): `derived` holds the parameters
    it resolves beyond its flags, and `side` maps each side-file name to a
    function that writes that path; nothing is written before that.
    """
    started = time.time()
    table = None
    if getattr(args, "preset", None) or getattr(args, "config", None):
        table = preset_table(args.preset) if args.preset else load_table_config(args.config)
        table = table.with_l_max(args.lmax) if args.lmax else table
    derived, results, side = args.func(args, table)
    params = {k: v for k, v in vars(args).items() if k not in _RUN_FLAGS}
    params.update(derived)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [str(out_dir / name) for name in side]
    for path, write in zip(files, side.values()):
        write(path)
    report = {"command": args.command, "config": params, "seed": args.seed,
              "version": version_string(), "wall_time_s": round(time.time() - started, 3),
              "files": files, "results": results}
    text = json.dumps(report, indent=2, sort_keys=True)
    (out_dir / f"{args.command}.json").write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_mfp(args, table):
    report = mean_free_path(table, args.samples, args.seed, workers=args.workers)
    space, vols = report.space, report.volumes
    results = {"prediction": report.prediction, "space_mean": space.mean,
               "stderr": space.stderr, "count": space.count,
               "relative_gap": report.relative_gap, "trapped_fraction": space.trapped_fraction,
               "grazing_fraction": space.grazing_fraction, "vol_m": vols.vol_m,
               "vol_dm": vols.vol_dm, "note": report.note}
    return {"lmax": table.l_max, "block_size": BLOCK_SIZE}, results, {}


def _cmd_probe(args, table):
    probe = trapping_probe(table, args.samples, seed=args.seed, workers=args.workers)
    warning = ""
    if not probe.gd_stabilized:
        warning = ("longest observed chord is still growing with the sample: the geodesic "
                   "diameter appears unbounded (trapping signature)")
    results = {**asdict(probe), "warning": warning}
    return {"lmax": table.l_max}, results, {}


def _cmd_simulate(args, table):
    starts = sample_mu_theta(table, args.orbits, args.seed)
    kinds, orbits = orbit_batches(table, Elastic(), starts.q, starts.v, args.bounces)
    side, summary = {}, []
    for i, (kind, chords) in enumerate(zip(kinds, orbits)):
        side[f"orbit_{i:03d}.jsonl"] = chords.to_jsonl
        lengths = chords.length.tolist()
        summary.append([i, kind, len(lengths), sum(lengths),
                        np.mean(lengths) if lengths else np.nan])
    side["orbits_summary.csv"] = _csv_writer(
        ["orbit", "termination", "bounces", "total_length", "mean_length"], summary)
    results = {"orbits": args.orbits, "terminations": {k: kinds.count(k) for k in kinds}}
    return {}, results, side


def _cmd_measure_check(args, table):
    rng = boundary_rng(args.seed, 7777)
    boxes = random_phase_boxes(table, args.boxes, rng)
    results = measure_preservation_test(table, Elastic(), boxes, args.samples, args.seed,
                                        workers=args.workers)
    rows = [{
        "piece": r.box.piece,
        "boundary": list(r.box.boundary) if r.box.boundary else None,
        "incidence": list(r.box.incidence) if r.box.incidence else None,
        "mu_k": r.mu_k.mean, "mu_k_stderr": r.mu_k.stderr,
        "mu_preimage_k": r.mu_preimage_k.mean,
        "z_score": r.z_score,
    } for r in results]
    summary = {
        "boxes": rows,
        "max_abs_z": max(abs(r.z_score) for r in results),
        "excluded_fraction": results[0].excluded_fraction if results else 0.0,
        "total_mass": trajectory_space_volume(table),
    }
    return {}, summary, {}


def _cmd_recurrence(args, table):
    if not 0 <= args.box_piece < len(table.pieces):
        raise ConfigError(f"--box-piece must index one of the table's {len(table.pieces)} pieces")
    box = PhaseBox(piece=args.box_piece, boundary=tuple(args.box_angle),
                   incidence=tuple(args.box_incidence))
    res = recurrence_test(table, Elastic(), box, args.starters, args.bounces, args.seed)
    return {}, asdict(res), {}


def _cmd_slices(args, table):
    f = build_well_balanced_F(table, seed=args.seed)
    res = slice_identity(table, f, args.samples, args.seed, args.grid_points,
                         workers=args.workers)
    var = res.variation
    results = {"f_min": var.f_min, "f_max": var.f_max, "var_f": var.var,
               "integral_a_dt": res.integral, "predicted_integral": res.predicted,
               "relative_gap": res.relative_gap, "max_area": res.max_area,
               "trajectory_space_volume": trajectory_space_volume(table)}
    curve = _csv_writer(["t", "area_mean", "area_stderr"],
                        [[t, e.mean, e.stderr] for t, e in zip(res.grid, res.areas)])
    return {"block_size": BLOCK_SIZE}, results, {"slice_areas.csv": curve}


def _cmd_reconstruct(args, table):
    f = None if table.outer is None else build_well_balanced_F(table, seed=args.seed)
    data = generate_scattering_dataset(table, f, grid=(args.grid, args.grid))
    reference = domain_reference_sample(table, args.reference_points, args.seed)
    recon = reconstruct_chords(data, table.space, h=args.resolution,
                               reference_points=reference)
    results = {
        "records": len(data), "skipped_grid_cells": data.skipped,
        "cloud_points": int(recon.points.shape[0]),
        "hausdorff_reference_to_cloud": recon.hausdorff,
        "skipped_ambiguous": recon.skipped_ambiguous,
    }
    return {}, results, {"scattering.jsonl": data.to_jsonl, "chord_cloud.csv": recon.to_csv}


def _map_numbers(spec, count):
    """The `count` finite comma-separated numbers after the colon of a map spec."""
    try:
        values = [float(x) for x in spec.split(":", 1)[1].split(",")]
    except ValueError:
        values = []
    if len(values) != count or not np.isfinite(values).all():
        raise ConfigError(f"--map {spec!r} needs {count} finite comma-separated number(s)")
    return values


def _parse_boundary_map(spec, table, other):
    if spec == "identity":
        return identity_map()
    if spec == "param":
        return boundary_param_map(table, other)
    if spec == "reflection":
        return reflection_map()
    if spec.startswith("rotation:"):
        if table.space.chart_dim != 2 or other.space.chart_dim != 2:
            raise ConfigError("rotation maps need planar charts: n = 2 tables off the sphere")
        return rotation_map(_map_numbers(spec, 1)[0])
    if spec.startswith("translation:"):
        if not isinstance(table.space, FlatTorus):
            raise ConfigError("translation maps need a flat torus")
        periods = table.space.periods
        return torus_translation_map(_map_numbers(spec, len(periods)), periods)
    raise ConfigError(f"unknown boundary map {spec!r}; use identity, param, "
                      "reflection, rotation:ANGLE, or translation:DX,DY")


def _cmd_conjugacy(args, table):
    other = preset_table(args.other) if args.other else table
    if args.lmax:
        other = other.with_l_max(args.lmax)
    phi = _parse_boundary_map(args.map, table, other)
    res = conjugacy_residual(table, other, phi, args.samples, args.seed, workers=args.workers)
    return {}, asdict(res), {}


def _cmd_hear(args, table):
    try:
        with open(args.lengths, newline="") as fh:
            cells = [row[0] for row in csv.reader(fh) if row]
        lengths = [float(c) for c in cells[1:]]
    except (OSError, ValueError) as exc:  # no such file, or a non-numeric row after the first
        raise ConfigError(f"cannot read --lengths: {exc}") from exc
    with contextlib.suppress(IndexError, ValueError):  # no rows, or a header row
        lengths.insert(0, float(cells[0]))
    if not lengths:
        raise ConfigError(f"--lengths {args.lengths} holds no bounce length")
    running = hear_volume(np.asarray(lengths), args.boundary, args.dim)
    curve = _csv_writer(["bounces", "vol_estimate"],
                        [[k, running[k - 1]] for k in _checkpoint_list(len(running))])
    results = {"bounces": len(running), "vol_m_estimate": float(running[-1])}
    return {}, results, {"hear_volume.csv": curve}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser():
    parser = _Parser(
        prog="billiardlab",
        description="Geometric billiard and inverse-scattering experiments")
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    _table_command(sub, "mfp", _cmd_mfp, "mean free path: prediction vs Monte Carlo")
    _table_command(sub, "probe", _cmd_probe, "trapping probe and geodesic-diameter estimate")

    p = _table_command(sub, "simulate", _cmd_simulate,
                       "dump billiard orbits as JSON lines", samples=False)
    p.add_argument("--orbits", type=int, default=4)
    p.add_argument("--bounces", type=float, default=1000)

    p = _table_command(sub, "measure-check", _cmd_measure_check,
                       "pushforward invariance on random boxes")
    p.add_argument("--boxes", type=int, default=20)

    p = _table_command(sub, "recurrence", _cmd_recurrence,
                       "return statistics for a phase box", samples=False)
    p.add_argument("--bounces", type=float, default=1e4)
    p.add_argument("--starters", type=int, default=200)
    p.add_argument("--box-piece", type=int, default=0)
    p.add_argument("--box-angle", type=float, nargs=2, default=(0.0, 0.1))
    p.add_argument("--box-incidence", type=float, nargs=2, default=(0.4, 0.6))

    p = _table_command(sub, "slices", _cmd_slices, "level-slice area curve A(t)")
    p.add_argument("--grid-points", type=int, default=100)

    p = _table_command(sub, "reconstruct", _cmd_reconstruct,
                       "chord-cloud reconstruction of the domain", samples=False)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--reference-points", type=int, default=4096)

    p = _table_command(sub, "conjugacy", _cmd_conjugacy, "scattering-map conjugacy residual")
    p.add_argument("--other", choices=sorted(PRESETS), default=None,
                   help="second table (default: same table)")
    p.add_argument("--map", default="identity",
                   help="identity | reflection | rotation:ANGLE | translation:DX,DY")

    p = sub.add_parser("hear", help="recover the volume from a bounce-length file")
    p.add_argument("--lengths", required=True, help="CSV with one length per row")
    p.add_argument("--boundary", type=float, required=True, help="boundary volume")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_hear, seed=None)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        _check_flags(args)
        return _run(args)
    except SystemExit as exc:  # --help and --version, after printing
        return 0 if exc.code in (0, None) else 1
    except ConfigError as exc:
        print(json.dumps({"error": {"type": "validation", "message": str(exc)}}))
        return 1
    except BilliardError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
