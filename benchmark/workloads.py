"""The four benchmark workloads: operations, generated inputs, named checks.

Every operation is a CLI subcommand (run in-process through
`billiardlab.cli.main`, exactly as the console script does) or a public API
call.  Inputs come only from the pass seed: sample counts are fixed here,
and the seed of each pass is derived from the run's `--seed`.

Each operation also states:
  chords  - chords its generated inputs request (the numerator of chords_per_s);
  checks  - named correctness checks, "exact" (closed forms, acceptance-suite
            tolerances) or "stat" (gates wide enough not to flip with the seed);
  expect  - rows that must enter `measure.sample_mu_theta` and
            `dynamics.causality_batch`, which the traced run compares with
            what it saw, to catch a call path it failed to wrap;
  excluded - (excluded, attempted) samples or orbits, from the report.

Importing this module loads nothing beyond the standard library, so the set-up
probe can time `import billiardlab` from a clean interpreter.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mc-closed-form", "orbits-lockstep", "hits-iterative", "holography")

SAMPLES = "measure.sample_mu_theta"
CHORDS = "dynamics.causality_batch"

# the acceptance-3 table: unit torus minus one eps = 0.1 ball, as a --config file
EPS = 0.1
EPS_TORUS = {
    "name": "torus-eps-0.1",
    "space": "flat-torus",
    "periods": [1.0, 1.0],
    "pieces": [{"shape": "ball", "side": "obstacle", "center": [0.5, 0.5], "radius": EPS}],
}
EPS_CONFIG = "torus-eps.json"

# recurrence box (the CLI defaults, passed explicitly)
BOX = {"piece": 0, "boundary": (0.0, 0.1), "incidence": (0.4, 0.6)}

# tables (preset names, or the generated config) and Lyapunov F that each
# workload builds; the set-up probe builds exactly these
TABLES = {
    "mc-closed-form": ("disk", "ball3", "hyperbolic-disk-1", "cap-pi4", "torus-two-balls"),
    "orbits-lockstep": ("torus-two-balls", "disk"),
    "hits-iterative": ("ellipse", EPS_CONFIG, "torus-one-ball"),
    "holography": ("disk",),
}
F_TABLES = {"mc-closed-form": ("disk",), "holography": ("disk",)}

# closed-form mean free paths: pi * vol(M) / vol(boundary) in dimension 2,
# (vol S^2 / vol B^2) * vol(M) / vol(boundary) = 4/3 for the unit 3-ball
_R1, _R2 = 0.38, 0.18
MFP_CLOSED_FORM = {
    "disk": math.pi / 2.0,
    "ball3": 4.0 / 3.0,
    "hyperbolic-disk-1": math.pi * math.tanh(0.5),
    "cap-pi4": math.pi * math.tan(math.pi / 8.0),
    "torus-two-balls": (1.0 - math.pi * (_R1 ** 2 + _R2 ** 2)) / (2.0 * (_R1 + _R2)),
    EPS_CONFIG: math.pi * (1.0 - math.pi * EPS ** 2) / (2.0 * math.pi * EPS),
}


@functools.cache
def _ellipse_mfp():
    """pi * area / perimeter of r = 1 + 0.15 cos 2t; perimeter by 65536-point
    periodic trapezoid quadrature (exact to roundoff for this analytic curve)."""
    n = 65536
    total = 0.0
    for i in range(n):
        t = 2.0 * math.pi * i / n
        r = 1.0 + 0.15 * math.cos(2.0 * t)
        dr = -0.3 * math.sin(2.0 * t)
        total += math.hypot(r, dr)
    perimeter = total * 2.0 * math.pi / n
    area = math.pi * (1.0 + 0.15 ** 2 / 2.0)
    return math.pi * area / perimeter


# Statistical gates.  Each is several standard deviations of the seed-to-seed
# spread measured at these sample counts, so a failure is a defect, not noise.
Z_GATE = 6.0            # mfp |mean - prediction| / stderr; measure-check max |z| over 20 boxes
SLICE_GAP = 0.02        # slice identity; seed spread at 65536 samples is about 0.002
BIRKHOFF_GAP = 0.05     # pooled time average of 10 orbits x 1000 bounces; spread about 0.0075
# At 2000 bounces a starter near the period-3 orbit of the disk (incidence pi/6,
# inside the box) needs ~1/|drift| bounces to return: 0.026 misses expected per
# 128 starters, so the gate allows two misses; P(three or more) is about 3e-6.
RECURRENCE_MIN = 126 / 128
PROBE_ESCAPE_MIN = 0.999


def pass_seed(seed, k):
    """Seed of pass k of a run."""
    return (int(seed) * 1000 + k) % (2 ** 32)


@dataclass
class Op:
    label: str
    span: str
    chords: int
    argv: list | None = None
    call: object = None
    checks: object = None
    expect: object = None
    excluded: object = None


def _cli(sub, table, *args, seed, **kw):
    argv = [sub] + (["--config", table] if table.endswith(".json") else ["--preset", table])
    argv += [str(a) for a in args] + ["--seed", str(seed)]
    return Op(label=f"{sub}:{Path(table).stem}", span=f"cli.{sub}", argv=argv, **kw)


def _exact(name, ok, detail=""):
    return (name, "exact", bool(ok), detail)


def _stat(name, ok, detail=""):
    return (name, "stat", bool(ok), detail)


# -- operations ---------------------------------------------------------------------


def _mfp(table, n, seed, target, max_trapped=None):
    def checks(r, ctx):
        out = [_exact("prediction equals the closed form to 1e-12",
                      abs(r["prediction"] - target) < 1e-12,
                      f"{r['prediction']!r} vs {target!r}")]
        z = abs(r["space_mean"] - r["prediction"]) / r["stderr"]
        out.append(_stat(f"Monte Carlo mean within {Z_GATE:g} sigma", z < Z_GATE, f"{z:.2f} sigma"))
        if max_trapped is not None:
            out.append(_stat("capped fraction below 1e-3", r["trapped_fraction"] < max_trapped,
                             f"{r['trapped_fraction']:.2e}"))
        return out

    return _cli("mfp", table, "--samples", n, seed=seed, chords=n, checks=checks,
                expect=lambda r, ctx: {SAMPLES: n, CHORDS: n},
                excluded=lambda r: ((r["trapped_fraction"] + r["grazing_fraction"]) * n, n))


def _measure_check(table, n, boxes, seed, mass):
    def checks(r, ctx):
        return [_exact("trajectory-space volume equals the closed form to 1e-12",
                       abs(r["total_mass"] - mass) < 1e-12, f"{r['total_mass']!r}"),
                _stat(f"max |z| over {boxes} boxes below {Z_GATE:g}", r["max_abs_z"] < Z_GATE,
                      f"{r['max_abs_z']:.2f}")]

    return _cli("measure-check", table, "--samples", n, "--boxes", boxes, seed=seed, chords=n,
                checks=checks, expect=lambda r, ctx: {SAMPLES: n, CHORDS: n},
                excluded=lambda r: (r["excluded_fraction"] * n, n))


def _slices(n, seed):
    def checks(r, ctx):
        return [_exact("max A(t) <= 4 pi", r["max_area"] <= 4.0 * math.pi + 1e-9,
                       f"{r['max_area']!r}"),
                _exact("predicted integral equals 2 pi^2 to 1e-12",
                       abs(r["predicted_integral"] - 2.0 * math.pi ** 2) < 1e-12),
                _stat(f"slice identity within {SLICE_GAP:.0%}", r["relative_gap"] < SLICE_GAP,
                      f"{r['relative_gap']:.4f}")]

    def expect(r, ctx):
        var_count = max(max(n // 4, 4096) // 2, 1)   # cli: var_F_boundary(max(N // 4, 4096))
        return {SAMPLES: ctx.f_pilot + var_count + n, CHORDS: ctx.f_pilot + n}

    return _cli("slices", "disk", "--samples", n, seed=seed, chords=n, checks=checks,
                expect=expect)


def _time_average_many(starters, bounces, seed):
    def call(ctx):
        bl = ctx.bl
        table = ctx.tables["torus-two-balls"]
        starts = bl.measure.sample_mu_theta(table, starters, seed)
        return bl.ergodic.time_average_many(table, bl.dynamics.Elastic(),
                                            bl.ergodic.ChordLength(), starts.q, starts.v,
                                            bounces)

    def checks(res, ctx):
        _, running, done, _ = res
        finals = [float(x) for x in running[:, -1]]
        target = MFP_CLOSED_FORM["torus-two-balls"]
        gap = abs(sum(finals) / len(finals) - target) / target
        return [_exact("every torus-two-balls orbit completes", bool((done == bounces).all())),
                _stat(f"pooled time average within {BIRKHOFF_GAP:.0%} of the space average",
                      gap < BIRKHOFF_GAP, f"{gap:.4f}")]

    return Op(label="time_average_many:torus-two-balls", span="api.time_average_many",
              chords=starters * bounces, call=call, checks=checks,
              expect=lambda res, ctx: {SAMPLES: starters, CHORDS: starters * bounces},
              excluded=lambda res: (int((res[2] != bounces).sum()), starters))


def _recurrence(starters, bounces, seed):
    box_args = ["--box-piece", BOX["piece"], "--box-angle", *BOX["boundary"],
                "--box-incidence", *BOX["incidence"]]

    def checks(r, ctx):
        return [_stat(f"returned fraction >= {RECURRENCE_MIN:.4f}",
                      r["returned_fraction"] >= RECURRENCE_MIN, f"{r['returned_fraction']:.4f}")]

    def expect(r, ctx):
        return {SAMPLES: _recurrence_sampler_rows(ctx, starters, seed), CHORDS: starters * bounces}

    return _cli("recurrence", "disk", "--starters", starters, "--bounces", bounces, *box_args,
                seed=seed, chords=starters * bounces, checks=checks, expect=expect)


def _recurrence_sampler_rows(ctx, starters, seed):
    """Rows recurrence_test draws while collecting starters in the box.

    Mirrors its search: chunks of max(4 n, 4096) rows on streams 101, 102, ...
    until n starters lie in the box.  Runs untraced, after the pass.
    """
    bl = ctx.bl
    table = ctx.tables["disk"]
    box = bl.measure.PhaseBox(piece=BOX["piece"], boundary=BOX["boundary"],
                              incidence=BOX["incidence"])
    chunk = max(4 * starters, 4096)
    found, rows, stream = 0, 0, 101
    while found < starters:
        s = bl.measure.sample_mu_theta(table, chunk, seed, stream)
        found += int(box.contains(table, s.q, s.v, s.piece).sum())
        rows += chunk
        stream += 1
    return rows


def _simulate(orbits, bounces, seed):
    def checks(r, ctx):
        lines = sum(1 for _ in open(ctx.last_out / "orbit_000.jsonl"))
        return [_exact("every torus-two-balls orbit completes",
                       r["terminations"] == {"completed": orbits}, json.dumps(r["terminations"])),
                _exact("orbit dump has one line per bounce", lines == bounces, f"{lines} lines")]

    return _cli("simulate", "torus-two-balls", "--orbits", orbits, "--bounces", bounces,
                seed=seed, chords=orbits * bounces, checks=checks,
                expect=lambda r, ctx: {SAMPLES: orbits, CHORDS: orbits * bounces},
                excluded=lambda r: (orbits - r["terminations"].get("completed", 0), orbits))


def _probe(n, seed):
    def checks(r, ctx):
        prog = r["max_chord_progression"]
        return [_exact("longest-chord progression is nondecreasing",
                       all(a <= b for a, b in zip(prog, prog[1:]))),
                _stat(f"escape fraction >= {PROBE_ESCAPE_MIN}",
                      r["escape_fraction"] >= PROBE_ESCAPE_MIN, f"{r['escape_fraction']!r}"),
                _stat("trapping signature reported (unbounded free paths)",
                      not r["gd_stabilized"] and bool(r["warning"]))]

    return _cli("probe", "torus-one-ball", "--samples", n, seed=seed, chords=n, checks=checks,
                expect=lambda r, ctx: {SAMPLES: n, CHORDS: n},
                excluded=lambda r: ((1.0 - r["escape_fraction"] + r["grazing_fraction"]) * n, n))


def _reconstruct(grid, seed):
    cells = grid * grid

    def checks(r, ctx):
        return [_exact("no ambiguous chords", r["skipped_ambiguous"] == 0),
                _exact("every grid cell is a record or a skipped cell",
                       r["records"] + r["skipped_grid_cells"] == cells),
                _stat("Hausdorff distance below 0.05", r["hausdorff_reference_to_cloud"] < 0.05,
                      f"{r['hausdorff_reference_to_cloud']:.4f}")]

    return _cli("reconstruct", "disk", "--grid", grid, seed=seed, chords=cells, checks=checks,
                expect=lambda r, ctx: {SAMPLES: ctx.f_pilot, CHORDS: ctx.f_pilot + cells},
                excluded=lambda r: (r["skipped_grid_cells"] + r["skipped_ambiguous"], cells))


def _conjugacy(n, seed):
    def checks(r, ctx):
        return [_exact("isometry conjugacy residual below 1e-9", r["max_residual"] < 1e-9,
                       f"{r['max_residual']:.2e}")]

    # the second table traces the `used` rows again (all usable rows are clean on the disk)
    return _cli("conjugacy", "disk", "--map", "rotation:1.0", "--samples", n, seed=seed,
                chords=n, checks=checks,
                expect=lambda r, ctx: {SAMPLES: n, CHORDS: n + r["used"]},
                excluded=lambda r: (r["skipped"], n))


def operations(workload, seed, workdir):
    """The operations of one pass of `workload`, with inputs from `seed`;
    generated input files live in `workdir`."""
    if workload == "mc-closed-form":
        ops = [_mfp(p, 65536, seed, MFP_CLOSED_FORM[p])
               for p in ("disk", "ball3", "hyperbolic-disk-1", "cap-pi4", "torus-two-balls")]
        mass = 2.0 * 2.0 * math.pi * (_R1 + _R2)   # vol(B^1) * vol(boundary)
        return ops + [_measure_check("torus-two-balls", 32768, 20, seed, mass),
                      _slices(65536, seed)]
    if workload == "orbits-lockstep":
        return [_time_average_many(10, 1000, seed), _recurrence(128, 2000, seed),
                _simulate(2, 200, seed)]
    if workload == "hits-iterative":
        return [_mfp("ellipse", 8192, seed, _ellipse_mfp()),
                _mfp(str(Path(workdir) / EPS_CONFIG), 65536, seed, MFP_CLOSED_FORM[EPS_CONFIG],
                     max_trapped=1e-3),
                _probe(16384, seed)]
    if workload == "holography":
        return [_reconstruct(64, seed), _conjugacy(10_000, seed)]
    raise ValueError(f"unknown workload {workload!r}")


# -- set-up -------------------------------------------------------------------------


def write_inputs(workdir):
    """Generated input files shared by every pass (the eps-torus --config)."""
    Path(workdir).mkdir(parents=True, exist_ok=True)
    (Path(workdir) / EPS_CONFIG).write_text(json.dumps(EPS_TORUS))


def build_tables(workload, workdir):
    """Tables the workload uses, built the way the CLI builds them."""
    from billiardlab.config import load_table_config
    from billiardlab.presets import preset_table

    return {name: (load_table_config(Path(workdir) / name) if name.endswith(".json")
                   else preset_table(name))
            for name in TABLES[workload]}


def build_fs(workload, tables, seed=0):
    from billiardlab.lyapunov import build_well_balanced_F

    return {name: build_well_balanced_F(tables[name], seed=seed)
            for name in F_TABLES.get(workload, ())}
