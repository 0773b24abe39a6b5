import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from billiardlab import cli
from billiardlab.cli import main, version_string
from billiardlab.config import load_table_config, table_from_dict
from billiardlab.dynamics import Elastic, orbit_batches
from billiardlab.errors import ConfigError
from billiardlab.measure import sample_mu_theta
from billiardlab.presets import PRESETS, preset_table
from billiardlab.tables import Ball


# -- config -------------------------------------------------------------------


DISK_CONF = {
    "name": "custom-disk",
    "space": "euclidean",
    "dimension": 2,
    "pieces": [{"shape": "ball", "side": "outer", "center": [0.0, 0.0], "radius": 1.0}],
}


def test_config_round_trip(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(DISK_CONF))
    table = load_table_config(path)
    assert table.name == "custom-disk"
    assert table.space.kind == "euclidean"
    assert abs(table.pieces[0].radius - 1.0) < 1e-15


def test_config_every_preset_equivalent():
    # the documented schema can express every shipped preset family
    confs = [
        {"space": "flat-torus", "periods": [1.0, 1.0],
         "pieces": [{"shape": "ball", "side": "obstacle", "center": [0.5, 0.5], "radius": 0.25}]},
        {"space": "hyperbolic-ball", "dimension": 2,
         "pieces": [{"shape": "ball", "side": "outer", "center": [0.0, 0.0], "radius": 1.0}]},
        {"space": "sphere", "dimension": 2,
         "pieces": [{"shape": "ball", "side": "outer", "center": [0.0, 0.0, 1.0],
                     "radius": 0.7853981633974483}]},
        {"space": "euclidean", "dimension": 2,
         "pieces": [{"shape": "radial-fourier", "side": "outer", "base_radius": 1.0,
                     "cos_coefficients": [0.0, 0.15]}]},
    ]
    for conf in confs:
        table = table_from_dict(conf)
        assert len(table.pieces) >= 1


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        table_from_dict({**DISK_CONF, "spaec": "euclidean"})
    bad_piece = dict(DISK_CONF)
    bad_piece["pieces"] = [{"shape": "ball", "side": "outer", "centre": [0, 0], "radius": 1.0}]
    with pytest.raises(ConfigError):
        table_from_dict(bad_piece)


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        table_from_dict({"space": "euclidean", "pieces": []})
    with pytest.raises(ConfigError):
        table_from_dict({"space": "nowhere", "pieces": DISK_CONF["pieces"]})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_table_config(path)


@pytest.mark.parametrize("tolerances", [
    {"l_max": 0}, {"l_max": -1.0}, {"l_max": float("inf")}, {"hit_tol": -1},
    {"hit_tol": 0.0}, {"hit_tol": "1e-10"}, {"grazing_tol": float("nan")}, {"grazing_tol": True},
], ids=["l_max-0", "l_max-negative", "l_max-inf", "hit_tol-negative", "hit_tol-0",
        "hit_tol-string", "grazing_tol-nan", "grazing_tol-bool"])
def test_config_rejects_non_positive_tolerances(tolerances):
    with pytest.raises(ConfigError, match="must be positive and finite"):
        table_from_dict({**DISK_CONF, "tolerances": tolerances})


def test_config_half_space_is_a_sphere_cap():
    cap = {"space": "sphere", "dimension": 2,
           "pieces": [{"shape": "half-space", "side": "outer", "pole": [0.0, 0.0, 1.0],
                       "angle": 0.7}]}
    table = table_from_dict(cap)
    assert isinstance(table.pieces[0], Ball)
    assert table.pieces[0].radius == 0.7
    for space in ({"space": "euclidean"}, {"space": "hyperbolic-ball"},
                  {"space": "flat-torus", "periods": [1.0, 1.0]}):
        with pytest.raises(ConfigError, match="sphere caps"):
            table_from_dict({**cap, **space})
    for key, value in (("normal", [0.0, 1.0]), ("offset", 1.0),
                       ("minkowski_normal", [0.0, 1.0, 0.0])):
        with pytest.raises(ConfigError, match="unknown keys"):
            table_from_dict({**cap, "pieces": [{**cap["pieces"][0], key: value}]})
    with pytest.raises(ConfigError, match="pole"):
        table_from_dict({**cap, "pieces": [{"shape": "half-space", "angle": 0.7}]})


def test_all_presets_load():
    for name in PRESETS:
        table = preset_table(name)
        assert table.l_max > 0


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        preset_table("dodecahedron")


# -- cli ----------------------------------------------------------------------


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else {}
    return code, payload


def test_cli_mfp_report(tmp_path, capsys):
    code, rep = run_cli(["mfp", "--preset", "disk", "--samples", "20000",
                         "--seed", "7", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["command"] == "mfp"
    assert abs(rep["results"]["prediction"] - np.pi / 2) < 1e-12
    assert abs(rep["results"]["space_mean"] - np.pi / 2) < 4 * rep["results"]["stderr"]
    assert rep["seed"] == 7
    assert rep["version"]
    assert rep["wall_time_s"] >= 0
    assert (tmp_path / "mfp.json").exists()


def _checkout_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}


def test_python_m_runs_the_cli_from_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "billiardlab", "mfp", "--preset", "disk",
                           "--samples", "2000", "--seed", "3", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=_checkout_env(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads((tmp_path / "mfp.json").read_text())
    assert rep["command"] == "mfp" and rep["results"]["count"] == 2000


def test_importing_the_cli_leaves_the_heavy_modules_unloaded():
    """scipy.spatial (the KD-tree) and fractions (the CSV writer's powers of ten) load
    on first use, so every subcommand starts without them."""
    code = ("import sys, billiardlab.cli; "
            "print([m for m in ('scipy.spatial', 'fractions', 'decimal') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _strip_volatile(report):
    report = dict(report)
    report.pop("wall_time_s", None)
    return report


@pytest.mark.parametrize("argv", [
    ["mfp", "--preset", "disk", "--samples", "150000"],
    ["measure-check", "--preset", "disk", "--samples", "70000", "--boxes", "4"],
    ["probe", "--preset", "torus-one-ball", "--samples", "70000"],
    ["conjugacy", "--preset", "disk", "--map", "rotation:1.0", "--samples", "70000"],
    ["slices", "--preset", "disk", "--samples", "70000", "--grid-points", "12"],
], ids=lambda argv: argv[0])
def test_cli_worker_count_does_not_change_results(argv, tmp_path, capsys):
    reports, side_files = [], []
    for workers in ("1", "2"):
        out = tmp_path / workers
        code, rep = run_cli(argv + ["--seed", "3", "--workers", workers, "--out", str(out)],
                            capsys)
        assert code == 0
        rep = _strip_volatile(rep)
        rep.pop("files")
        reports.append(rep)
        side_files.append({p.name: p.read_bytes() for p in out.iterdir()
                           if p.name != f"{argv[0]}.json"})
    assert reports[0] == reports[1]
    assert side_files[0] == side_files[1]


def test_api_and_cli_share_the_mean_free_path(tmp_path, capsys):
    from billiardlab.ergodic import mean_free_path

    api = mean_free_path(preset_table("disk"), count=100_000, seed=42)
    code, rep = run_cli(["mfp", "--preset", "disk", "--samples", "100000", "--seed", "42",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["space_mean"] == api.space.mean
    assert rep["results"]["stderr"] == api.space.stderr
    assert rep["results"]["note"] == api.note


def test_api_and_cli_share_the_slice_identity(tmp_path, capsys):
    from billiardlab.lyapunov import build_well_balanced_F, slice_identity

    table = preset_table("disk")
    api = slice_identity(table, build_well_balanced_F(table, seed=42), 70_000, 42, 12)
    code, rep = run_cli(["slices", "--preset", "disk", "--samples", "70000", "--grid-points",
                         "12", "--seed", "42", "--out", str(tmp_path)], capsys)
    assert code == 0
    res = rep["results"]
    assert res["f_min"] == api.variation.f_min
    assert res["f_max"] == api.variation.f_max
    assert res["var_f"] == api.variation.var
    assert res["integral_a_dt"] == api.integral
    assert res["predicted_integral"] == api.predicted
    assert res["relative_gap"] == api.relative_gap
    assert res["max_area"] == api.max_area
    rows = (tmp_path / "slice_areas.csv").read_text().splitlines()[1:]
    assert rows == [f"{t},{e.mean},{e.stderr}" for t, e in zip(api.grid, api.areas)]


@pytest.mark.parametrize("conf", [
    {"space": "sphere", "pieces": [{"shape": "ball", "center": [0, 0, 2.0], "radius": 0.7}]},
    {"space": "sphere", "pieces": [{"shape": "half-space", "pole": [0, 0, 2.0], "angle": 0.7}]},
    {"space": "hyperbolic-ball", "pieces": [{"shape": "ball", "center": [1.5, 0.0],
                                             "radius": 0.5}]},
    {"space": "euclidean", "dimension": 3, "pieces": [{"shape": "ball", "center": [0.0, 0.0],
                                                       "radius": 1.0}]},
], ids=["sphere-ball", "sphere-half-space", "hyperbolic-outside-chart", "euclidean-short"])
def test_cli_rejects_ball_centres_off_the_space(conf, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(conf))
    code, payload = run_cli(["mfp", "--config", str(path), "--samples", "1000",
                             "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    centre = conf["pieces"][0].get("center", conf["pieces"][0].get("pole"))
    assert f"ball centre {[float(x) for x in centre]}" in payload["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["mfp", "--preset", "disk", "--samples", "0"],
    ["slices", "--preset", "disk", "--samples", "0"],
    ["measure-check", "--preset", "disk", "--samples", "0"],
    ["probe", "--preset", "disk", "--samples", "-5"],
    ["conjugacy", "--preset", "disk", "--samples", "0"],
    ["simulate", "--preset", "disk", "--orbits", "0"],
    *(pytest.param([command, "--preset", "disk", flag, "0"], id=f"{command}{flag}")
      for command, flag in (("simulate", "--bounces"), ("measure-check", "--boxes"),
                            ("slices", "--grid-points"), ("reconstruct", "--grid"),
                            ("reconstruct", "--reference-points"),
                            ("recurrence", "--starters"), ("recurrence", "--bounces"))),
], ids=lambda argv: argv[0])
def test_cli_rejects_non_positive_counts(argv, tmp_path, capsys):
    code, payload = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert not (tmp_path / "out").exists()


# table configs with a bad value or a bad type; each is a validation error, not a traceback
_DISK_PIECE = DISK_CONF["pieces"][0]
_TORUS_CONF = {"space": "flat-torus", "pieces": [{"shape": "ball", "side": "obstacle",
                                                 "center": [0.5, 0.5], "radius": 0.25}]}
BAD_CONFIGS = {
    "dimension-4": {**DISK_CONF, "dimension": 4},
    "dimension-float": {**DISK_CONF, "dimension": 2.0},
    "periods-negative": {**_TORUS_CONF, "periods": [1, -1]},
    "periods-string": {**_TORUS_CONF, "periods": "ab"},
    "radius-string": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "radius": "1"}]},
    "center-string": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "center": "ab"}]},
    "cos-coefficients-string": {**DISK_CONF, "pieces": [
        {"shape": "radial-fourier", "base_radius": 1.0, "cos_coefficients": "x"}]},
    "piece-not-an-object": {**DISK_CONF, "pieces": [3]},
    "pieces-not-a-list": {**DISK_CONF, "pieces": _DISK_PIECE},
    "radius-bool": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "radius": True}]},
    "l-max-list": {**DISK_CONF, "tolerances": {"l_max": [1.0]}},
    # json.load reads the NaN, Infinity and -Infinity tokens json.dumps writes
    "radius-nan": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "radius": float("nan")}]},
    "radius-inf": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "radius": float("inf")}]},
    "center-nan": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "center": [float("nan"), 0.0]}]},
    "angle-inf": {"space": "sphere", "pieces": [
        {"shape": "half-space", "pole": [0.0, 0.0, 1.0], "angle": float("inf")}]},
    "cos-coefficients-inf": {**DISK_CONF, "pieces": [
        {"shape": "radial-fourier", "base_radius": 1.0, "cos_coefficients": [0.0, -float("inf")]}]},
    "periods-inf": {**_TORUS_CONF, "periods": [float("inf"), 1.0]},
    # no sphere point lies farther than pi from the centre: the wall would be empty
    "sphere-ball-radius-above-pi": {"space": "sphere", "pieces": [
        {"shape": "ball", "center": [0.0, 0.0, 1.0], "radius": 3.5}]},
    "sphere-cap-angle-above-pi": {"space": "sphere", "pieces": [
        {"shape": "half-space", "pole": [0.0, 0.0, 1.0], "angle": 3.2}]},
    # a JSON integer too large for a float
    "radius-huge-int": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "radius": 10 ** 400}]},
    "periods-missing": _TORUS_CONF,
    "shape-unknown": {**DISK_CONF, "pieces": [{**_DISK_PIECE, "shape": "square"}]},
}
# the key each type or value error must name
BAD_CONFIG_KEYS = {"periods-string": "periods", "radius-string": "radius",
                   "center-string": "center", "cos-coefficients-string": "cos_coefficients",
                   "radius-bool": "radius", "l-max-list": "l_max", "radius-nan": "radius",
                   "radius-inf": "radius", "center-nan": "center", "angle-inf": "angle",
                   "cos-coefficients-inf": "cos_coefficients", "periods-inf": "periods",
                   "sphere-ball-radius-above-pi": "radius", "sphere-cap-angle-above-pi": "radius",
                   "periods-missing": "periods", "shape-unknown": "shape"}


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--preset", "disk", "--grid", "8", "--resolution", "0"],
    ["reconstruct", "--preset", "disk", "--grid", "8", "--resolution", "-1"],
    ["mfp", "--preset", "disk", "--samples", "100", "--lmax", "0"],
    ["mfp", "--preset", "disk", "--samples", "100", "--lmax", "-1"],
    ["mfp", "--preset", "disk", "--samples", "100", "--lmax", "nan"],
    ["hear", "--lengths", "{good}", "--boundary", "0", "--dim", "2"],
    ["hear", "--lengths", "{good}", "--boundary", "inf", "--dim", "2"],
    ["hear", "--lengths", "{good}", "--boundary", "1", "--dim", "0"],
    ["hear", "--lengths", "{missing}", "--boundary", "1", "--dim", "2"],
    ["hear", "--lengths", "{bad_row}", "--boundary", "1", "--dim", "2"],
    ["recurrence", "--preset", "disk", "--box-piece", "5", "--starters", "4", "--bounces", "10"],
    ["recurrence", "--preset", "disk", "--box-piece", "-1", "--starters", "4", "--bounces", "10"],
    ["mfp", "--preset", "disk", "--samples", "100", "--seed", "-1"],
    ["simulate", "--preset", "disk", "--orbits", "2", "--bounces", "5", "--seed", "-1"],
    ["reconstruct", "--preset", "disk", "--grid", "8", "--seed", "-1"],
    ["conjugacy", "--preset", "disk", "--map", "rotation:abc", "--samples", "100"],
    ["conjugacy", "--preset", "disk", "--map", "rotation:nan", "--samples", "100"],
    ["conjugacy", "--preset", "torus-two-balls", "--map", "translation:0.1,0.2,0.3",
     "--samples", "100"],
    ["conjugacy", "--preset", "torus-two-balls", "--map", "translation:0.1", "--samples", "100"],
    ["recurrence", "--preset", "disk", "--box-angle", "nan", "0.1", "--starters", "4",
     "--bounces", "10"],
    ["recurrence", "--preset", "disk", "--box-incidence", "0.4", "inf", "--starters", "4",
     "--bounces", "10"],
    ["recurrence", "--preset", "disk", "--box-incidence", "0.6", "0.4"],
    ["recurrence", "--preset", "disk", "--box-angle", "0.3", "0.3"],
    ["mfp", "--preset", "disk", "--samples", "nan"],
    ["mfp", "--preset", "disk", "--samples", "inf"],
    ["simulate", "--preset", "disk", "--orbits", "2", "--bounces", "nan"],
    ["simulate", "--preset", "disk", "--orbits", "2", "--bounces", "inf"],
    ["mfp", "--preset", "disk", "--samples", "100", "--workers", "0"],
    ["mfp", "--preset", "disk", "--samples", "100", "--workers", "-3"],
    ["conjugacy", "--preset", "disk", "--map", "translation:0.1,0.2", "--samples", "100"],
    ["conjugacy", "--preset", "disk", "--map", "shear:1", "--samples", "100"],
    # command lines the parser rejects
    ["simulate", "--preset", "disk", "--orbits", "abc"],
    ["mfp", "--preset", "disk", "--bogus"],
    ["mfp", "--samples", "100"],
    ["frobnicate"],
    *(["mfp", "--config", f"{{{name}}}", "--samples", "100"] for name in BAD_CONFIGS),
], ids=["resolution-0", "resolution-negative", "lmax-0", "lmax-negative", "lmax-nan",
        "boundary-0", "boundary-inf", "dim-0", "lengths-missing", "lengths-bad-row",
        "box-piece-5", "box-piece-negative", "seed-negative-mfp", "seed-negative-simulate",
        "seed-negative-reconstruct", "rotation-not-a-number", "rotation-nan",
        "translation-three-components", "translation-one-component", "box-angle-nan",
        "box-incidence-inf", "box-incidence-empty", "box-angle-empty", "samples-nan", "samples-inf", "bounces-nan", "bounces-inf",
        "workers-zero", "workers-negative", "translation-off-a-torus", "map-unknown",
        "orbits-not-an-int", "flag-unknown", "table-missing", "subcommand-unknown",
        *(f"config-{name}" for name in BAD_CONFIGS)])
def test_cli_rejects_out_of_domain_values(argv, tmp_path, capsys):
    files = {"good": tmp_path / "good.csv", "bad_row": tmp_path / "bad_row.csv",
             "missing": tmp_path / "missing.csv"}
    files["good"].write_text("length\n1.0\n2.0\n")
    files["bad_row"].write_text("length\n1.0\nabc\n3.0\n")
    for name, conf in BAD_CONFIGS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(conf))
    keys = [BAD_CONFIG_KEYS[a[1:-1]] for a in argv if a[1:-1] in BAD_CONFIG_KEYS]
    argv = [a.format(**files) for a in argv]
    code, payload = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert all(key in payload["error"]["message"] for key in keys)
    assert not (tmp_path / "out").exists()


def test_cli_measure_check_rejects_three_dimensional_tables(tmp_path, capsys):
    code, payload = run_cli(["measure-check", "--preset", "ball3", "--samples", "1000",
                             "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--preset", "ball3", "--grid", "8"],
    ["recurrence", "--preset", "ball3", "--starters", "4", "--bounces", "10"],
    ["conjugacy", "--preset", "ball3", "--map", "param", "--samples", "100"],
    ["conjugacy", "--preset", "disk", "--other", "ball3", "--map", "param", "--samples", "100"],
    ["conjugacy", "--preset", "disk", "--other", "cap-pi4", "--map", "param",
     "--samples", "100"],
], ids=["reconstruct", "recurrence", "conjugacy", "conjugacy-to-ball3", "conjugacy-to-cap"])
def test_cli_planar_only_subcommands_reject_other_tables(argv, tmp_path, capsys):
    code, payload = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert not (tmp_path / "out").exists()


def _cap_config(path, dim, angle, shape):
    pole = [0.0] * dim + [1.0]
    piece = ({"shape": "half-space", "pole": pole, "angle": angle} if shape == "half-space"
             else {"shape": "ball", "center": pole, "radius": angle})
    path.write_text(json.dumps({"space": "sphere", "dimension": dim,
                                "pieces": [{"side": "outer", **piece}]}))
    return str(path)


@pytest.mark.parametrize("dim,angle", [(2, 0.7), (2, 1.2), (3, 0.7), (3, 1.2)])
def test_half_space_cap_mfp_equals_ball_cap(dim, angle, tmp_path, capsys):
    results = []
    for shape in ("half-space", "ball"):
        conf = _cap_config(tmp_path / f"{shape}.json", dim, angle, shape)
        code, rep = run_cli(["mfp", "--config", conf, "--samples", "20000", "--seed", "1",
                             "--out", str(tmp_path / shape)], capsys)
        assert code == 0
        results.append(rep["results"])
    assert results[0] == results[1]


def test_half_space_cap_slices_equals_ball_cap(tmp_path, capsys):
    results, curves = [], []
    for shape in ("half-space", "ball"):
        conf = _cap_config(tmp_path / f"{shape}.json", 2, 0.7, shape)
        out = tmp_path / shape
        code, rep = run_cli(["slices", "--config", conf, "--samples", "20000",
                             "--grid-points", "12", "--seed", "1", "--out", str(out)], capsys)
        assert code == 0
        results.append(rep["results"])
        curves.append((out / "slice_areas.csv").read_bytes())
    assert results[0] == results[1]
    assert curves[0] == curves[1]


def test_cli_probe_warns_on_one_ball(tmp_path, capsys):
    code, rep = run_cli(["probe", "--preset", "torus-one-ball", "--samples", "20000",
                         "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["escape_fraction"] > 0.999
    assert "unbounded" in rep["results"]["warning"]


def test_cli_probe_clean_on_disk(tmp_path, capsys):
    code, rep = run_cli(["probe", "--preset", "disk", "--samples", "10000",
                         "--seed", "1", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["warning"] == ""
    assert abs(rep["results"]["max_chord"] - 2.0) < 1e-3


def test_cli_simulate_writes_orbits(tmp_path, capsys):
    code, rep = run_cli(["simulate", "--preset", "disk", "--orbits", "3",
                         "--bounces", "50", "--seed", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "orbit_000.jsonl").exists()
    assert (tmp_path / "orbits_summary.csv").exists()
    lines = (tmp_path / "orbit_000.jsonl").read_text().strip().splitlines()
    assert len(lines) == 50
    record = json.loads(lines[0])
    assert set(record) >= {"entry_q", "entry_v", "exit_q", "exit_v", "length"}


# a torus with a wide grazing band: at --lmax 6 its orbits end trapped, grazing or completed
GRAZING_TORUS_CONF = {
    "space": "flat-torus", "dimension": 2, "periods": [1.0, 1.0],
    "pieces": [{"shape": "ball", "side": "obstacle", "center": [0.5, 0.5], "radius": 0.25}],
    "tolerances": {"grazing_tol": 0.15},
}


@pytest.mark.parametrize("preset, lmax, orbits, bounces, seed", [
    ("torus-one-ball", 1.5, 6, 40, 0),
    ("ball3", None, 3, 60, 3),
    (None, 6.0, 6, 40, 0),
], ids=["torus-one-ball-trapped", "ball3", "torus-config-grazing"])
def test_cli_simulate_dumps_the_orbit_batches(preset, lmax, orbits, bounces, seed,
                                              tmp_path, capsys):
    table_args = ["--preset", preset]
    if preset is None:
        config = tmp_path / "table.json"
        config.write_text(json.dumps(GRAZING_TORUS_CONF))
        table_args = ["--config", str(config)]
    out = tmp_path / "out"
    argv = ["simulate", *table_args, "--orbits", str(orbits), "--bounces", str(bounces),
            "--seed", str(seed), "--out", str(out)]
    code, rep = run_cli(argv + (["--lmax", str(lmax)] if lmax else []), capsys)
    assert code == 0
    table = preset_table(preset) if preset else table_from_dict(GRAZING_TORUS_CONF)
    if lmax:
        table = table.with_l_max(lmax)
    starts = sample_mu_theta(table, orbits, seed)
    kinds, chords = orbit_batches(table, Elastic(), starts.q, starts.v, bounces)
    summary = io.StringIO()
    writer = csv.writer(summary)
    writer.writerow(["orbit", "termination", "bounces", "total_length", "mean_length"])
    for i, (kind, ch) in enumerate(zip(kinds, chords)):
        lines = "".join(json.dumps({
            "entry_q": ch.entry_q[j].tolist(), "entry_v": ch.entry_v[j].tolist(),
            "exit_q": ch.exit_q[j].tolist(), "exit_v": ch.exit_v[j].tolist(),
            "length": float(ch.length[j]), "degenerate": bool(ch.degenerate[j]),
            "grazing": bool(ch.grazing[j]),
        }) + "\n" for j in range(len(ch)))
        assert (out / f"orbit_{i:03d}.jsonl").read_bytes() == lines.encode()
        lengths = [float(s) for s in ch.length]
        writer.writerow([i, kind, len(ch), sum(lengths), np.mean(lengths) if lengths else np.nan])
    assert (out / "orbits_summary.csv").read_bytes() == summary.getvalue().encode()
    assert rep["results"]["terminations"] == {k: kinds.count(k) for k in kinds}
    if preset is None:  # every ending, and a grazing chord written as the last line
        assert set(kinds) == {"completed", "trapped", "grazing"}
        assert all(ch.grazing[-1] for kind, ch in zip(kinds, chords) if kind == "grazing")
    elif lmax:  # the case exists to cover trapped orbits, some with empty dumps
        assert "trapped" in kinds and any(len(ch) == 0 for ch in chords)
    else:
        assert chords[0].entry_q[0].shape == (3,)


def test_cli_measure_check(tmp_path, capsys):
    code, rep = run_cli(["measure-check", "--preset", "disk", "--samples", "50000",
                         "--boxes", "5", "--seed", "4", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert len(rep["results"]["boxes"]) == 5
    assert rep["results"]["max_abs_z"] < 4.0


def test_cli_recurrence(tmp_path, capsys):
    code, rep = run_cli(["recurrence", "--preset", "disk", "--bounces", "500",
                         "--starters", "40", "--seed", "5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["returned_fraction"] > 0.9


def test_cli_recurrence_full_circle_box_angle(tmp_path, capsys):
    # an angle interval of length 2 pi is the whole wall, not an empty arc
    code, rep = run_cli(["recurrence", "--preset", "disk", "--box-angle", "0",
                         "6.283185307179586", "--bounces", "20", "--starters", "16",
                         "--seed", "5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["starters"] == 16


def test_cli_slices(tmp_path, capsys):
    code, rep = run_cli(["slices", "--preset", "disk", "--samples", "30000",
                         "--grid-points", "40", "--seed", "6", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert abs(rep["results"]["integral_a_dt"] - 2 * np.pi ** 2) < 0.05 * 2 * np.pi ** 2
    assert (tmp_path / "slice_areas.csv").exists()


def test_cli_conjugacy(tmp_path, capsys):
    code, rep = run_cli(["conjugacy", "--preset", "disk", "--map", "rotation:1.0",
                         "--samples", "2000", "--seed", "7", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["max_residual"] < 1e-9


@pytest.mark.parametrize("argv, used", [
    (["--map", "identity"], 2000),
    (["--map", "reflection"], 2000),
    # --lmax caps both tables, so every chord longer than 0.5 is skipped
    (["--other", "disk", "--lmax", "0.5", "--map", "identity"], 66),
], ids=["identity", "reflection", "capped-other"])
def test_cli_conjugacy_of_the_disk_with_itself_is_exact(argv, used, tmp_path, capsys):
    code, rep = run_cli(["conjugacy", "--preset", "disk", "--samples", "2000",
                         "--out", str(tmp_path)] + argv, capsys)
    assert code == 0
    assert rep["results"]["max_residual"] == 0.0
    assert (rep["results"]["used"], rep["results"]["skipped"]) == (used, 2000 - used)


@pytest.mark.parametrize("preset, other", [("ball3", None), ("cap-pi4", None), ("disk", "ball3")])
def test_cli_conjugacy_rejects_rotations_of_non_planar_charts(preset, other, tmp_path, capsys):
    args = ["conjugacy", "--preset", preset, "--map", "rotation:1.0", "--samples", "100",
            "--out", str(tmp_path)] + (["--other", other] if other else [])
    code, payload = run_cli(args, capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert "planar" in payload["error"]["message"]
    assert list(tmp_path.iterdir()) == []


def test_cli_reconstruct(tmp_path, capsys):
    code, rep = run_cli(["reconstruct", "--preset", "disk", "--grid", "24",
                         "--seed", "8", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["hausdorff_reference_to_cloud"] < 0.15
    assert (tmp_path / "scattering.jsonl").exists()
    assert (tmp_path / "chord_cloud.csv").exists()


def test_cli_hear(tmp_path, capsys):
    lengths = tmp_path / "lengths.csv"
    lengths.write_text("\n".join([str(np.pi / 2)] * 64) + "\n")
    code, rep = run_cli(["hear", "--lengths", str(lengths), "--boundary",
                         "6.283185307179586", "--dim", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert abs(rep["results"]["vol_m_estimate"] - np.pi) < 1e-9
    assert (tmp_path / "hear_volume.csv").exists()


@pytest.mark.parametrize("row", ["nan", "inf", "-5"])
def test_cli_hear_rejects_bad_bounce_lengths(row, tmp_path, capsys):
    lengths = tmp_path / "lengths.csv"
    lengths.write_text(f"1.5\n{row}\n2.0\n")
    code, payload = run_cli(["hear", "--lengths", str(lengths), "--boundary", "1", "--dim", "2",
                             "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert not (tmp_path / "out").exists()


def test_cli_hear_accepts_zero_lengths(tmp_path, capsys):
    lengths = tmp_path / "lengths.csv"
    lengths.write_text("0\n2.0\n")
    code, rep = run_cli(["hear", "--lengths", str(lengths), "--boundary", "2", "--dim", "2",
                         "--out", str(tmp_path)], capsys)
    assert code == 0 and abs(rep["results"]["vol_m_estimate"] - 2.0 / np.pi) < 1e-12


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("argv, key", [
    (["mfp", "--preset", "disk", "--samples", "1"], "stderr"),
    (["conjugacy", "--preset", "disk", "--other", "ellipse", "--map", "identity",
      "--samples", "2000"], "max_residual"),
], ids=["mfp-one-sample", "conjugacy-none-used"])
def test_cli_reports_are_strict_json(argv, key, tmp_path, capsys):
    code = main(argv + ["--out", str(tmp_path)])
    printed = capsys.readouterr().out
    assert code == 0
    for text in (printed, (tmp_path / f"{argv[0]}.json").read_text()):
        rep = json.loads(text, parse_constant=_reject_constant)
        assert rep["results"][key] is None


def test_cli_records_a_given_length_cap(tmp_path, capsys):
    code, rep = run_cli(["simulate", "--preset", "torus-one-ball", "--orbits", "4",
                         "--bounces", "3", "--lmax", "0.05", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert rep["results"]["terminations"] == {"trapped": 4}
    assert rep["config"]["lmax"] == 0.05
    code, rep = run_cli(["simulate", "--preset", "disk", "--orbits", "1", "--bounces", "1",
                         "--out", str(tmp_path)], capsys)
    assert code == 0 and "lmax" not in rep["config"]


def test_cli_validation_error_exit_code(tmp_path, capsys):
    code, payload = run_cli(["mfp", "--config", str(tmp_path / "missing.json"),
                             "--out", str(tmp_path)], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # a length cap far below the mean chord trips the trapping budget
    code, payload = run_cli(["mfp", "--preset", "torus-one-ball", "--samples", "3000",
                             "--lmax", "0.6", "--seed", "9", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error" in payload


def test_version_string_nonempty():
    assert version_string()


@pytest.mark.parametrize("argv", [["--version"], ["mfp", "--help"]], ids=["version", "help"])
def test_cli_version_and_help_exit_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_conjugacy_help_names_every_boundary_map(capsys):
    # the specs `_parse_boundary_map` accepts, read from its own tests of `spec`
    source = inspect.getsource(cli._parse_boundary_map)
    tests = re.findall(r'spec == "(\w+)"|spec\.startswith\("(\w+:)"\)', source)
    specs = [a or b for a, b in tests]
    assert specs == ["identity", "param", "reflection", "rotation:", "translation:"]
    assert main(["conjugacy", "--help"]) == 0
    out = capsys.readouterr().out
    assert all(spec in out for spec in specs)


HEMISPHERE_CONF = {"space": "sphere", "pieces": [
    {"shape": "half-space", "pole": [0.0, 0.0, 1.0], "angle": 1.5707963267948966}]}


@pytest.mark.parametrize("table", [["--preset", "torus-two-balls"], ["--config", "{hemisphere}"]],
                         ids=["torus", "hemisphere"])
def test_cli_slices_rejects_tables_no_convex_ball_encloses(table, tmp_path, capsys):
    conf = tmp_path / "hemisphere.json"
    conf.write_text(json.dumps(HEMISPHERE_CONF))
    argv = ["slices", *(a.format(hemisphere=conf) for a in table), "--samples", "1000",
            "--out", str(tmp_path / "out")]
    code, payload = run_cli(argv, capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert "convex" in payload["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", "length\n"], ids=["empty", "header-only"])
def test_cli_hear_rejects_a_file_without_lengths(text, tmp_path, capsys):
    lengths = tmp_path / "lengths.csv"
    lengths.write_text(text)
    code, payload = run_cli(["hear", "--lengths", str(lengths), "--boundary", "1", "--dim", "2",
                             "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert payload["error"]["type"] == "validation"
    assert not (tmp_path / "out" / "hear_volume.csv").exists()
