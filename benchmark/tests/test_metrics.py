import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_metric_name_is_valid_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name) and NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in layers.PER_LAYER]
    assert {m["layer"] for m in layers.PER_LAYER} == set(layers.LAYERS)
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", str(trace)]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] != 0, m["name"]


def test_fails_without_the_program(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
