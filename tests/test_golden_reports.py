"""Seeded CLI reports against golden copies recorded before each refactor.

Each case runs one subcommand at a small scale and compares its JSON report,
without `wall_time_s`, `version` and `files`, with `tests/golden/<case>.json`;
side files (orbit dumps, summary CSV) are compared by SHA-256, byte for byte.
The golden values pin the exact floating-point output of this code on the
platform they were recorded on.  To re-record after a deliberate change of a
seeded stream, run `python tests/test_golden_reports.py [case ...]` with `src`
on the path; with no case names it re-records every case.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from billiardlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
VOLATILE = ("wall_time_s", "version", "files")
# bounce lengths for the `hear` case, written next to the output directory
LENGTHS = np.random.default_rng(11).uniform(0.2, 2.0, 300)

CASES = {
    "simulate-torus-two-balls": ["simulate", "--preset", "torus-two-balls", "--orbits", "3",
                                 "--bounces", "80", "--seed", "5"],
    "recurrence-disk": ["recurrence", "--preset", "disk", "--starters", "24",
                        "--bounces", "400", "--seed", "3"],
    "measure-check-disk": ["measure-check", "--preset", "disk", "--samples", "4096",
                           "--boxes", "6", "--seed", "2"],
    "measure-check-torus-two-balls": ["measure-check", "--preset", "torus-two-balls",
                                      "--samples", "4096", "--boxes", "6", "--seed", "4"],
    "mfp-torus-two-balls": ["mfp", "--preset", "torus-two-balls", "--samples", "70000",
                            "--seed", "6"],
    "slices-disk": ["slices", "--preset", "disk", "--samples", "70000", "--grid-points", "12",
                    "--seed", "8"],
    "probe-torus-one-ball": ["probe", "--preset", "torus-one-ball", "--samples", "20000",
                             "--seed", "9"],
    "conjugacy-disk": ["conjugacy", "--preset", "disk", "--map", "rotation:1.0",
                       "--samples", "10000", "--seed", "10"],
    "reconstruct-disk": ["reconstruct", "--preset", "disk", "--grid", "16",
                         "--reference-points", "512", "--seed", "12"],
    "mfp-cap-pi4": ["mfp", "--preset", "cap-pi4", "--samples", "20000", "--seed", "13"],
    "mfp-hyperbolic-disk-1": ["mfp", "--preset", "hyperbolic-disk-1", "--samples", "20000",
                              "--seed", "14"],
    "slices-cap-pi4": ["slices", "--preset", "cap-pi4", "--samples", "20000",
                       "--grid-points", "12", "--seed", "15"],
    "hear": ["hear", "--lengths", "lengths.csv", "--boundary", "6.283185307179586",
             "--dim", "2"],
    "mfp-ball3": ["mfp", "--preset", "ball3", "--samples", "20000", "--seed", "16"],
    "measure-check-cap-pi4": ["measure-check", "--preset", "cap-pi4", "--samples", "4096",
                              "--boxes", "6", "--seed", "17"],
    "measure-check-hyperbolic-disk-1": ["measure-check", "--preset", "hyperbolic-disk-1",
                                        "--samples", "4096", "--boxes", "6", "--seed", "18"],
    "reconstruct-cap-pi4": ["reconstruct", "--preset", "cap-pi4", "--grid", "16",
                            "--reference-points", "512", "--seed", "19"],
    "reconstruct-hyperbolic-disk-1": ["reconstruct", "--preset", "hyperbolic-disk-1",
                                      "--grid", "16", "--reference-points", "512",
                                      "--seed", "20"],
    "reconstruct-torus-two-balls": ["reconstruct", "--preset", "torus-two-balls",
                                    "--grid", "16", "--reference-points", "512",
                                    "--seed", "21"],
}


def run_case(argv, work):
    """Report without its volatile keys, and the SHA-256 of every side file.

    Runs inside `work`, so the relative `lengths.csv` path is the same in
    every run; the outputs go to `work/out`.
    """
    out = work / "out"
    (work / "lengths.csv").write_text("length\n" + "".join(f"{x!r}\n" for x in LENGTHS.tolist()))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main(argv + ["--out", str(out)]) == 0
    finally:
        os.chdir(cwd)
    report = json.loads((out / f"{argv[0]}.json").read_text())
    for key in VOLATILE:
        report.pop(key)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir()) if p.name != f"{argv[0]}.json"}
    return {"report": report, "files": files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path, capsys):
    got = run_case(CASES[case], tmp_path)
    capsys.readouterr()
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert got["report"] == want["report"]
    assert got["files"] == want["files"]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sys.argv[1:] or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            data = run_case(CASES[case], Path(tmp))
        (GOLDEN / f"{case}.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(case, file=sys.stderr)
