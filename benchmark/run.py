"""billiardlab benchmark: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload mc-closed-form --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; billiardlab is imported from its `src/`.
Each run first times set-up in fresh interpreters (SETUP_PROBES of them,
median reported), then starts one workload process (worker.py) that runs
passes for --seconds.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a separate traced run.
The last line of standard output is the result; the line before it holds
the detail: provenance, medians and tail percentiles with sample counts,
every named check, and per-operation times.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".benchmark-work"
SETUP_PROBES = 5
DEADLINE_S = 170.0

# the workload process pins every BLAS and OpenMP pool to one thread
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "BILLIARDLAB_WORKERS": "1",
    "PYTHONHASHSEED": "0",
}


def tail(values):
    """Median, and the highest whole percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None, "p": None, "p_value": None}
    if n > 10:
        p = math.floor(100.0 * (n - 10) / n)
        out["p"] = p
        out["p_value"] = xs[max(math.ceil(p / 100.0 * n) - 1, 0)]
    return out


def _env():
    env = dict(os.environ)
    env.update(PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args, deadline, env):
    """Run a worker.py mode; returns its last stdout line parsed, or raises."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("benchmark deadline passed")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process exceeded the deadline") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _setup_probes(workload, workdir, deadline, env):
    runs = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        res = _child(["setup", "--workload", workload, "--workdir", str(workdir)], deadline, env)
        res["setup_s"] = res["ready"] - spawned
        runs.append(res)
    return runs


def _provenance(seed, versions):
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, timeout=5,
                             capture_output=True, text=True)
        describe = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        describe = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            **versions, "git_describe": describe, "seed": seed,
            "env_pins": PINS}


def _end_to_end(raw, setup_runs):
    passes = raw["passes"]
    walls = [p["wall"] for p in passes]
    rates = [p["chords"] / p["wall"] for p in passes]
    excluded = sum(p["excluded"] for p in passes)
    base = sum(p["exclusion_base"] for p in passes)
    detail = {
        "setup_s": tail([r["setup_s"] for r in setup_runs]),
        "wall_s": tail(walls),
        "chords_per_s": tail(rates),
    }
    metrics = {
        "setup_s": (detail["setup_s"]["median"], "s"),
        "wall_s": (detail["wall_s"]["median"], "s"),
        "chords_per_s": (detail["chords_per_s"]["median"], "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "kept_fraction": (1.0 - excluded / base if base else 1.0, "ratio"),
    }
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "billiardlab" / "__init__.py").is_file():
        print(f"benchmark: no billiardlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = _env()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workloads.write_inputs(workdir)
        setup_runs = _setup_probes(args.workload, workdir, deadline, env)
        spans_path = WORK / f"spans-{args.workload}.npz"
        raw = _child(["run", "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--workdir", str(workdir), "--spans", str(spans_path)], deadline, env)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = raw["passes"]
    checks = [c for p in passes for c in p["checks"]]
    failures = [f for p in passes for f in p["failed_ops"]]
    attempted = sum(p["ops"] for p in passes)

    if args.trace:
        import layers

        units = {m["name"]: m["unit"] for m in layers.PER_LAYER}
        per_layer = dict(raw["per_layer"])
        for k in ("import_s", "tables_s", "f_s"):
            per_layer[f"setup.{k}"] = statistics.median(r[k] for r in setup_runs)
        metrics = {k: (per_layer[k], units[k]) for k in units}
        detail = {"trace_overhead_s": raw["trace_overhead_s"], "coverage": raw["coverage"],
                  "spans_file": str(spans_path.relative_to(ROOT)),
                  "layers": layers.LAYERS}
    else:
        metrics, detail = _end_to_end(raw, setup_runs)
    detail.update({
        "workload": args.workload,
        "provenance": _provenance(args.seed, raw["versions"]),
        "passes": len(passes),
        "checks_run": len(checks),
        "checks_failed": sum(not c["ok"] for c in checks),
        "failures": failures[:20],
        "checks": sorted({(c["op"], c["check"], c["kind"]) for c in checks}),
        "op_s": {label: tail([p["op_s"][label] for p in passes])
                 for label in passes[0]["op_s"]},
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
