"""Workload process of the benchmark (started by run.py, one per run).

    worker.py setup --workload W --workdir D
        import billiardlab, build the workload's tables and Lyapunov F, and
        print the monotonic time at which that finished, for setup_s.
    worker.py run --workload W --seed N --seconds T --trace 0|1 --workdir D [--spans P]
        run passes until T seconds are measured, check every output, and
        print one JSON object of raw results.

With --trace 1 untraced and traced passes alternate; the traced ones record
spans (see spans.py) and are checked for coverage.  billiardlab is imported
from the PYTHONPATH that run.py sets.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# standard library only at module level: the set-up probe times `import billiardlab`
# (and with it numpy and scipy) from a clean interpreter
import workloads


def _setup(args):
    t0 = time.monotonic()
    import billiardlab  # noqa: F401
    import billiardlab.cli  # noqa: F401
    t1 = time.monotonic()
    tables = workloads.build_tables(args.workload, args.workdir)
    t2 = time.monotonic()
    workloads.build_fs(args.workload, tables)
    t3 = time.monotonic()
    print(json.dumps({"ready": t3, "import_s": t1 - t0, "tables_s": t2 - t1, "f_s": t3 - t2}))


class Context:
    """What operations and checks share within one workload process."""

    def __init__(self, workload, workdir):
        import inspect

        import billiardlab.cli
        from billiardlab import dynamics, ergodic, lyapunov, measure

        self.bl = SimpleNamespace(cli=billiardlab.cli, dynamics=dynamics, ergodic=ergodic,
                                  measure=measure)
        self.tables = workloads.build_tables(workload, workdir)
        self.f_pilot = inspect.signature(
            lyapunov.build_well_balanced_F).parameters["pilot_count"].default
        self.outdir = Path(workdir) / "out"
        self.last_out = None


def _run_op(op, ctx, recorder):
    """Run one operation; returns (seconds, result or None, bytes written, error)."""
    out = ctx.outdir
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ctx.last_out = out
    sink = io.StringIO()
    span = recorder.open(recorder.name_index(op.span)) if recorder else None
    t0 = time.perf_counter()
    error = None
    result = None
    try:
        if op.argv is not None:
            with contextlib.redirect_stdout(sink):
                code = ctx.bl.cli.main(op.argv + ["--out", str(out), "--workers", "1"])
            if code != 0:
                error = f"exit code {code}: {sink.getvalue().strip()[-500:]}"
        else:
            result = op.call(ctx)
    except Exception:
        error = traceback.format_exc(limit=4)
    seconds = time.perf_counter() - t0
    if span is not None:
        recorder.close(span)
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    if op.argv is not None and error is None:
        try:
            result = json.loads((out / f"{op.argv[0]}.json").read_text())["results"]
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable report: {exc!r}"
    return seconds, result, written, error


def run_pass(ops, ctx, recorder=None):
    """Run and check one pass; timing covers only the operations themselves.

    Returns the pass summary and the (operation, result) pairs that the
    coverage check of a traced pass needs."""
    res = {"wall": 0.0, "chords": 0, "cli": {}, "bytes": 0, "excluded": 0.0,
           "exclusion_base": 0, "ops": len(ops), "failed_ops": [], "checks": [], "op_s": {}}
    outputs = []
    for op in ops:
        seconds, result, written, error = _run_op(op, ctx, recorder)
        res["wall"] += seconds
        res["op_s"][op.label] = seconds
        res["chords"] += op.chords
        res["bytes"] += written
        if op.span.startswith("cli."):
            sub = op.span[4:]
            res["cli"][sub] = res["cli"].get(sub, 0.0) + seconds
        if error is not None:
            res["failed_ops"].append({"op": op.label, "error": error})
            continue
        try:
            checks = op.checks(result, ctx) if op.checks else []
            if op.excluded:
                excluded, attempted = op.excluded(result)
                res["excluded"] += excluded
                res["exclusion_base"] += attempted
            outputs.append((op, result))
        except Exception:
            res["failed_ops"].append({"op": op.label, "error": traceback.format_exc(limit=4)})
            continue
        res["checks"] += [{"op": op.label, "check": name, "kind": kind, "ok": ok,
                           "detail": detail} for name, kind, ok, detail in checks]
        if not all(ok for _, _, ok, _ in checks):
            res["failed_ops"].append({"op": op.label, "error": "check failed"})
    return res, outputs


def _coverage(recorder, entry, outputs, ctx):
    """Rows the traced pass saw enter the sampler and the causality map must
    equal the rows its generated inputs imply; otherwise a call path escaped."""
    _, first, last = entry
    agg = recorder.aggregate(first, last)
    want = {workloads.SAMPLES: 0, workloads.CHORDS: 0}
    for op, result in outputs:
        for k, v in op.expect(result, ctx).items():
            want[k] += v
    seen = {k: agg.get(k, {}).get("rows", 0) for k in want}
    if seen != want:
        raise SystemExit(f"trace coverage check failed: rows seen {seen}, implied {want}")
    return seen


def _run(args):
    import layers
    import spans

    ctx = Context(args.workload, args.workdir)
    recorder = spans.Recorder() if args.trace else None
    passes, traced, untraced = [], [], []
    coverage = []

    def one(k, trace):
        ops = workloads.operations(args.workload, workloads.pass_seed(args.seed, k),
                                   args.workdir)
        if not trace:
            return run_pass(ops, ctx)[0]
        recorder.begin_pass(k)
        layers.install(recorder)
        try:
            res, outputs = run_pass(ops, ctx, recorder)
        finally:
            recorder.uninstall()
            recorder.end_pass()
        coverage.append(_coverage(recorder, recorder.passes[-1], outputs, ctx))
        return res

    started = time.perf_counter()
    k = 0
    while True:
        trace = bool(args.trace) and k % 2 == 1
        res = one(k, trace)
        (traced if trace else untraced).append(res)
        passes.append(res)
        k += 1
        done = time.perf_counter() - started >= args.seconds
        if done and (not args.trace or traced):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import numpy
    import scipy

    out = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "passes": passes,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if args.trace:
        overhead = (statistics.median(p["wall"] for p in traced)
                    - statistics.median(p["wall"] for p in untraced))
        out["per_layer"] = layers.compute(
            recorder, recorder.passes, [p["cli"] for p in untraced],
            statistics.median(p["bytes"] for p in passes), overhead)
        out["coverage"] = coverage
        out["trace_overhead_s"] = overhead
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        recorder.write(args.spans)
    print(json.dumps(out))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="span file, for --trace 1")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args)
    else:
        _run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
