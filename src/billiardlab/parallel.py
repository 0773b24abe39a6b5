"""Deterministic fork-join Monte Carlo over fixed sample blocks.

The total sample budget is cut into fixed-size blocks; block b always uses
the generator stream (seed, b).  Workers only decide who computes which
block, and partial results are reduced in block order, so reports are
identical for any worker count.
"""

from __future__ import annotations

import multiprocessing as mp

__all__ = ["block_counts", "run_blocks", "BLOCK_SIZE"]

BLOCK_SIZE = 65_536


def block_counts(total):
    """Split a sample budget into blocks of BLOCK_SIZE (the last one may be short)."""
    total = int(total)
    return [min(BLOCK_SIZE, total - start) for start in range(0, total, BLOCK_SIZE)]


_FORKED = None  # (worker, tasks) of the last pool; closures in tasks need no pickling


def _run_forked(i):
    worker, tasks = _FORKED
    return worker(tasks[i])


def run_blocks(worker, tasks, workers=1):
    """Map `worker` over task tuples in order on `workers` processes (None is 1);
    forked workers inherit the tasks."""
    global _FORKED
    workers = min(workers or 1, len(tasks))
    if workers <= 1:
        return [worker(t) for t in tasks]
    _FORKED = (worker, tasks)
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        return pool.map(_run_forked, range(len(tasks)))
