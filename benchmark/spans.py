"""In-memory span recorder that wraps billiardlab from outside the package.

Each wrapped call records one span: name, start, end, parent span and the
number of rows it was handed.  Spans live in flat arrays (32 bytes each),
so a traced pass of a few hundred thousand calls stays small, and they are
written to disk once, when the run ends.

Functions are wrapped at every module-level binding site, not only where
they are defined: `from .dynamics import causality_batch` in cli, ergodic
and holography makes three extra names for one function, and a call through
an unwrapped name would be invisible.  Function-local imports read the
defining module's attribute at call time, so they pick up the wrapper too.
Methods are wrapped on the class that defines them.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np


def self_times(start, end, parent):
    """Duration of each span minus the union of its children's intervals.

    Children of one parent may overlap (they cannot in a single thread, but
    the arithmetic does not assume it), so the covered time is the length
    of the union of their intervals, clipped to the parent's own interval.
    """
    n = len(start)
    children = [[] for _ in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = [0.0] * n
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children[i]):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[i] = (hi - lo) - covered
    return out


def _rows(args):
    """Rows of the first array argument: batch length, or 1 for one point."""
    for a in args:
        if type(a) is np.ndarray:
            return a.shape[0] if a.ndim > 1 else 1
    return 0


class Recorder:
    """Spans of one traced run, plus named counters fed by hooks."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rows = array("q")
        self.counters = {}
        self.passes = []          # (pass id, first span, one past last span)
        self._stack = []
        self._originals = []

    def name_index(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    # -- spans ----------------------------------------------------------------

    def open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i, rows=0):
        self.end[i] = time.perf_counter()
        self.rows[i] = rows
        self._stack.pop()

    def begin_pass(self, pass_id):
        self.passes.append([pass_id, len(self.start), None])

    def end_pass(self):
        self.passes[-1][2] = len(self.start)

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, fn, name, namer=None, rows=None, hook=None):
        """Wrap fn; `namer(args)` may refine the span name from the arguments,
        `rows(args, result)` overrides the row count, `hook(rec, args, result)`
        feeds counters."""
        rec = self
        nid = self.name_index(name)

        def traced(*args, **kwargs):
            i = rec.open(nid if namer is None else rec.name_index(namer(args)))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.close(i, _rows(args))
                raise
            rec.close(i, _rows(args) if rows is None else rows(args, result))
            if hook is not None:
                hook(rec, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules, classes, special, skip=()):
        """Wrap public functions of `modules` and public methods of `classes`.

        `special` maps a span name to keyword arguments of `_wrapper` (a
        namer, a row rule, a counter hook).  Every module-level name bound
        to a wrapped function, in any billiardlab module, is replaced.
        """
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or id(obj) in wrapped:
                    continue
                name = f"{short}.{attr}"
                if name in skip:
                    continue
                wrapped[id(obj)] = (obj, self._wrapper(obj, name, **special.get(name, {})))
        for mod in _package_modules(modules):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for cls in classes:
            short = cls.__module__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj):
                    continue
                if attr.startswith("_") and attr != "__init__":
                    continue
                label = "init" if attr == "__init__" else attr
                name = f"{short}.{cls.__name__}.{label}"
                self._originals.append((cls, attr, obj))
                setattr(cls, attr, self._wrapper(obj, name, **special.get(name, {})))
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    # -- results --------------------------------------------------------------

    def aggregate(self, first=0, last=None):
        """Per span name: calls, rows, total and self seconds over a span range."""
        last = len(self.start) if last is None else last
        st = self.start[first:last]
        en = self.end[first:last]
        par = [p - first if p >= first else -1 for p in self.parent[first:last]]
        selfs = self_times(st, en, par)
        out = {}
        for k in range(last - first):
            name = self.names[self.name_id[first + k]]
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}
            agg["calls"] += 1
            agg["rows"] += self.rows[first + k]
            agg["total_s"] += en[k] - st[k]
            agg["self_s"] += selfs[k]
        return out

    def under(self, child, parent, first=0, last=None):
        """(calls, rows) of spans named `child` whose direct parent is named `parent`."""
        last = len(self.start) if last is None else last
        c, p = self._ids.get(child), self._ids.get(parent)
        calls = rows = 0
        for k in range(first, last):
            if self.name_id[k] == c and self.parent[k] >= 0 \
                    and self.name_id[self.parent[k]] == p:
                calls += 1
                rows += self.rows[k]
        return calls, rows

    def write(self, path):
        """Write every span once, as arrays: one pass id shared per pass."""
        pass_id = np.full(len(self.start), -1, dtype=np.int32)
        for pid, a, b in self.passes:
            pass_id[a:b] = pid
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), rows=np.asarray(self.rows),
                 pass_id=pass_id)


def _package_modules(modules):
    root = modules[0].__name__.split(".", 1)[0]
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == root or k.startswith(root + "."))]
