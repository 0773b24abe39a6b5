"""Causality (scattering) map, reflection laws, billiard map, orbits.

The causality map sends an inward boundary phase point to the exit point of
its geodesic chord; tangent points on a convex outer wall are fixed points
by convention.  Composing with a boundary reflection involution gives the
billiard map B = tau o C.  Every map works on batches of phase points,
arrays of shape (N, d); a single (d,) point is read as a batch of one.

The exit point of one chord is where the reflection acts and where the next
chord starts, so the piece and inward normal found when classifying a hit
are all that both need.  A `BoundaryState` carries them: `billiard_batch`
returns one and takes its piece and normal back on the next step, checking
only that the point is still within `hit_tol` of its piece; a Monte Carlo
block hands the sampler's pieces and normals to its first chord the same
way.  Orbit loops (`orbit_batches`, Birkhoff and recurrence averages) run on
the one lockstep engine `lockstep_orbits`, the preservation test on one
`billiard_batch` step; `lockstep_orbits` stops an orbit after a trapped or
grazing chord, and `orbit_batches` decides which of its chords to keep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateStart, NotOnBoundary
from .tables import StratumLabel

__all__ = [
    "ChordBatch", "BoundaryState", "Elastic", "Rescaled", "orbit_batches",
    "lockstep_orbits", "causality_batch", "reflect_batch", "billiard_batch",
]

_OUT = int(StratumLabel.TRANSVERSAL_OUT)
_CONVEX = int(StratumLabel.TANGENT_CONVEX)
_CONCAVE = int(StratumLabel.TANGENT_CONCAVE)
# rows per formatted block in the writers: large enough to amortize the Python
# calls, small enough to bound temporaries
_WRITE_ROWS = 8192


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def _write_jsonl(fh, record, keys):
    """Per row of `record`, the line `json.dumps` writes for the dict of its fields
    `keys`: a 2-D float field as a list of `%r`s, a 1-D one as one `%r`, a bool as
    true or false.  Non-finite floats, which JSON cannot spell, raise ValueError."""
    flag = np.array(["false", "true"], dtype=object)
    columns, slots = [], []
    for key in keys:
        x = getattr(record, key)
        if x.dtype == bool:
            columns.append(flag[x.astype(int)])
            slots.append("%s")
            continue
        if not np.isfinite(x).all():
            raise ValueError(f"JSON lines need finite numbers; {key} has others")
        columns.append(x)
        slots.append("[" + ", ".join(["%r"] * x.shape[1]) + "]" if x.ndim == 2 else "%r")
    row_fmt = "{" + ", ".join(f'"{key}": {slot}' for key, slot in zip(keys, slots)) + "}\n"
    values = np.column_stack(columns)
    for lo in range(0, values.shape[0], _WRITE_ROWS):
        block = values[lo:lo + _WRITE_ROWS]
        fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


@dataclass
class ChordBatch:
    """Vectorized chord records; invalid rows are flagged, not raised."""

    entry_q: np.ndarray
    entry_v: np.ndarray
    exit_q: np.ndarray
    exit_v: np.ndarray
    length: np.ndarray
    entry_label: np.ndarray
    exit_label: np.ndarray
    entry_cos: np.ndarray
    exit_cos: np.ndarray
    entry_piece: np.ndarray
    exit_piece: np.ndarray
    entry_normal: np.ndarray
    exit_normal: np.ndarray
    degenerate: np.ndarray
    trapped: np.ndarray

    @cached_property
    def grazing(self):
        tangent = (self.exit_label == _CONVEX) | (self.exit_label == _CONCAVE)
        return tangent & ~self.degenerate & ~self.trapped

    @cached_property
    def ok(self):
        """Rows with a clean transversal chord."""
        return ~(self.stops | self.degenerate)

    @cached_property
    def stops(self):
        """Rows whose orbit ends with this chord: trapped or grazing."""
        return self.trapped | self.grazing

    def __len__(self):
        return self.length.shape[0]

    def to_jsonl(self, path):
        """One JSON line per chord: its ends, its length and its degenerate and
        grazing flags."""
        with open(path, "w") as fh:
            _write_jsonl(fh, self, ("entry_q", "entry_v", "exit_q", "exit_v", "length",
                                    "degenerate", "grazing"))


@dataclass
class BoundaryState:
    """Boundary phase points with the piece and g-unit inward normal at each q."""

    q: np.ndarray
    v: np.ndarray
    piece: np.ndarray
    normal: np.ndarray

    def take(self, rows):
        """The rows selected by a boolean mask; itself when it selects every row."""
        if rows.all():
            return self
        return BoundaryState(self.q[rows], self.v[rows], self.piece[rows], self.normal[rows])


# ---------------------------------------------------------------------------
# Reflection laws
# ---------------------------------------------------------------------------


class Elastic:
    """Orthogonal reflection of the velocity in the boundary hyperplane."""

    kind = "elastic"

    def __call__(self, space, q, v, n):
        out = v - 2.0 * space.metric_dot(q, v, n)[:, None] * n
        return space.unit(q, out)

    def __repr__(self):
        return "Elastic()"


class Rescaled:
    """Reflection through the unit sphere of a stretched boundary metric.

    The boundary metric adds a scalar stretch along a fixed chart axis:
    gt(u, w) = g(u, w) + c g(u, a) g(w, a), c = stretch^2 - 1, with a the
    g-unit tangent part of the axis (0 where it has none).  The induced map
    projects radially to the gt-sphere (y), reflects gt-elastically in the
    boundary hyperplane along its gt-normal nu, and projects back; it is an
    involution for every stretch and reduces to the elastic law when
    stretch = 1.
    """

    kind = "rescaled"

    def __init__(self, stretch=1.0, axis=(1.0, 0.0)):
        if stretch <= 0:
            raise ValueError("stretch must be positive")
        self.stretch = float(stretch)
        self.axis = np.asarray(axis, dtype=float)

    def __call__(self, space, q, v, n):
        c = self.stretch ** 2 - 1.0
        t = space.tangent(q, np.broadcast_to(self.axis, q.shape))
        size = space.norm(q, t)[:, None]
        a = np.where(size > 1e-12, t, 0.0) / np.maximum(size, 1e-12)
        y = v / np.sqrt(1.0 + c * space.metric_dot(q, a, v) ** 2)[:, None]
        nu = n - (c / (1.0 + c) * space.metric_dot(q, a, n))[:, None] * a
        beta = space.metric_dot(q, y, n) / space.metric_dot(q, nu, n)
        return space.unit(q, y - 2.0 * beta[:, None] * nu)

    def __repr__(self):
        return f"Rescaled(stretch={self.stretch}, axis={self.axis.tolist()})"


def reflect_batch(law, table, q, v, piece=None, normal=None):
    """Map outgoing boundary velocities to incoming ones by `law`, a map
    (space, q, v, inward normal) -> v; a new law is one new class.

    `piece` and `normal` carry what the hit at q found; unset, they are
    derived from q.
    """
    if not callable(law):
        raise TypeError(f"unknown reflection law {law!r}")
    q = np.atleast_2d(q)
    v = np.atleast_2d(v)
    n = normal if normal is not None else table.inward_normal_at(
        q, table.active_piece(q) if piece is None else piece)
    return law(table.space, q, v, n)


# ---------------------------------------------------------------------------
# Causality and billiard maps
# ---------------------------------------------------------------------------


def causality_batch(table, q, v, piece=None, normal=None):
    """Vectorized causality map on inward boundary phase points.

    `piece` and `normal` carry the boundary state of q found by the hit that
    ended the previous chord; a carried point must still lie within hit_tol
    of its piece.  Unset, both are derived from q.  Entry labels and cosines
    are recomputed either way.
    """
    q = np.atleast_2d(q)
    v = np.atleast_2d(v)
    n = q.shape[0]
    carried = piece is not None
    piece, normal, entry_cos = table._boundary_geometry(q, v, piece, normal)
    entry_label = table._strata(q, v, piece, entry_cos)
    if (entry_label < 0).any():
        raise NotOnBoundary("point is not on the table boundary")
    if carried and (np.abs(table._own_gauge(q, piece)) > table.tol.hit_tol).any():
        raise NotOnBoundary("carried phase point is off its boundary piece")
    if (entry_label == _OUT).any():
        raise DegenerateStart("causality map applied to an outward phase point")
    degenerate = entry_label == _CONVEX
    trapped = np.zeros(n, dtype=bool)
    # untraced (degenerate) and trapped rows exit where they enter
    exits = (q, v, np.zeros(n), entry_label, entry_cos, piece, normal)
    traced = np.flatnonzero(~degenerate)
    if traced.size:
        every = traced.size == n
        hit = table.first_hit(q, v) if every else table.first_hit(q[traced], v[traced])
        trapped[traced] = hit.trapped
        found = (hit.q, hit.v, hit.s, hit.label, hit.cos_in, hit.piece, hit.normal)
        if every and not trapped.any():
            exits = found
        else:
            good, sel = traced[~hit.trapped], ~hit.trapped
            exits = tuple(e.copy() for e in exits)
            for e, f in zip(exits, found):
                e[good] = f[sel]
    exit_q, exit_v, length, exit_label, exit_cos, exit_piece, exit_normal = exits
    return ChordBatch(entry_q=q, entry_v=v, exit_q=exit_q, exit_v=exit_v,
                      length=length, entry_label=entry_label, exit_label=exit_label,
                      entry_cos=entry_cos, exit_cos=exit_cos,
                      entry_piece=piece, exit_piece=exit_piece,
                      entry_normal=normal, exit_normal=exit_normal,
                      degenerate=degenerate, trapped=trapped)


def billiard_batch(table, law, q, v, piece=None, normal=None):
    """One billiard step: chords plus the next entry points.

    Returns (batch, state): clean rows of `state` are reflected exits, the
    others are the exits as they are.  `state` shares its q, piece and
    normal arrays with `batch`.
    """
    batch = causality_batch(table, q, v, piece, normal)
    ok = batch.ok
    if ok.all():
        next_v = reflect_batch(law, table, batch.exit_q, batch.exit_v,
                               piece=batch.exit_piece, normal=batch.exit_normal)
    else:
        next_v = batch.exit_v.copy()
        if ok.any():
            next_v[ok] = reflect_batch(law, table, batch.exit_q[ok], batch.exit_v[ok],
                                       piece=batch.exit_piece[ok], normal=batch.exit_normal[ok])
    return batch, BoundaryState(batch.exit_q, next_v, batch.exit_piece, batch.exit_normal)


def lockstep_orbits(table, law, q, v, bounces):
    """Iterate the billiard map on a batch of orbits in lockstep.

    Yields (step, rows, batch, state) for step = 1, ..., bounces: `rows`
    indexes the orbits stepped, `batch` holds their chords and `state` their
    next entry points.  The first step derives piece and normal from q;
    later steps carry them.  An orbit stops after a trapped or grazing
    chord, and the run ends once every orbit has stopped.  Every orbit loop
    of the package runs here, so this is where a bounce count below 1 is
    rejected.
    """
    if bounces < 1:
        raise ValueError("bounces must be at least 1")
    q = np.atleast_2d(np.asarray(q, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    rows = np.arange(q.shape[0])
    piece = normal = None
    for step in range(1, bounces + 1):
        if rows.size == 0:
            return
        batch, state = billiard_batch(table, law, q, v, piece, normal)
        yield step, rows, batch, state
        go = ~batch.stops
        rows, state = rows[go], state.take(go)
        q, v, piece, normal = state.q, state.v, state.piece, state.normal


def orbit_batches(table, law, q, v, k_max):
    """Iterate the billiard map from a batch of starts, in lockstep.

    Returns (kinds, batches): per start, how its orbit ended ("completed",
    "trapped" or "grazing") and a ChordBatch of its chords in order.  A
    trapped chord ends the orbit unrecorded, a grazing one recorded.
    """
    n = np.atleast_2d(q).shape[0]
    kinds = ["completed"] * n
    names = [f.name for f in fields(ChordBatch)]
    orbit, columns = [np.zeros(0, dtype=int)], []
    for _, rows, batch, _ in lockstep_orbits(table, law, q, v, k_max):
        stop = batch.stops
        for i, trapped in zip(rows[stop].tolist(), batch.trapped[stop].tolist()):
            kinds[i] = "trapped" if trapped else "grazing"
        kept = ~batch.trapped
        orbit.append(rows[kept])
        columns.append([getattr(batch, name)[kept] for name in names])
    orbit = np.concatenate(orbit)
    order = np.argsort(orbit, kind="stable")
    cut = np.cumsum(np.bincount(orbit, minlength=n))[:-1]
    split = [np.split(np.concatenate(c)[order], cut) for c in zip(*columns)]
    return kinds, [ChordBatch(*parts) for parts in zip(*split)]
