"""Causality (scattering) map, reflection laws, billiard map, orbits.

The causality map sends an inward boundary phase point to the exit point of
its geodesic chord; tangent points on a convex outer wall are fixed points
by convention.  Composing with a boundary reflection involution gives the
billiard map B = tau o C.  Every map works on batches of phase points,
arrays of shape (N, d); a single (d,) point is read as a batch of one.

The exit point of one chord is where the reflection acts and where the next
chord starts, so the piece, inward normal and cosine found when classifying
a hit are all that both need: the law takes the exit cosine, and a
`BoundaryState` carries the next entry's piece, normal and cosine back into
`billiard_batch`, which checks only that the point is still within
`hit_tol` of its piece.  A Monte Carlo block hands the sampler's state to
its first chord the same way.  Rows that are tangent, outward, off the
boundary or trapped cost work only in a step whose one test finds some; a
test for some row is `np.count_nonzero`, a third of the cost of `.any()`
on arrays of a lockstep batch's size.  Orbit loops (`orbit_batches`,
Birkhoff and recurrence averages) run on the one lockstep engine
`lockstep_orbits`, the preservation test on one `billiard_batch` step;
`lockstep_orbits` stops an orbit after a trapped or grazing chord, and
`orbit_batches` decides which of its chords to keep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateStart, NotOnBoundary
from .tables import StratumLabel

__all__ = [
    "ChordBatch", "BoundaryState", "Elastic", "Rescaled", "orbit_batches",
    "lockstep_orbits", "causality_batch", "reflect_batch", "billiard_batch",
]

_OUT = int(StratumLabel.TRANSVERSAL_OUT)
_CONVEX = int(StratumLabel.TANGENT_CONVEX)
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
    """Vectorized chord records; invalid rows are flagged, not raised: `grazing`
    (a traced chord exits tangent), `stops` (trapped or grazing: the orbit ends
    here) and `ok` (a clean transversal chord) are set when the batch is made."""

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

    def __post_init__(self):
        # TANGENT_CONVEX and TANGENT_CONCAVE are the two labels from 2 up
        self.grazing = (self.exit_label >= _CONVEX) & ~(self.degenerate | self.trapped)
        self.stops = self.trapped | self.grazing
        self.ok = ~(self.stops | self.degenerate)

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
    """Boundary phase points with the piece, the g-unit inward normal and the
    incidence cosine g(v, normal) at each q."""

    q: np.ndarray
    v: np.ndarray
    piece: np.ndarray
    normal: np.ndarray
    cos: np.ndarray

    def take(self, rows):
        """The rows selected by a boolean mask; itself when it selects every row."""
        if np.count_nonzero(rows) == rows.size:
            return self
        return BoundaryState(self.q[rows], self.v[rows], self.piece[rows], self.normal[rows],
                             self.cos[rows])


# ---------------------------------------------------------------------------
# Reflection laws
# ---------------------------------------------------------------------------


class Elastic:
    """Orthogonal reflection of the velocity in the boundary hyperplane."""

    kind = "elastic"

    def __call__(self, space, q, v, n, cos):
        return space.unit(q, v - 2.0 * cos[:, None] * n)

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
        if not 0.0 < stretch < np.inf:
            raise ValueError(f"stretch must be positive and finite, got {stretch!r}")
        self.stretch = float(stretch)
        self.axis = np.asarray(axis, dtype=float)
        if self.axis.ndim != 1 or not np.isfinite(self.axis).all() or not self.axis.any():
            raise ValueError(f"axis must be a finite nonzero vector, got {axis!r}")

    def __call__(self, space, q, v, n, cos):
        if self.axis.size != space.chart_dim:
            raise ValueError(f"Rescaled axis has length {self.axis.size}, but the table's "
                             f"chart_dim is {space.chart_dim}")
        # cos = g(v, n) goes unused: the law reflects the rescaled y, not v
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


def reflect_batch(law, table, q, v, piece=None, normal=None, cos=None):
    """Map outgoing boundary velocities to incoming ones by `law`, a map
    (space, q, v, inward normal n, cosine g(v, n)) -> v; a new law is one new
    class.

    `piece`, `normal` and `cos` carry what the hit at q found; unset, they
    are derived from q.
    """
    if not callable(law):
        raise TypeError(f"unknown reflection law {law!r}")
    q, v = np.atleast_2d(q, v)
    if normal is None:
        normal = table.inward_normal_at(q, table.active_piece(q) if piece is None else piece)
    if cos is None:
        cos = table.space.metric_dot(q, v, normal)
    return law(table.space, q, v, normal, cos)


# ---------------------------------------------------------------------------
# Causality and billiard maps
# ---------------------------------------------------------------------------


def causality_batch(table, q, v, piece=None, normal=None, cos=None):
    """Vectorized causality map on inward boundary phase points.

    `piece`, `normal` and `cos` carry the boundary state of q found by the
    hit that ended the previous chord; a carried point must still lie within
    hit_tol of its piece.  Unset, they are derived from q.  Entry labels are
    recomputed either way.
    """
    q, v = np.atleast_2d(q, v)
    carried = piece is not None
    piece, normal, entry_cos = table._boundary_geometry(q, v, piece, normal, cos)
    entry_label = table._strata(q, v, piece, entry_cos)
    # every label is TRANSVERSAL_IN (0) unless some row is off, outward or tangent
    rare = np.count_nonzero(entry_label)
    if rare and (entry_label < 0).any():
        raise NotOnBoundary("point is not on the table boundary")
    if carried:
        gauge = table._per_piece("gauge", piece, q, np.empty(q.shape[0]))
        if np.count_nonzero(np.abs(gauge) > table.tol.hit_tol):
            raise NotOnBoundary("carried phase point is off its boundary piece")
    if rare and (entry_label == _OUT).any():
        raise DegenerateStart("causality map applied to an outward phase point")
    hit = table.first_hit(q, v)
    if rare:
        degenerate = entry_label == _CONVEX
        trapped = hit.trapped & ~degenerate
        stay = degenerate | hit.trapped  # these rows exit where they enter
    else:
        degenerate = np.zeros(q.shape[0], dtype=bool)
        trapped = stay = hit.trapped
    exits = (hit.q, hit.v, hit.s, hit.label, hit.cos_in, hit.piece, hit.normal)
    if np.count_nonzero(stay):
        entries = (q, v, 0.0, entry_label, entry_cos, piece, normal)
        exits = [np.where(stay[:, None] if f.ndim == 2 else stay, e, f)
                 for e, f in zip(entries, exits)]
    exit_q, exit_v, length, exit_label, exit_cos, exit_piece, exit_normal = exits
    return ChordBatch(entry_q=q, entry_v=v, exit_q=exit_q, exit_v=exit_v,
                      length=length, entry_label=entry_label, exit_label=exit_label,
                      entry_cos=entry_cos, exit_cos=exit_cos,
                      entry_piece=piece, exit_piece=exit_piece,
                      entry_normal=normal, exit_normal=exit_normal,
                      degenerate=degenerate, trapped=trapped)


def billiard_batch(table, law, q, v, piece=None, normal=None, cos=None):
    """One billiard step: chords plus the next entry points.

    Returns (batch, state): clean rows of `state` are reflected exits, the
    others are the exits as they are.  `state` shares its q, piece and
    normal arrays with `batch`; its cosines are those of the next entries.
    """
    batch = causality_batch(table, q, v, piece, normal, cos)
    next_v = reflect_batch(law, table, batch.exit_q, batch.exit_v, batch.exit_piece,
                           batch.exit_normal, batch.exit_cos)
    ok = batch.ok
    if np.count_nonzero(ok) < ok.size:
        next_v = np.where(ok[:, None], next_v, batch.exit_v)
    next_cos = table.space.metric_dot(batch.exit_q, next_v, batch.exit_normal)
    return batch, BoundaryState(batch.exit_q, next_v, batch.exit_piece, batch.exit_normal,
                                next_cos)


def lockstep_orbits(table, law, q, v, bounces):
    """Iterate the billiard map on a batch of orbits in lockstep.

    Yields (step, rows, batch, state) for step = 1, ..., bounces: `rows`
    indexes the orbits stepped, `batch` holds their chords and `state` their
    next entry points.  The first step derives piece, normal and cosine from
    q; later steps carry them.  An orbit stops after a trapped or grazing
    chord, and the run ends once every orbit has stopped.  Every orbit loop
    of the package runs here, so this is where a bounce count below 1 is
    rejected.
    """
    if bounces < 1:
        raise ValueError("bounces must be at least 1")
    q, v = np.atleast_2d(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
    rows = np.arange(q.shape[0])
    piece = normal = cos = None
    for step in range(1, bounces + 1):
        if rows.size == 0:
            return
        batch, state = billiard_batch(table, law, q, v, piece, normal, cos)
        yield step, rows, batch, state
        stops = batch.stops
        if np.count_nonzero(stops):
            go = ~stops
            rows, state = rows[go], state.take(go)
        q, v, piece, normal, cos = state.q, state.v, state.piece, state.normal, state.cos


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
