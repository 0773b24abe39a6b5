"""Scattering datasets, conjugacy residuals, chord-cloud reconstruction.

Numerical versions of the holography statements: a boundary map that
intertwines two scattering maps has vanishing residual (isometries of a
table realize this exactly up to roundoff); the chord cloud of a dataset
reconstructs the flow-foliated domain.

The cloud is written byte for byte as `np.savetxt` would, from digit tables
(`_format_e18`); coverage is an exact KD-tree search, corrected per space.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .dynamics import _WRITE_ROWS, _write_jsonl, causality_batch
from .errors import ConfigError
from .measure import boundary_rng, sample_blocks
from .spaces import FlatTorus, HyperbolicBall, Sphere

__all__ = [
    "ScatteringDataset", "generate_scattering_dataset", "conjugacy_residual",
    "reconstruct_chords", "rotation_map", "reflection_map",
    "torus_translation_map", "identity_map", "domain_reference_sample",
]

# chords per block of the cloud: large enough to amortize the Python calls,
# small enough to bound temporaries
_CLOUD_CHORDS = 256
_RECORD = ("entry_q", "entry_v", "exit_q", "exit_v", "f_entry", "f_exit")


@functools.cache
def _tables():
    """`_format_e18`'s lookup tables, built on first use: rows (hi, lo, b1, b2) of 10^k,
    k = -240..279, hi + lo its double-double value and b1 + b2 = hi Veltkamp's split;
    "00".."99" as uint16, "0000".."9999" as uint32, and at e + 256 (e = -256..255) the
    exponent's sign, hundreds (or 0), tens and units as one uint32."""
    from fractions import Fraction
    exact = [Fraction(10) ** k for k in range(-240, 280)]
    hi = np.array([float(f) for f in exact])
    lo = [float(f - Fraction(h)) for f, h in zip(exact, hi)]
    b1 = hi * 134217729.0
    b1 -= b1 - hi
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    e = np.arange(-256, 256)
    exps = np.column_stack([np.where(e < 0, ord("-"), ord("+")), digits[abs(e), 1:]])
    exps[:, 1] *= abs(e) >= 100
    return (np.column_stack([hi, lo, b1, hi - b1]), digits[:100, 2:].copy().view(np.uint16),
            digits.view(np.uint32), exps.astype(np.uint8).view(np.uint32))


def _scaled(ax, e):
    """round(ax * 10^(18 - e)) as uint64, and whether that product's fraction lies
    within 1e-6 of 1/2 (a tie or too near one to certify; error is about 1e-12)."""
    hi, lo, b1, b2 = _tables()[0].take(258 - e, axis=0).T
    p = ax * hi
    s = ax * 134217729.0  # Veltkamp's split at 2^27 + 1
    a1 = s - (s - ax)
    a2 = ax - a1
    c = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + ax * lo  # Dekker: ax * hi - p exactly
    frac = c - np.floor(c)
    n = np.minimum(p, 1.8e19).astype(np.uint64) + (c - frac).astype(np.int64).view(np.uint64)
    return n + (frac > 0.5), np.abs(frac - 0.5) < 1e-6


def _format_e18(block):
    """A nonempty 2-D float block as `'%.18e'` rows, each led by a newline, as bytes.
    Each value's 28-byte field gets n = round(|x| 10^(18 - e)), e = floor(log10|x|), from
    digit tables, and its unused bytes, 0, are dropped.  Python's `%` formats what that
    cannot certify (non-finite values, |x| outside (1e-250, 1e250), near-ties)."""
    x = np.asarray(block, dtype=float).ravel()
    ax = np.abs(x)
    fast = (ax > 1e-250) & (ax < 1e250)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    n, tie = _scaled(ax, e)
    # retry at e -/+ 1 where log10 missed e or n hit 10^18 or 10^19 (a 10^19 retry falls to `%`)
    off = (n >= 10**19).astype(np.int64) - (n <= 10**18)
    redo = np.flatnonzero(off)
    e[redo] += off[redo]
    n[redo], tie[redo] = _scaled(ax[redo], e[redo])
    _, pairs, quads, exps = _tables()
    # bytes: separator, sign, d0, '.', 16 digits, 2 digits, 0, 'e', exponent sign and digits
    row = np.zeros((block.shape[1], 28), np.uint8)
    row[:, 0], row[:, 3], row[:, 23] = ord(","), ord("."), ord("e")
    row[0, 0] = ord("\n")
    field = np.tile(row.ravel(), block.shape[0]).reshape(-1, 28)
    field[:, 1] = (x < 0) * np.uint8(ord("-"))
    top = n // np.uint64(100)
    field.view(np.uint16)[:, 10] = pairs.take(n - top * np.uint64(100))
    words = field.view(np.uint32)
    for slot in range(4, 0, -1):
        n = top // np.uint64(10**4)
        words[:, slot] = quads.take(top - n * np.uint64(10**4))
        top = n
    field[:, 2] = n + ord("0")  # n is now the leading digit
    words[:, 6] = exps.take(e + 256)
    slow = np.flatnonzero(~fast | tie | (n < 1) | (n > 9))
    text = b"".join((b"%.18e" % v).ljust(27, b"\0") for v in x[slow].tolist())
    field[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, 27)
    return bytearray(field).translate(None, b"\0")


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class ScatteringDataset:
    """Boundary-confined scattering records: entry, exit, F at both ends."""

    entry_q: np.ndarray
    entry_v: np.ndarray
    exit_q: np.ndarray
    exit_v: np.ndarray
    f_entry: np.ndarray
    f_exit: np.ndarray
    table_id: str
    grid: tuple | None = None
    skipped: int = 0

    def __len__(self):
        return self.entry_q.shape[0]

    def to_jsonl(self, path):
        """A JSON header line, then one JSON line per record of its `_RECORD` fields."""
        with open(path, "w") as fh:
            header = {"table_id": self.table_id, "grid": self.grid, "skipped": self.skipped}
            fh.write(json.dumps({"header": header}) + "\n")
            _write_jsonl(fh, self, _RECORD)

    @staticmethod
    def from_jsonl(path):
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        header = next((obj["header"] for obj in lines if "header" in obj), {})
        rows = [obj for obj in lines if "header" not in obj]
        return ScatteringDataset(
            **{key: np.array([r[key] for r in rows]) for key in _RECORD},
            table_id=header.get("table_id", "unknown"),
            grid=tuple(header["grid"]) if header.get("grid") else None,
            skipped=header.get("skipped", 0),
        )


def _boundary_grid(table, nb, nt):
    """Inward boundary phase points q, v of shape (pieces, nt, nb, chart_dim) at the cell
    centres of nt signed angles to the inward normal times nb boundary parameters."""
    space = table.space
    qs, vs = [], []
    alphas = (np.arange(nb) + 0.5) / nb * 2.0 * np.pi
    thetas = (np.arange(nt) + 0.5) / nt * np.pi - np.pi / 2.0
    for piece in table.pieces:
        q1 = piece.point_at_param(space, alphas)
        n1 = piece.inward_normal(space, q1)
        t1 = space.tangent_frame(q1, n1)[:, 0]
        qs.append([q1] * nt)
        vs.append([np.cos(th) * n1 + np.sin(th) * t1 for th in thetas])
    return np.array(qs), np.array(vs)


def generate_scattering_dataset(table, f=None, grid=(64, 64)):
    """Chord records over a boundary grid; grazing and trapped cells are skipped.

    Without a Lyapunov evaluator (torus tables admit none), per-record F
    values are normalized to zero at the entry, using that a well-balanced F
    grows by the chord length; the gauge freedom is one constant per chord.
    """
    nb, nt = grid
    q, v = (x.reshape(-1, table.space.chart_dim) for x in _boundary_grid(table, nb, nt))
    batch = causality_batch(table, q, v)
    ok = batch.ok
    if f is None:
        f_entry = np.zeros(int(np.sum(ok)))
        f_exit = batch.length[ok]
    else:
        f_entry = f.value_batch(batch.entry_q[ok], batch.entry_v[ok])
        f_exit = f.value_batch(batch.exit_q[ok], batch.exit_v[ok])
    return ScatteringDataset(
        entry_q=batch.entry_q[ok], entry_v=batch.entry_v[ok],
        exit_q=batch.exit_q[ok], exit_v=batch.exit_v[ok],
        f_entry=f_entry, f_exit=f_exit,
        table_id=table.name, grid=(nb, nt), skipped=int(np.sum(~ok)),
    )


# ---------------------------------------------------------------------------
# Conjugacy residual
# ---------------------------------------------------------------------------


def identity_map():
    return lambda q, v: (q, v)


def rotation_map(angle):
    """Planar rotation acting on positions and velocities (n = 2 charts)."""
    r = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])

    def apply(q, v):
        return q @ r.T, v @ r.T

    return apply


def reflection_map():
    """Reflection across the x-axis, composed with direction reflection."""

    def apply(q, v):
        q2, v2 = q.copy(), v.copy()
        q2[..., 1] *= -1.0
        v2[..., 1] *= -1.0
        return q2, v2

    return apply


def torus_translation_map(offset, periods):
    offset = np.asarray(offset, dtype=float)
    periods = np.asarray(periods, dtype=float)

    def apply(q, v):
        return np.mod(q + offset, periods), v

    return apply


def boundary_param_map(table_from, table_to):
    """Identify the boundaries piecewise by their angle parameter.

    Positions map to the target wall point with the same boundary
    parameter; directions are kept (renormalized in the target space).
    This is the canonical chart identification between star-shaped planar
    tables; it is a true conjugacy only when the tables are isometric.
    """
    shape = [(len(t.pieces), t.space.dim, t.space.chart_dim) for t in (table_from, table_to)]
    if shape[0] != shape[1]:
        raise ConfigError("tables must have matching piece counts, dimensions and charts")

    def apply(q, v):
        q = np.atleast_2d(q)
        v = np.atleast_2d(v)
        n = q.shape[0]
        piece_idx = table_from.active_piece(q)
        alpha = table_from._per_piece("boundary_param", piece_idx, q, np.full(n, np.nan))
        out_q = table_to._per_piece("point_at_param", piece_idx, alpha,
                                    np.full((n, table_to.space.chart_dim), np.nan))
        return out_q, table_to.space.unit(out_q, v)

    return apply


@dataclass(frozen=True)
class ConjugacyResult:
    max_residual: float
    mean_residual: float
    used: int
    skipped: int


def _conjugacy_block(table1, samples, table2, phi):
    """Residuals of the usable rows of one block."""
    b1 = causality_batch(table1, samples.q, samples.v, samples.piece, samples.normal,
                         samples.cos_in)
    phi_q, phi_v = phi(samples.q, samples.v)
    # rows off the second table's boundary have a NaN cosine and are never usable
    piece2, n2, cos2 = table2._boundary_geometry(phi_q, phi_v)
    usable = b1.ok & (cos2 > table2.tol.grazing_tol)
    if not np.any(usable):
        return np.empty(0)
    b2 = causality_batch(table2, phi_q[usable], phi_v[usable], piece2[usable], n2[usable],
                         cos2[usable])
    img_q, img_v = phi(b1.exit_q[usable], b1.exit_v[usable])
    sub = b2.ok
    dq = table2.space.chart_distance(img_q[sub], b2.exit_q[sub])
    dv = np.linalg.norm(img_v[sub] - b2.exit_v[sub], axis=-1)
    return dq + dv


def conjugacy_residual(table1, table2, phi, count, seed, workers=None):
    """Chart-distance residual of phi C1 versus C2 phi over measure samples.

    Rows whose phi-image is not an inward boundary phase point of the
    second table (possible for non-isometric identifications) are skipped
    and counted, as are trapped or grazing chords on either side.
    """
    res = np.concatenate(sample_blocks(_conjugacy_block, table1, count, seed, table2, phi,
                                       workers=workers))
    return ConjugacyResult(max_residual=float(np.max(res)) if res.size else float("nan"),
                           mean_residual=float(np.mean(res)) if res.size else float("nan"),
                           used=int(res.size), skipped=int(count - res.size))


# ---------------------------------------------------------------------------
# Chord-cloud reconstruction
# ---------------------------------------------------------------------------


@dataclass
class Reconstruction:
    points: np.ndarray
    hausdorff: float | None
    segment_lengths: np.ndarray
    skipped_ambiguous: int

    def to_csv(self, path):
        """The cloud as `np.savetxt(path, points, delimiter=",", header=...)` writes it,
        byte for byte, formatted in numpy by `_format_e18`."""
        ncol = self.points.shape[1]
        with open(path, "wb") as fh:
            fh.write(("# " + ",".join(f"x{i}" for i in range(ncol))).encode())
            for lo in range(0, self.points.shape[0], _WRITE_ROWS):
                fh.write(_format_e18(self.points[lo:lo + _WRITE_ROWS]))
            fh.write(b"\n")


def _nearest_distances(space, reference, cloud):
    """Geodesic distance from each reference point to the nearest cloud point."""
    from scipy.spatial import cKDTree  # costs most of the package's import time

    def nearest(points):
        # an unbalanced tree builds in half the time and finds the same nearest points
        tree = cKDTree(points, leafsize=64, balanced_tree=False, compact_nodes=False)
        return (tree, *tree.query(reference, k=1))

    tree, d, near = nearest(cloud)
    if isinstance(space, FlatTorus):
        # images nearer than the nearest unshifted point lie that near the reference's box
        reach = np.max(d) * (1.0 + 1e-9)
        lo, hi = reference.min(axis=0) - reach, reference.max(axis=0) + reach
        offsets = np.array(list(np.ndindex(*([3] * space.dim)))) - 1
        images = (cloud + o * space.periods for o in offsets)
        tiled = np.concatenate([x[np.all((x >= lo) & (x <= hi), axis=1)] for x in images])
        return nearest(tiled)[1]
    if isinstance(space, Sphere):
        return 2.0 * np.arcsin(np.clip(d / 2.0, 0.0, 1.0))
    if isinstance(space, HyperbolicBall):
        # with D the distance to the Euclidean-nearest point, d(p, q) <= D implies
        # |p - q|^2 <= sinh^2(D/2) (1 - |p|^2)(1 - |q|^2) <= sinh^2(D/2) (1 - |p|^2):
        # the minimum over that ball, widened for roundoff, is the minimum over the cloud
        bound = space.distance(reference, cloud[near])
        r2 = np.sinh(bound / 2.0) ** 2 * (1.0 + 1e-9) + 1e-15
        balls = tree.query_ball_point(reference, np.sqrt(r2 * (1.0 - np.sum(reference ** 2, 1))))
        sizes = np.array([len(b) for b in balls])
        cand = np.concatenate([np.asarray(b, dtype=np.intp) for b in balls])
        dist = space.distance(np.repeat(reference, sizes, axis=0), cloud[cand])
        return np.minimum.reduceat(dist, np.cumsum(sizes) - sizes)
    return d


def reconstruct_chords(data, space, h=0.01, reference_points=None):
    """Chord point cloud from entry/exit pairs in the bare model space.

    Each chord is the geodesic segment between its endpoints, sampled at
    k = max(ceil(length / h) + 1, 2) points; on a flat torus, where endpoints
    do not determine the geodesic, it is retraced from the entry direction
    over the F-length.  Antipodal sphere endpoints are ambiguous and skipped.
    With a reference sample of the domain, the one-sided Hausdorff distance
    from the reference to the cloud is reported.
    """
    torus = isinstance(space, FlatTorus)
    lengths = data.f_exit - data.f_entry if torus else space.distance(data.entry_q, data.exit_q)
    rows = np.flatnonzero(~(lengths > space.diameter - 1e-8))
    lengths = lengths[rows]
    counts = np.maximum(np.ceil(lengths / h).astype(np.int64) + 1, 2)
    # np.linspace(0, span, k): point j is j * (span / (k - 1)), the last is span
    span = lengths if torus else np.ones(rows.size)
    ends = np.cumsum(counts)
    points = np.empty((int(ends[-1]) if rows.size else 0, space.chart_dim))
    for lo in range(0, rows.size, _CLOUD_CHORDS):
        block = slice(lo, lo + _CLOUD_CHORDS)
        k, end, chord = counts[block], ends[block], rows[block]
        base = end[0] - k[0]
        j = np.arange(end[-1] - base) - np.repeat(end - k - base, k)  # index within its chord
        t = j * np.repeat(span[block] / (k - 1), k)
        t[end - 1 - base] = span[block]
        qa = np.repeat(data.entry_q[chord], k, axis=0)
        if torus:
            pts = space.flow(qa, np.repeat(data.entry_v[chord], k, axis=0), t)[0]
        else:
            pts = space.geodesic_between(qa, np.repeat(data.exit_q[chord], k, axis=0), t)
        points[base:end[-1]] = pts
    hausdorff = None
    if reference_points is not None and points.shape[0]:
        hausdorff = float(np.max(_nearest_distances(space, reference_points, points)))
    return Reconstruction(points=points, hausdorff=hausdorff, segment_lengths=lengths,
                          skipped_ambiguous=len(data) - rows.size)


def domain_reference_sample(table, count, seed):
    """Interior rejection sample of the domain, for coverage metrics."""
    return table._interior_samples(boundary_rng(seed, 7), count)
