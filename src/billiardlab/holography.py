"""Scattering datasets, conjugacy residuals, chord-cloud reconstruction.

Numerical versions of the holography statements: a boundary map that
intertwines two scattering maps has vanishing residual (isometries of a
table realize this exactly up to roundoff); the chord cloud of a dataset
reconstructs the flow-foliated domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import causality_batch
from .errors import AmbiguousGeodesic, ConfigError
from .measure import boundary_rng, sample_blocks
from .spaces import FlatTorus, HyperbolicBall, Sphere

__all__ = [
    "ScatteringDataset", "generate_scattering_dataset", "conjugacy_residual",
    "reconstruct_chords", "rotation_map", "reflection_map",
    "torus_translation_map", "identity_map", "domain_reference_sample",
]


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
        with open(path, "w") as fh:
            header = {"table_id": self.table_id, "grid": self.grid, "skipped": self.skipped}
            fh.write(json.dumps({"header": header}) + "\n")
            for i in range(len(self)):
                fh.write(json.dumps({
                    "entry_q": self.entry_q[i].tolist(), "entry_v": self.entry_v[i].tolist(),
                    "exit_q": self.exit_q[i].tolist(), "exit_v": self.exit_v[i].tolist(),
                    "f_entry": float(self.f_entry[i]), "f_exit": float(self.f_exit[i]),
                }) + "\n")

    @staticmethod
    def from_jsonl(path):
        rows = []
        header = {}
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)
                if "header" in obj:
                    header = obj["header"]
                else:
                    rows.append(obj)
        return ScatteringDataset(
            entry_q=np.array([r["entry_q"] for r in rows]),
            entry_v=np.array([r["entry_v"] for r in rows]),
            exit_q=np.array([r["exit_q"] for r in rows]),
            exit_v=np.array([r["exit_v"] for r in rows]),
            f_entry=np.array([r["f_entry"] for r in rows]),
            f_exit=np.array([r["f_exit"] for r in rows]),
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
    b1 = causality_batch(table1, samples.q, samples.v)
    phi_q, phi_v = phi(samples.q, samples.v)
    piece2 = table2.active_piece(phi_q)
    on2 = piece2 >= 0
    inward = np.zeros(len(samples), dtype=bool)
    if np.any(on2):
        n2 = table2.inward_normal_at(phi_q[on2], piece2[on2])
        cos2 = table2.space.metric_dot(phi_q[on2], phi_v[on2], n2)
        inward[np.flatnonzero(on2)] = cos2 > table2.tol.grazing_tol
    usable = b1.ok & inward
    if not np.any(usable):
        return np.empty(0)
    b2 = causality_batch(table2, phi_q[usable], phi_v[usable])
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
    resolution: float


def _nearest_distances(space, reference, cloud):
    """Geodesic distance from each reference point to the nearest cloud point."""
    from scipy.spatial import cKDTree  # costs most of the package's import time

    if isinstance(space, FlatTorus):
        offs = [np.array(k) for k in np.ndindex(*([3] * space.dim))]
        tiled = np.concatenate([cloud + (np.array(o) - 1) * space.periods for o in offs])
        tree = cKDTree(tiled)
        d, _ = tree.query(reference, k=1)
        return d
    if isinstance(space, Sphere):
        tree = cKDTree(cloud)
        d, _ = tree.query(reference, k=1)
        return 2.0 * np.arcsin(np.clip(d / 2.0, 0.0, 1.0))
    if isinstance(space, HyperbolicBall):
        out = np.empty(reference.shape[0])
        step = 256
        for i in range(0, reference.shape[0], step):
            ref = reference[i:i + step]
            dist = space.distance(ref[:, None, :], cloud[None, :, :])
            out[i:i + step] = np.min(dist, axis=1)
        return out
    tree = cKDTree(cloud)
    d, _ = tree.query(reference, k=1)
    return d


def reconstruct_chords(data, space, h=0.01, reference_points=None):
    """Chord point cloud from entry/exit pairs in the bare model space.

    Chords are rebuilt as geodesic segments between the recorded endpoints;
    on a flat torus, where endpoints do not determine the geodesic, the
    segment is retraced from the entry direction over the F-length.  When a
    reference sample of the domain is supplied, the one-sided Hausdorff
    distance from the reference to the cloud is reported.
    """
    clouds = []
    lengths = []
    skipped = 0
    for i in range(len(data)):
        if isinstance(space, FlatTorus):
            ell = float(data.f_exit[i] - data.f_entry[i])
            k = max(int(np.ceil(ell / h)) + 1, 2)
            t = np.linspace(0.0, ell, k)
            pts = space.wrap(data.entry_q[i][None, :] + t[:, None] * data.entry_v[i][None, :])
            clouds.append(pts)
            lengths.append(ell)
            continue
        try:
            dist = float(space.distance(data.entry_q[i], data.exit_q[i]))
            k = max(int(np.ceil(dist / h)) + 1, 2)
            pts = space.geodesic_between(data.entry_q[i], data.exit_q[i], k)
        except AmbiguousGeodesic:
            skipped += 1
            continue
        clouds.append(pts)
        lengths.append(dist)
    points = np.concatenate(clouds) if clouds else np.empty((0, space.chart_dim))
    hausdorff = None
    if reference_points is not None and points.shape[0]:
        hausdorff = float(np.max(_nearest_distances(space, reference_points, points)))
    return Reconstruction(points=points, hausdorff=hausdorff,
                          segment_lengths=np.asarray(lengths),
                          skipped_ambiguous=skipped, resolution=h)


def domain_reference_sample(table, count, seed):
    """Interior rejection sample of the domain, for coverage metrics."""
    return table._interior_samples(boundary_rng(seed, 7), count)
