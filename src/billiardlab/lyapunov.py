"""Well-balanced Lyapunov functions from enclosing geodesic balls.

For a table M contained in the interior of a geodesic ball L whose chords
cross the sphere transversally, F(z) is the arclength from the backward
crossing of the ball boundary to z.  Along the flow F grows at unit rate
(dF along the geodesic field is 1), so the F-variation of a chord equals
its length exactly, and level slices of F cut each chord at most once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BodyTooSmall
from .measure import (Estimate, boundary_points, boundary_rng, merge_blocks, sample_blocks,
                      sample_mu_theta)
from .spaces import FlatTorus, Sphere
from .tables import Ball, Table, Tolerances

__all__ = [
    "EnclosingBody", "LyapunovF", "build_well_balanced_F", "delta_F",
    "var_F_boundary", "slice_area", "slice_area_curve", "default_enclosing_body",
]


@dataclass(frozen=True)
class EnclosingBody:
    """Geodesic ball L (center, radius) with the table in its interior."""

    center: tuple
    radius: float


class LyapunovF:
    """Arclength-from-entry Lyapunov evaluator over phase points in L."""

    def __init__(self, table, body):
        self.body = body
        self.table = table
        wall = Ball(np.asarray(body.center, dtype=float), body.radius, side="outer")
        tol = Tolerances(hit_tol=table.tol.hit_tol, grazing_tol=table.tol.grazing_tol,
                         l_max=16.0 * max(body.radius, 1.0) + 16.0)
        self._l_table = Table(table.space, [wall], tol, name="enclosing-ball", check=False)

    def value_batch(self, q, v):
        """F at phase points: backward arclength to the enclosing sphere."""
        hit = self._l_table.first_hit(np.atleast_2d(q), -np.atleast_2d(v))
        if np.any(hit.trapped):
            raise BodyTooSmall("backward ray failed to reach the enclosing sphere")
        return hit.s

    def value(self, z):
        return float(self.value_batch(z.q[None, :], z.v[None, :])[0])

    def backward_crossing_cos(self, q, v):
        hit = self._l_table.first_hit(np.atleast_2d(q), -np.atleast_2d(v))
        return hit.cos_in, hit.trapped


def default_enclosing_body(table):
    """Default ball: twice the table radius, or midway to the equator on spheres."""
    space = table.space
    if isinstance(space, FlatTorus):
        raise BodyTooSmall("torus tables admit no enclosing convex ball")
    outer = next(p for p in table.pieces if p.side == "outer")
    if not isinstance(outer, Ball):
        # Fourier walls: bound by a circumscribed ball about the origin
        center = np.zeros(space.chart_dim)
        radius = outer.extent(space)
        return EnclosingBody(center=tuple(center), radius=radius)
    if isinstance(space, Sphere):
        rho = 0.5 * (outer.radius + np.pi / 2.0)
        return EnclosingBody(center=tuple(outer.center), radius=rho)
    return EnclosingBody(center=tuple(outer.center), radius=2.0 * outer.radius)


def build_well_balanced_F(table, body=None, pilot_count=512, seed=1234):
    """Build F and verify the double transversal crossing on a pilot sample."""
    from .dynamics import causality_batch

    if body is None:
        body = default_enclosing_body(table)
    f = LyapunovF(table, body)
    gtol = table.tol.grazing_tol
    # containment: boundary of M strictly inside L
    rng = boundary_rng(seed, 911)
    for piece in table.pieces:
        pts = piece.sample_boundary(table.space, rng, 128)
        if np.any(f._l_table.max_gauge(pts) >= -table.tol.hit_tol):
            raise BodyTooSmall("table boundary is not strictly inside the body")
    samples = sample_mu_theta(table, pilot_count, seed)
    batch = causality_batch(table, samples.q, samples.v)
    ok = batch.ok
    if not np.all(ok | batch.trapped | batch.grazing | batch.degenerate):
        raise BodyTooSmall("pilot chords could not be traced")
    if np.any(batch.trapped):
        raise BodyTooSmall("pilot sample contains trapped rays")
    cos_back, trap_back = f.backward_crossing_cos(batch.entry_q[ok], batch.entry_v[ok])
    cos_fwd, trap_fwd = f.backward_crossing_cos(batch.exit_q[ok], -batch.exit_v[ok])
    if np.any(trap_back) or np.any(trap_fwd):
        raise BodyTooSmall("extended chord failed to cross the enclosing sphere")
    if np.any(np.abs(cos_back) <= gtol) or np.any(np.abs(cos_fwd) <= gtol):
        raise BodyTooSmall("extended chord crosses the enclosing sphere tangentially")
    return f


def delta_F(table, f, z):
    """F-variation along the chord through z; equals the chord length."""
    from .dynamics import causality_map

    record = causality_map(table, z)
    if record.degenerate:
        return 0.0
    return float(f.value(record.exit) - f.value(record.entry))


def delta_F_batch(f, batch):
    """F-variation for every chord of a batch (zero on degenerate rows)."""
    out = np.zeros(len(batch))
    trace = ~batch.degenerate & ~batch.trapped
    if np.any(trace):
        f_in = f.value_batch(batch.entry_q[trace], batch.entry_v[trace])
        f_out = f.value_batch(batch.exit_q[trace], batch.exit_v[trace])
        out[trace] = f_out - f_in
    return out


@dataclass(frozen=True)
class BoundaryVariation:
    var: float
    f_min: float
    f_max: float
    count: int


def _uniform_boundary_phase(table, count, rng):
    """Boundary points weighted by area, directions uniform on the g-sphere."""
    _, q, normals = boundary_points(table, count, rng)
    frame = table.space.tangent_frame(q, normals)
    basis = np.concatenate([normals[:, None, :], frame], axis=1)
    coords = rng.standard_normal((count, basis.shape[1]))
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    v = np.einsum("nj,njd->nd", coords, basis)
    return q, v


def var_F_boundary(table, f, count, seed):
    """Empirical sup minus inf of F over boundary phase points.

    Combines measure-weighted entries with uniform boundary-phase samples
    (all directions), giving a lower bound of the true variation.
    """
    half = max(count // 2, 1)
    samples = sample_mu_theta(table, half, seed)
    values = [f.value_batch(samples.q, samples.v)]
    rng = boundary_rng(seed, 13)
    qu, vu = _uniform_boundary_phase(table, count - half, rng)
    values.append(f.value_batch(qu, vu))
    allv = np.concatenate(values)
    return BoundaryVariation(var=float(np.max(allv) - np.min(allv)),
                             f_min=float(np.min(allv)), f_max=float(np.max(allv)),
                             count=int(allv.size))


def _slice_block(table, samples, f, t_grid):
    from .dynamics import causality_batch

    batch = causality_batch(table, samples.q, samples.v)
    ok = batch.ok
    f_lo = f.value_batch(batch.entry_q[ok], batch.entry_v[ok])
    f_hi = f.value_batch(batch.exit_q[ok], batch.exit_v[ok])
    mass = samples.normalization
    pad = np.zeros(len(samples) - f_lo.size)  # excluded rows carry no straddle mass
    estimates = []
    for t in t_grid:
        inside = ((f_lo <= t) & (t < f_hi)).astype(float)
        estimates.append(Estimate.from_samples(np.concatenate([inside, pad])).scaled(mass))
    return estimates


def slice_area_curve(table, f, t_grid, count, seed, workers=None):
    """Measure of chords straddling each level t, one sample pass for all t.

    A chord [F(z), F(C z)) crosses the level set {F = t} exactly once when
    F(z) <= t < F(C z), because F grows monotonically along the flow; the
    slice area is the measure of that straddle set.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    return merge_blocks(sample_blocks(_slice_block, table, count, seed, f, t_grid,
                                      workers=workers))


def slice_area(table, f, t, count, seed):
    """Monte Carlo estimate of the slice area at a single level t."""
    return slice_area_curve(table, f, [t], count, seed)[0]
