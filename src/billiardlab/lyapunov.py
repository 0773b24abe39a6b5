"""Well-balanced Lyapunov functions from enclosing geodesic balls.

For a table M contained in the interior of a geodesic ball L whose chords
cross the sphere transversally, F(z) is the arclength from the backward
crossing of the ball boundary to z, the ball's closed-form backward root.
F grows at unit rate along the flow, so the F-variation of a chord equals
its length, level slices of F cut each chord at most once, and the slice
areas integrate to int A(t) dt = vol(S^{n-1}) vol(M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import causality_batch
from .errors import BodyTooSmall
from .measure import (Estimate, boundary_points, boundary_rng, domain_volumes, merge_blocks,
                      sample_blocks, sample_mu_theta, unit_sphere_volume)
from .spaces import FlatTorus, Sphere
from .tables import Ball

__all__ = [
    "EnclosingBody", "LyapunovF", "build_well_balanced_F", "delta_F_batch",
    "var_F_boundary", "slice_area_curve", "slice_identity", "default_enclosing_body",
]


@dataclass(frozen=True)
class EnclosingBody:
    """Geodesic ball L (center, radius) with the table in its interior."""

    center: tuple
    radius: float


class LyapunovF:
    """F(q, v): first root of L's wall, radius r, along (q, -v) in (hit_tol, 16 max(r, 1) + 16]."""

    def __init__(self, table, body):
        if isinstance(table.space, FlatTorus):
            raise BodyTooSmall("torus tables admit no enclosing convex ball")
        self.body = body
        self.table = table
        self.wall = Ball(np.asarray(body.center, dtype=float), body.radius, side="outer")
        self.l_max = 16.0 * max(body.radius, 1.0) + 16.0

    def value_batch(self, q, v):
        """F at phase points: backward arclength to the enclosing sphere."""
        s = self.wall.ray_hit(self.table.space, np.atleast_2d(q), -np.atleast_2d(v),
                              self.table.tol.hit_tol, self.l_max)
        if not np.all(np.isfinite(s)):
            raise BodyTooSmall("ray failed to reach the enclosing sphere")
        return s

    def exit_cos(self, q, v):
        """Incidence cosines (negative) where the rays (q, v) leave L."""
        space = self.table.space
        q_hit, v_hit = space.flow(q, v, self.value_batch(q, -v))
        return space.metric_dot(q_hit, v_hit, self.wall.inward_normal(space, q_hit))


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
    if body is None:
        body = default_enclosing_body(table)
    f = LyapunovF(table, body)
    # containment: boundary of M strictly inside L
    rng = boundary_rng(seed, 911)
    for piece in table.pieces:
        pts = piece.sample_boundary(table.space, rng, 128)
        if np.any(f.wall.gauge(table.space, pts) >= -table.tol.hit_tol):
            raise BodyTooSmall("table boundary is not strictly inside the body")
    samples = sample_mu_theta(table, pilot_count, seed)
    batch = causality_batch(table, samples.q, samples.v)
    ok = batch.ok
    if np.any(batch.trapped):
        raise BodyTooSmall("pilot sample contains trapped rays")
    # each pilot chord extended backward from its entry and forward from its exit
    cos = f.exit_cos(np.concatenate([batch.entry_q[ok], batch.exit_q[ok]]),
                     np.concatenate([-batch.entry_v[ok], batch.exit_v[ok]]))
    if np.any(np.abs(cos) <= table.tol.grazing_tol):
        raise BodyTooSmall("extended chord crosses the enclosing sphere tangentially")
    return f


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


@dataclass(frozen=True)
class SliceIdentity:
    """Slice areas A(t) over [inf F, sup F] against int A(t) dt = vol(S^{n-1}) vol(M)."""

    variation: BoundaryVariation
    grid: np.ndarray
    areas: list             # Estimate of A(t) at each grid point
    max_area: float
    integral: float         # trapezoid rule over the mean areas
    predicted: float
    relative_gap: float


def slice_identity(table, f, count, seed, grid_points, workers=None):
    """Slice curve from `count` samples, on a grid over the range of F that
    var_F_boundary finds on max(count // 4, 4096) boundary phase points."""
    var = var_F_boundary(table, f, max(count // 4, 4096), seed)
    grid = np.linspace(var.f_min, var.f_max, grid_points)
    areas = slice_area_curve(table, f, grid, count, seed, workers=workers)
    means = np.array([e.mean for e in areas])
    integral = float(np.trapezoid(means, grid))
    predicted = unit_sphere_volume(table.space.dim - 1) * domain_volumes(table).vol_m
    return SliceIdentity(var, grid, areas, float(np.max(means)), integral, predicted,
                         abs(integral - predicted) / predicted)
