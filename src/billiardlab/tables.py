"""Billiard tables: boundary pieces, exact first hits, normals, strata.

A table is a model space plus boundary pieces.  Each piece carries a signed
gauge function, negative inside the domain, so the domain is the set where
every gauge is nonpositive.  Ball pieces, sphere caps among them, intersect
rays in closed form (quadratic, trigonometric, or exponential equations);
radial Fourier walls use certified sphere tracing, whose steps never pass the
first zero of the gauge, so no crossing is skipped.  A ball's space computes
its geodesic sphere (normal, hits, volumes, samples, angle) in private
methods, so a tracer that wraps public methods books that time to `Ball`.
Flat-torus tables trace rays through periodic images in windows no longer
than the shortest period; one call of the stacked kernel `window_hit` covers
a block of consecutive windows for every obstacle ball at once.  A small
batch's first block spans the cell diagonal, so most of its rays hit in one
call; a large batch's first block is one window.  After that a block is one
window while the active rows fill the row budget and doubles each pass once
they do not, so a ray in a free channel takes about log2(l_max / window)
passes; a call holds at most that budget of (row, window, ball) triples, so
a block of many rows is split into row chunks.  Since 2r < every period,
each window's 2^d nearest images hold every image its segment can hit, and
the hits are those of a one-window loop, bit for bit, whatever the blocks.
Each root is solved from its window's midpoint, not from the ray's start, so
a flight hundreds of periods long still lands on its wall to about 1e-13.
One dispatcher, `_per_piece`, evaluates a piece method at each row's own
piece (gauges, inward normals, boundary angles, wall points).  On a torus
table of two or more balls it calls the `Ball` method once, on a ball of
per-row centres and radii gathered from the stacked balls, so the bits are
those of each ball; on every other table it calls each piece on its rows.

A table derives the boundary geometry of phase points (piece, inward
normal, incidence cosine) in one step, `_boundary_geometry`, which uses a
carried piece or normal as given and derives a missing one; `_strata` adds
the stratum labels for the callers that read them (`classify`, `first_hit`,
`causality_batch`).  A row off the boundary (piece -1, a trapped hit among
them) gets a NaN normal, a NaN cosine and label -1; `classify` and
`inward_normal_at` raise NotOnBoundary on such rows.  Interior points (the
connectivity check, `reconstruct`'s coverage reference) are uniform in g-volume.

Every piece kind (`Ball`, its alias `HalfSpaceOrCap`, `RadialFourierCurve`)
has a `side`, OUTER or OBSTACLE, and the methods below.  `Table` calls
`check` once per piece when it is built; the others assume a piece that
passed it.

    check(space)                        ConfigError unless the piece fits the space
    bounds(space)                       (center, radius) of a geodesic ball holding it
    gauge(space, q)                     signed gauge, negative inside the domain
    inward_normal(space, q)             g-unit normal pointing into the domain
    ray_hit(space, q, v, s_lo, s_hi)    first crossing out of the domain in (s_lo, s_hi], or inf
    boundary_volume(space)              g-volume of the piece's wall
    domain_volume(space)                g-volume of the region the piece encloses
    sample_boundary(space, rng, count)  wall points, uniform in boundary volume
    boundary_param(space, q)            angle-like wall parameter (n = 2 only)
    point_at_param(space, alpha)        wall point at that parameter (n = 2 only)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, NotOnBoundary
from .spaces import Euclidean, FlatTorus, _dot

__all__ = [
    "StratumLabel", "Tolerances", "Ball", "HalfSpaceOrCap",
    "RadialFourierCurve", "Table", "window_hit",
]

OUTER = "outer"
OBSTACLE = "obstacle"

# per axis, the two periodic images a torus window can reach: floor and floor + 1
_IMAGE_PAIR = np.array([0.0, 1.0])[:, None, None, None]
# row x window x ball triples per window_hit call in a torus block
_BLOCK_ROWS = 65536
# a window_hit call costs about 50 us plus about 21 ns per (row, window, ball,
# image) element (2-core Xeon, numpy 2.4): a first block that spans the cell
# diagonal saves the second call while its elements stay below this
_WIDE_FIRST = 4096


class StratumLabel(IntEnum):
    TRANSVERSAL_IN = 0    # interior of the inward locus
    TRANSVERSAL_OUT = 1   # interior of the outward locus
    TANGENT_CONVEX = 2    # tangency on a wall convex from inside; C(x) = x
    TANGENT_CONCAVE = 3   # tangency on a dispersing piece; discontinuity locus


@dataclass(frozen=True)
class Tolerances:
    hit_tol: float = 1e-10       # length units
    grazing_tol: float = 1e-7    # cosine units
    l_max: float | None = None   # None: 1e4 x diameter estimate

    def __post_init__(self):
        for name in ("hit_tol", "grazing_tol", "l_max"):
            value = getattr(self, name)
            if name == "l_max" and value is None:
                continue
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value < np.inf):
                raise ConfigError(f"tolerance {name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# Boundary pieces
# ---------------------------------------------------------------------------


def _check_planar(space):
    """Boundary angles, and points at an angle, exist for n = 2 tables only."""
    if space.dim != 2:
        raise ConfigError(f"boundary angles need an n = 2 table, not n = {space.dim}")


class Ball:
    """Geodesic ball piece (outer wall or obstacle); its space computes its sphere.

    `gauge`, `inward_normal`, `boundary_param` and `point_at_param` are
    elementwise in the centre and radius, so a torus table of several balls
    runs each once on a ball of per-row centres and radii (`Table._per_piece`)."""

    def __init__(self, center, radius, side=OUTER):
        if side not in (OUTER, OBSTACLE):
            raise ConfigError(f"unknown side {side!r}")
        if radius <= 0:
            raise ConfigError("ball radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.side = side
        self._sign = 1.0 if side == OUTER else -1.0

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius}, side={self.side!r})"

    def check(self, space):
        """The centre is a point of the space, with chart_dim coordinates, and
        the radius is below the space's diameter, past which the wall is empty."""
        c = self.center
        try:
            if c.shape != (space.chart_dim,):
                raise ValueError(f"needs {space.chart_dim} coordinates")
            space.validate_point(c)
        except ValueError as exc:
            raise ConfigError(f"ball centre {c.tolist()}: {exc}") from exc
        if not self.radius < space.diameter:
            raise ConfigError(f"ball radius {self.radius} must be below the {space.kind} "
                              f"diameter {space.diameter}")

    def bounds(self, space):
        return self.center, self.radius

    def gauge(self, space, q):
        return self._sign * (space.distance(q, self.center) - self.radius)

    def inward_normal(self, space, q):
        return -self._sign * space._sphere_normal(q, self.center)

    def ray_hit(self, space, q, v, s_lo, s_hi):
        return space._sphere_hit(q, v, self.center, self.radius, self._sign, s_lo, s_hi)

    def boundary_volume(self, space):
        return space._sphere_area(self.radius)

    def domain_volume(self, space):
        """g-volume enclosed by the ball."""
        return space._ball_volume(self.radius)

    def sample_boundary(self, space, rng, count):
        u = space._unit_tangents(self.center, rng, count)
        c = np.broadcast_to(self.center, u.shape)
        return space.flow(c, u, np.full(count, self.radius))[0]

    def boundary_param(self, space, q):
        _check_planar(space)
        return space._sphere_angle(q, self.center)

    def point_at_param(self, space, alpha):
        _check_planar(space)
        return space._sphere_point(self.center, self.radius, np.asarray(alpha, dtype=float))


class HalfSpaceOrCap(Ball):
    """Sphere cap: the geodesic ball of radius `angle` about `pole`.

    A half-space bounds a compact table only on the sphere, as a cap, so
    this is a Ball under the names a cap is given by.
    """

    def __init__(self, pole, angle, side=OUTER):
        super().__init__(pole, angle, side=side)


class RadialFourierCurve:
    """Planar wall r(theta) = a0 + sum a_k cos(k theta) + b_k sin(k theta).

    Euclidean n = 2 only.  `radius` gives r and r' at unit directions u =
    (cos theta, sin theta) by the angle-addition recurrence from u, within a
    few ulp of the exact series.  Construction runs it once on a 4096-point
    grid for the bounds r_min <= r <= r_max, |r'| <= R1 and |r''| <= R2 and
    the sampler's speed envelope, each grid extremum widened by an explicit
    h^2 / 8 margin far above that roundoff, and for the perimeter and the
    area (the trapezoid rule is exact for r^2).  The bounds give L >= |grad g|
    and K >= |d^2 g / ds^2| on unit-speed lines in the region |x| >= r_min / 2.
    Ray intersections use certified sphere tracing: each step is no longer
    than a lower bound on the distance to the first zero of the gauge (the
    Lipschitz ball |g| / L, the along-line quadratic bound from g, g' and K,
    or the exact chord across the disk |x| < r_min), so no crossing is
    skipped (two closer together than _XTOL * r_max may merge).  Near the
    wall the quadratic bound is a one-sided Newton step that converges
    quadratically; the first root is then bracketed to within _XTOL * r_max.
    """

    _XTOL = 1e-14  # hit bracket width, relative to r_max

    def __init__(self, base_radius, cos_coeffs=(), sin_coeffs=(), side=OUTER):
        if side not in (OUTER, OBSTACLE):
            raise ConfigError(f"unknown side {side!r}")
        self.side = side
        self._sign = 1.0 if side == OUTER else -1.0
        self.base_radius = float(base_radius)
        a, b = np.asarray(cos_coeffs, dtype=float), np.asarray(sin_coeffs, dtype=float)
        self._coef = np.zeros((max(a.size, b.size), 2))  # row k - 1: (a_k, b_k), zero-padded
        self._coef[:a.size, 0], self._coef[:b.size, 1] = a, b
        # amplitude of harmonic k = 1..m; |d^j r / d theta^j| <= sum k^j amp_k
        amp = np.abs(self._coef).sum(axis=1)
        r1, r2, r3 = (float(np.sum(np.arange(1, amp.size + 1) ** j * amp)) for j in (1, 2, 3))
        # a grid extremum of f misses the true one by at most max|f''| h^2 / 8
        grid = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        gap = grid[1] ** 2 / 8.0
        rg, drg = self.radius(np.stack([np.cos(grid), np.sin(grid)], axis=-1))
        self._r_min = max(self.base_radius - float(np.sum(amp)), float(np.min(rg)) - r2 * gap)
        if self._r_min <= 0:
            raise ConfigError("radial Fourier curve must have positive radius")
        self._r_max = min(self.base_radius + float(np.sum(amp)), float(np.max(rg)) + r2 * gap)
        r1 = min(r1, float(np.max(np.abs(drg))) + r3 * gap)
        self._lipschitz = float(np.hypot(1.0, 2.0 * r1 / self._r_min))
        self._curv = 2.0 / self._r_min + 4.0 * (r2 + 2.0 * r1) / self._r_min ** 2
        speed = np.hypot(rg, drg)
        self._perimeter = float(np.mean(speed) * 2.0 * np.pi)
        self._area = float(np.mean(0.5 * rg ** 2) * 2.0 * np.pi)
        # (r^2 + r'^2)'' = 2 (r'^2 + r r'' + r''^2 + r' r''')
        speed2_curv = 2.0 * (r1 * r1 + self._r_max * r2 + r2 * r2 + r1 * r3)
        self._speed_max = float(np.sqrt(np.max(speed) ** 2 + speed2_curv * gap))

    def radius(self, u):
        """(r, r') at unit directions u = (cos theta, sin theta), shape (..., 2)."""
        c1, s1 = u[..., 0], u[..., 1]
        r, dr = np.full(c1.shape, self.base_radius), np.zeros(c1.shape)
        ck, sk = 1.0, 0.0  # cos and sin of k theta, from k = 0
        for k, (a, b) in enumerate(self._coef, start=1):
            ck, sk = ck * c1 - sk * s1, sk * c1 + ck * s1
            if a or b:  # a zero-padded harmonic adds nothing
                r += a * ck + b * sk
                dr += k * (b * ck - a * sk)
        return r, dr

    def check(self, space):
        if not (type(space) is Euclidean and space.dim == 2):
            raise ConfigError("radial Fourier walls require Euclidean n = 2")

    def bounds(self, space):
        return np.zeros(2), self._r_max

    def gauge(self, space, q):
        rho, u = _polar(q)
        return self._sign * (rho - self.radius(u)[0])

    def inward_normal(self, space, q):
        # grad(|q| - r(theta)) = u - (r' / rho) u_perp in Cartesian coordinates
        rho, u = _polar(q)
        perp = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        grad = u - (self.radius(u)[1] / rho)[..., None] * perp
        return (-self._sign / np.sqrt(_dot(grad, grad)))[..., None] * grad

    def ray_hit(self, space, q, v, s_lo, s_hi):
        """Certified sphere tracing along unit-speed lines; see the class docstring."""
        n = q.shape[0]
        s_hi = np.broadcast_to(np.asarray(s_hi, dtype=float), (n,))
        s_hit = np.full(n, np.inf)
        # every zero of the gauge lies in r_min <= |x| <= r_max: search only
        # the part of each line inside the disk |x| <= r_max
        b = _dot(q, v)
        disc = b * b - _dot(q, q) + self._r_max ** 2
        half = np.sqrt(np.maximum(disc, 0.0))
        s_start = np.maximum(-b - half, s_lo)
        s_end = np.minimum(-b + half, s_hi)
        idx = np.flatnonzero((disc > 0.0) & (s_start < s_end))
        qa, va, s, s_end = q[idx], v[idx], s_start[idx], s_end[idx]
        # a line that starts outside the disk starts where sign(g) = sign of
        # the piece, whatever the roundoff of g where it enters the disk
        outside = s > s_lo
        L, K, r_min = self._lipschitz, self._curv, self._r_min
        xtol = self._XTOL * self._r_max
        below = None
        while idx.size:
            rho, u = _polar(qa + s[:, None] * va)
            r, dr = self.radius(u)
            g = self._sign * (rho - r)
            radial = _dot(u, va)                              # drho/ds
            angular = u[:, 0] * va[:, 1] - u[:, 1] * va[:, 0]  # rho dtheta/ds
            dg = self._sign * (radial - dr * angular / rho)
            if below is None:
                below = np.where(outside, self._sign < 0.0, g <= 0.0)  # side of the start point
            crossed = (g <= 0.0) != below  # landed on the root to roundoff
            a = np.abs(g)
            d = np.where(below, dg, -dg)  # rate of approach to the zero set
            # |g''| <= K: no root before `near`; when d^2 >= 2 K a the gauge is
            # monotone up to `far`, where it has certainly changed sign
            sq = np.sqrt(d * d + 2.0 * K * a)
            disc = d * d - 2.0 * K * a
            with np.errstate(divide="ignore", invalid="ignore"):
                near = np.where(d > 0.0, 2.0 * a / (d + sq), (sq - d) / K)
                far = 2.0 * a / (d + np.sqrt(np.maximum(disc, 0.0)))
            room = rho - 0.5 * r_min  # L and K hold within this distance
            converged = (d > 0.0) & (disc >= 0.0) & (far <= room) & (far - near <= xtol)
            done = crossed | converged
            s_hit[idx[done]] = np.where(crossed, s, s + 0.5 * (near + far))[done]
            xv = rho * radial  # x . v
            inner = np.sqrt(np.maximum(xv * xv - rho * rho + r_min * r_min, 0.0)) - xv
            step = np.maximum(np.minimum(np.maximum(a / L, near), room),
                              np.where(rho < r_min, inner, 0.0))
            # a root may sit exactly at s_end, so the last step lands there
            keep = ~done & (s < s_end)
            s = np.minimum(s + np.maximum(step, xtol), s_end)
            idx, qa, va, s, s_end, below = (idx[keep], qa[keep], va[keep], s[keep],
                                            s_end[keep], below[keep])
        return np.where((s_hit > s_lo) & (s_hit <= s_hi), s_hit, np.inf)

    def boundary_volume(self, space):
        return self._perimeter

    def sample_boundary(self, space, rng, count):
        out = np.empty((count, 2))
        filled = 0
        while filled < count:
            m = 2 * (count - filled) + 16
            theta = rng.uniform(0.0, 2.0 * np.pi, m)
            u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            r, dr = self.radius(u)
            accept = rng.uniform(0.0, self._speed_max, m) < np.hypot(r, dr)
            take = (r[:, None] * u)[accept][: count - filled]
            out[filled:filled + take.shape[0]] = take
            filled += take.shape[0]
        return out

    def boundary_param(self, space, q):
        return np.mod(np.arctan2(q[..., 1], q[..., 0]), 2.0 * np.pi)

    def point_at_param(self, space, alpha):
        alpha = np.asarray(alpha, dtype=float)
        u = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        return self.radius(u)[0][..., None] * u

    def domain_volume(self, space):
        return self._area


def _polar(q):
    """|q| and q / |q| of planar points; the origin gets (1, 0), arctan2's angle 0."""
    rho = np.sqrt(_dot(q, q))
    u = q / np.where(rho > 0.0, rho, np.inf)[..., None]
    u[rho == 0.0] = 1.0, 0.0
    return rho, u


# ---------------------------------------------------------------------------
# Torus obstacles
# ---------------------------------------------------------------------------


def window_hit(q, v, s0, s1, s_lo, space, centers, radii_sq):
    """First entries into a torus's obstacle balls over consecutive windows.

    Returns (s, piece): per row the smallest entry root t + (-b - sq) over
    every ball (rows of `centers`, radius squares `radii_sq`) in any window
    (max(s0_j, s_lo), s1_j], ties to the lower ball index; inf and -1 when
    there is none.  A ray leaves an obstacle it starts in without a hit.
    `s0`, `s1` bound windows no longer than the shortest period.  On axis i
    a window's segment stays within P_i / 2 of its midpoint m = q + t v,
    t = (s0_j + s1_j) / 2, and an image it hits lies within r < P_i / 2 of
    the segment, so only the images floor(y) and floor(y) + 1, with
    y = (m_i - c_i) / P_i, can be hit: 2^d images per ball, row and window,
    laid out (2^d, balls, windows, rows).  b and sq come from m, within about
    a period of the image, so the error of b^2 - |d|^2 and of |v|^2 != 1 does
    not grow with the flight.  Each root comes from the same image and window
    by the same operations whichever block computes it.
    """
    n, dim = q.shape
    periods = space.periods
    balls, windows = radii_sq.size, s0.size
    t = 0.5 * (s0 + s1)
    # b = d.v and c = |d|^2 from the midpoint m = q + t v, summed axis by axis
    # in the order np.sum uses
    for i in range(dim):
        vi = v[:, i]
        mi = q[:, i] + t[:, None] * vi                               # (W, n)
        ci = centers[:, i, None, None]
        base = np.floor((mi - ci) / periods[i])                      # (P, W, n)
        d = mi - (ci + (base + _IMAGE_PAIR) * periods[i])            # (2, P, W, n)
        shape = (1,) * i + (2,) + (1,) * (dim - 1 - i) + d.shape[1:]
        dv, dd = (d * vi).reshape(shape), (d * d).reshape(shape)
        b, c = (dv, dd) if i == 0 else (b + dv, c + dd)
    disc = b * b - (c - radii_sq[:, None, None])
    cand = (disc >= 0.0).ravel().nonzero()[0]
    wn, row = np.divmod(cand, n)
    image_ball, j = np.divmod(wn, windows)
    root = -b.ravel()[cand] - np.sqrt(disc.ravel()[cand])
    root += t[j]  # t + (-b - sq): a float sum is the same in either order
    ok = (root > np.maximum(s0, s_lo)[j]) & (root <= s1[j])
    best = np.full(balls * n, np.inf)
    np.minimum.at(best, (image_ball % balls * n + row)[ok], root[ok])
    best = best.reshape(balls, n)
    s = best.min(axis=0)
    return s, np.where(s < np.inf, best.argmin(axis=0), -1)


# ---------------------------------------------------------------------------
# Table
# ---------------------------------------------------------------------------


@dataclass
class HitBatch:
    """Vectorized first-hit result.  Trapped rows carry s = inf, piece -1, label
    -1, a NaN normal and a NaN cosine, and q, v where the ray started."""
    s: np.ndarray
    q: np.ndarray
    v: np.ndarray
    piece: np.ndarray
    normal: np.ndarray
    cos_in: np.ndarray
    label: np.ndarray
    trapped: np.ndarray


class Table:
    """A billiard domain: model space, boundary pieces, tolerances.  `outer` is its
    outer wall, the one OUTER piece, or None on a flat torus (obstacles only)."""

    def __init__(self, space, pieces, tolerances=None, name="table", check=True):
        self.space = space
        self.pieces = tuple(pieces)
        self.tol = tolerances or Tolerances()
        self.name = name
        if not self.pieces:
            raise ConfigError("a table needs at least one boundary piece")
        outer = [p for p in self.pieces if p.side == OUTER]
        if isinstance(space, FlatTorus):
            if outer or not all(isinstance(p, Ball) for p in self.pieces):
                raise ConfigError("torus tables support ball obstacles only")
        elif len(outer) != 1:
            raise ConfigError("non-torus tables need exactly one outer wall")
        self.outer = outer[0] if outer else None
        for p in self.pieces:
            p.check(space)
        self._diameter = float(np.linalg.norm(space.periods) if self.outer is None
                               else min(2.0 * self.outer.bounds(space)[1], space.diameter))
        if not np.isfinite(self._diameter):
            raise ConfigError("table domain is unbounded")
        self.l_max = self.tol.l_max if self.tol.l_max else 1e4 * self._diameter
        if isinstance(space, FlatTorus):
            # the obstacle balls stacked for window_hit; each square is
            # radius ** 2 (libm pow), not an array multiply: the two can differ
            # in the last bit, which moves grazing roots
            self._centers = np.array([p.center for p in self.pieces])
            self._radii = np.array([p.radius for p in self.pieces])
            self._radii_sq = np.array([p.radius ** 2 for p in self.pieces])
        if check:
            self._check_geometry()

    # -- construction checks ------------------------------------------------

    def _check_geometry(self):
        self._check_boundaries()
        self._check_connected()

    def _check_boundaries(self):
        """Torus obstacles by their exact overlap tests; then, per piece k, 256 wall
        points from generator k: their normals must be finite and, on a table with
        an outer wall, an obstacle's points must lie inside every other piece."""
        space = self.space
        if isinstance(space, FlatTorus):
            for b in self.pieces:
                if 2.0 * b.radius >= np.min(space.periods):
                    raise ConfigError("obstacle overlaps its own periodic images")
            for i, a in enumerate(self.pieces):
                for b in self.pieces[i + 1:]:
                    d = np.linalg.norm(space.delta(a.center, b.center))
                    if d <= a.radius + b.radius:
                        raise ConfigError("obstacles overlap (including periodic images)")
        for k, p in enumerate(self.pieces):
            pts = p.sample_boundary(space, np.random.default_rng(k), 256)
            if not np.all(np.isfinite(p.inward_normal(space, pts))):
                raise ConfigError("vanishing boundary gradient detected")
            if self.outer is None or p is self.outer:
                continue
            if np.any(self.outer.gauge(space, pts) >= -self.tol.hit_tol):
                raise ConfigError("obstacle touches the outer wall")
            for q in self.pieces:
                if q is p or q is self.outer:
                    continue
                if np.any(q.gauge(space, pts) >= -self.tol.hit_tol):
                    raise ConfigError("obstacles overlap")

    def _interior_samples(self, rng, count):
        """Interior points, uniform in g-volume.  A torus draws from its cell; a
        table with an outer wall draws from the ball B(c, R) of `outer.bounds`:
        distance rho from c with density ~ the sphere area at rho (rejection
        against its peak), a g-unit direction u at c, the point flow(c, u, rho)."""
        space = self.space
        out = np.empty((count, space.chart_dim))
        filled = 0
        tries = 0
        while filled < count:
            tries += 1
            if tries > 2000:
                raise ConfigError("could not sample the table interior")
            m = 4 * (count - filled) + 32
            if self.outer is None:
                q = rng.uniform(0.0, 1.0, (m, space.dim)) * space.periods
            else:
                c, r = self.outer.bounds(space)
                peak = space._sphere_area(min(r, space.diameter / 2.0))
                rho = rng.uniform(0.0, r, m)
                rho = rho[rng.uniform(0.0, peak, m) < space._sphere_area(rho)]
                u = space._unit_tangents(c, rng, rho.size)
                q = space.flow(np.broadcast_to(c, u.shape), u, rho)[0]
            keep = q[self.inside(q, tol=-1e-9)]
            take = keep[: count - filled]
            out[filled:filled + take.shape[0]] = take
            filled += take.shape[0]
        return out

    def _check_connected(self):
        count, neighbors, probes = 120, 6, 24  # points, edges per point, probes per edge
        rng = np.random.default_rng(2)
        pts = self._interior_samples(rng, count)
        deltas = self.space.delta(pts[None, :, :], pts[:, None, :])
        dist = np.linalg.norm(deltas, axis=-1)
        order = np.argsort(dist, axis=1)
        parent = np.arange(count)

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # one membership call (inside is row-wise) per neighbour rank k probes
        # the edges from every point to its k-th nearest neighbour; one call
        # over all ranks would raise the peak memory of a table build
        t = np.linspace(0.02, 0.98, probes)[:, None]
        rows = np.arange(count)
        for k in range(1, neighbors + 1):
            nbr = order[:, k]
            seg = pts[:, None, :] + t * deltas[rows, nbr][:, None, :]
            seg = self.space.wrap(seg.reshape(-1, pts.shape[1]))
            clear = np.all(self.inside(seg, tol=0.0).reshape(count, probes), axis=1)
            for i in np.flatnonzero(clear):
                parent[find(i)] = find(nbr[i])
        roots = {find(i) for i in range(count)}
        if len(roots) > 1:
            raise ConfigError("table domain appears disconnected")

    # -- gauges and membership ----------------------------------------------

    def gauges(self, q):
        q = np.atleast_2d(q)
        return np.stack([p.gauge(self.space, q) for p in self.pieces], axis=0)

    def max_gauge(self, q):
        return np.max(self.gauges(q), axis=0)

    def inside(self, q, tol=None):
        tol = self.tol.hit_tol if tol is None else tol
        return self.max_gauge(q) <= tol

    def active_piece(self, q):
        """Index of the piece whose gauge vanishes at q; -1 if none."""
        g = self.gauges(np.atleast_2d(q))
        idx = np.argmax(g, axis=0)
        best = np.max(g, axis=0)
        return np.where(np.abs(best) <= self.tol.hit_tol, idx, -1)

    def _per_piece(self, method, piece_idx, x, out):
        """Fill each row of `out` with pieces[k].method(space, x) for its piece k;
        rows whose index names no piece (-1 off the boundary) keep `out`'s value.
        A torus table of two or more balls calls the method once, on a ball whose
        centre and radius are each row's own, and a piece that owns every row is
        called on x itself; either result is returned in place of `out`."""
        if self.outer is None and len(self.pieces) > 1:
            rows = Ball.__new__(Ball)  # Ball.__init__ checks one scalar radius
            # take, not fancy indexing, which gathers 2-D rows about ten times slower
            rows.center = self._centers.take(piece_idx, axis=0)
            rows.radius = self._radii.take(piece_idx)
            rows.side, rows._sign = OBSTACLE, -1.0  # every torus piece is an obstacle
            value = getattr(rows, method)(self.space, x)
            off = piece_idx < 0
            if off.any():
                value[off] = out[off]
            return value
        for k, piece in enumerate(self.pieces):
            rows = piece_idx == k
            count = np.count_nonzero(rows)
            if count == rows.size:
                return getattr(piece, method)(self.space, x)
            if count:
                out[rows] = getattr(piece, method)(self.space, x[rows])
        return out

    @staticmethod
    def _on_boundary(piece_idx):
        """Piece indices as an array; -1 (off the boundary) raises NotOnBoundary."""
        piece_idx = np.atleast_1d(piece_idx)
        if (piece_idx < 0).any():
            raise NotOnBoundary("point is not on the table boundary")
        return piece_idx

    def piece_gauge(self, q, piece_idx):
        """Gauge of each row's own piece at q."""
        q = np.atleast_2d(q)
        return self._per_piece("gauge", self._on_boundary(piece_idx), q, np.empty(q.shape[0]))

    def inward_normal_at(self, q, piece_idx):
        q = np.atleast_2d(q)
        return self._per_piece("inward_normal", self._on_boundary(piece_idx), q, np.empty_like(q))

    # -- strata ---------------------------------------------------------------

    def _gauge_dds(self, q, v, piece_idx):
        """Second derivative of the active gauge along the geodesic."""
        h = 1e-4 * max(self._diameter, 1e-6)
        qp, _ = self.space.flow(q, v, np.full(q.shape[0], h))
        qm, _ = self.space.flow(q, v, np.full(q.shape[0], -h))
        g0, gp, gm = (self._per_piece("gauge", piece_idx, x, np.empty(x.shape[0]))
                      for x in (q, qp, qm))
        return (gp - 2.0 * g0 + gm) / (h * h)

    def classify(self, q, v, piece_idx=None, normal=None):
        """StratumLabel codes and incidence cosines for boundary phase points;
        `piece_idx` and `normal`, when known, save deriving them again."""
        q, v = np.atleast_2d(q), np.atleast_2d(v)
        piece, _, cos_in = self._boundary_geometry(q, v, piece_idx, normal)
        self._on_boundary(piece)
        return self._strata(q, v, piece, cos_in), cos_in

    def _boundary_geometry(self, q, v, piece=None, normal=None):
        """(piece, inward normal, incidence cosine) at (N, chart_dim) rows (q, v).  A
        piece or normal the caller carries is used as given; a missing one is derived.
        A row off the boundary (piece -1) gets a NaN normal and a NaN cosine."""
        piece = self.active_piece(q) if piece is None else np.atleast_1d(piece)
        off = piece < 0
        some_off = off.any()
        if normal is None:
            fill = np.full_like(q, np.nan) if some_off else np.empty_like(q)
            normal = self._per_piece("inward_normal", piece, q, fill)
        elif some_off:
            normal = np.where(off[:, None], np.nan, normal)
        return piece, normal, self.space.metric_dot(q, v, normal)

    def _strata(self, q, v, piece, cos_in):
        """StratumLabel codes of rows with the piece and cosine `_boundary_geometry`
        gave: -1 off the boundary, where that cosine is NaN and never transversal."""
        # TRANSVERSAL_IN 0 and TRANSVERSAL_OUT 1 are the bools as int8; a NaN cosine is tangent
        label = (cos_in < -self.tol.grazing_tol).view(np.int8)
        transversal = np.abs(cos_in) > self.tol.grazing_tol
        if not transversal.all():
            off = piece < 0
            label[off] = -1
            tangent = ~(transversal | off)
            if tangent.any():
                dds = self._gauge_dds(q[tangent], v[tangent], piece[tangent])
                label[tangent] = np.where(dds >= 0.0, int(StratumLabel.TANGENT_CONVEX),
                                          int(StratumLabel.TANGENT_CONCAVE))
        return label

    # -- ray tracing -----------------------------------------------------------

    def first_hit(self, q, v):
        """Vectorized first boundary crossing along unit-speed geodesics."""
        q = np.atleast_2d(q)
        v = np.atleast_2d(v)
        s_lo, s_hi = self.tol.hit_tol, self.l_max
        if isinstance(self.space, FlatTorus):
            best_s, best_piece = self._first_hit_torus(q, v, s_lo, s_hi)
        else:
            for k, piece in enumerate(self.pieces):
                s_k = piece.ray_hit(self.space, q, v, s_lo, s_hi)
                # roots are finite or inf, never NaN; ties go to the lower index
                if k == 0:
                    best_s, best_piece = s_k, np.where(s_k < np.inf, k, -1)
                    continue
                better = s_k < best_s
                best_s = np.where(better, s_k, best_s)
                best_piece = np.where(better, k, best_piece)
        trapped = best_piece < 0
        q_hit, v_hit = self.space.flow(q, v, np.where(trapped, 0.0, best_s))
        _, normal, cos_in = self._boundary_geometry(q_hit, v_hit, best_piece)
        label = self._strata(q_hit, v_hit, best_piece, cos_in)
        return HitBatch(s=best_s, q=q_hit, v=v_hit, piece=best_piece, normal=normal,
                        cos_in=cos_in, label=label, trapped=trapped)

    def _first_hit_torus(self, q, v, s_lo, s_hi):
        """First hits through windows of length min(periods), traced in blocks.

        The first block spans the cell diagonal when its (row, window, ball,
        image) elements stay within _WIDE_FIRST, and is the window [0, window]
        otherwise.  After each block the width doubles, capped so that width x
        active rows stays within _BLOCK_ROWS; while the active rows alone fill
        that budget a block is one window.  Each block is one `window_hit` call
        over every ball, split into row chunks so that rows x windows x balls
        stays within _BLOCK_ROWS too.  Window bounds come from the same
        repeated additions as a one-window loop, and windows are disjoint, so
        the smallest root over a block is the first window's hit, ties to the
        lower piece index.
        """
        window = float(self.space.periods.min())
        rows = None  # the rows still tracing; None while that is every row
        span = int(np.ceil(self._diameter / window))
        wide = q.shape[0] * len(self.pieces) * 2 ** self.space.dim * span <= _WIDE_FIRST
        s0, width = 0.0, span if wide else 1
        while s0 < s_hi:
            edges = [s0]
            while len(edges) <= width and edges[-1] < s_hi:
                edges.append(min(edges[-1] + window, s_hi))
            edges = np.array(edges)
            qa, va = (q, v) if rows is None else (q[rows], v[rows])
            chunk = max(1, _BLOCK_ROWS // ((edges.size - 1) * len(self.pieces)))
            found = [window_hit(qa[i:i + chunk], va[i:i + chunk], edges[:-1], edges[1:], s_lo,
                                self.space, self._centers, self._radii_sq)
                     for i in range(0, max(qa.shape[0], 1), chunk)]
            s, piece = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
            if rows is None:
                best_s, best_piece = s, piece
                rows = (s == np.inf).nonzero()[0]
            else:
                hit = s < np.inf
                best_s[rows[hit]] = s[hit]
                best_piece[rows[hit]] = piece[hit]
                rows = rows[~hit]
            if not rows.size:
                break
            s0 = edges[-1]
            width = max(1, min(2 * width, _BLOCK_ROWS // rows.size))
        return best_s, best_piece

    def with_l_max(self, l_max):
        """Clone with a different length cap (geometry checks skipped)."""
        tol = Tolerances(self.tol.hit_tol, self.tol.grazing_tol, l_max)
        return Table(self.space, self.pieces, tol, name=self.name, check=False)

    def __repr__(self):
        return f"Table({self.name!r}, space={self.space.kind}, pieces={len(self.pieces)})"
