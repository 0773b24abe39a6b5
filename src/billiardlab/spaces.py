"""Constant-curvature model spaces with closed-form unit-speed geodesics.

Every billiard table lives over one of four model spaces: Euclidean space,
a flat torus, hyperbolic space in the Poincare ball chart (curvature -1),
or the round unit sphere in ambient coordinates (curvature +1).  All
operations accept batches: positions and tangents are arrays of shape
(..., chart_dim), arclengths of shape (...).

Hyperbolic geodesics are computed in the hyperboloid (Minkowski) model and
mapped back to the ball chart, which gives exact flows without integrating
the geodesic equation.

Every space kind (`Euclidean`, `FlatTorus`, `HyperbolicBall`, `Sphere`)
defines or inherits the methods below; `ModelSpace` holds only what they
share (the metric, `tangent`, `wrap`, `delta`, `chart_distance`,
`validate_point`).  `tangent(q, u)` is the part of chart vectors u tangent to
M at q: u itself, except on the sphere.

    flow(q, v, s)                        advance unit-speed geodesics by arclength s: (q', v')
    distance(p, q)                       geodesic distance between chart points
    tangent_frame(q, n)                  (..., dim - 1, chart_dim) g-orthonormal tangents to n
    geodesic_between(qa, qb, t)          points at fractions t of paired segments qa -> qb
    _sphere_normal(q, c)                 g-unit tangent at q pointing away from c
    _sphere_hit(q, v, c, r, s_lo, s_hi)  first arclength in (s_lo, s_hi] on S(c, r), or inf
    _sphere_area(r)                      volume of the sphere S(c, r)
    _sphere_angle(q, c)                  angle of q about c (n = 2 only)
    _sphere_point(c, r, alpha)           point of S(c, r) at angle alpha (n = 2 only)
    _ball_volume(r)                      volume of the ball of radius r
    _unit_tangents(c, rng, count)        random g-unit tangents at c

The private seven compute geodesic spheres S(c, r), the walls of ball pieces,
so a tracer that wraps public methods books their time to the `tables.Ball`
method that calls them (`Ball.ray_hit` per space kind, say), not the space.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousGeodesic

__all__ = ["Euclidean", "FlatTorus", "HyperbolicBall", "Sphere", "ModelSpace"]


def _dot(a, b):
    """Sum of a * b over the last axis, column by column.

    The columns are added in the order np.sum uses on an axis this short, so
    the bits are np.sum's; a short last-axis reduction is several times
    slower than these few whole-array additions.
    """
    p = a * b
    out = p[..., 0]
    for k in range(1, p.shape[-1]):
        out = out + p[..., k]
    return out


def _smallest_root(roots, valid, s_lo, s_hi):
    """Minimum of candidate root arrays within (s_lo, s_hi]; inf if none."""
    best = np.full(roots[0].shape, np.inf)
    for r, ok in zip(roots, valid):
        take = ok & (r > s_lo) & (r <= s_hi) & (r < best)
        best = np.where(take, r, best)
    return best


class ModelSpace:
    """What the four model spaces share; the module docstring lists the rest."""

    kind = "abstract"
    dim = None        # dimension n of the base manifold M
    chart_dim = None  # length of chart coordinate vectors
    ambient = 0       # chart_dim - dim
    diameter = np.inf  # largest distance between two points

    def __init__(self, dim=2):
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim not in (2, 3):
            raise ValueError(f"base dimension must be the integer 2 or 3, not {dim!r}")
        self.dim = dim
        self.chart_dim = dim + self.ambient

    # -- metric and chart differences -------------------------------------

    def metric_dot(self, q, u, w):
        return _dot(u, w)

    def norm(self, q, u):
        return np.sqrt(np.maximum(self.metric_dot(q, u, u), 0.0))

    def unit(self, q, u):
        return u / self.norm(q, u)[..., None]

    def tangent(self, q, u):
        return u

    def wrap(self, q):
        return q

    def delta(self, p, q):
        """Chart difference p - q (the minimal periodic image on a torus)."""
        return np.asarray(p) - np.asarray(q)

    def chart_distance(self, p, q):
        d = self.delta(p, q)
        return np.sqrt(_dot(d, d))

    def validate_point(self, q):
        pass


# ---------------------------------------------------------------------------
# Euclidean space and the flat torus
# ---------------------------------------------------------------------------


def _euclidean_frame(n_hat):
    """Euclidean-orthonormal completion of unit vectors n_hat, shape (N,d)."""
    n_hat = np.atleast_2d(n_hat)
    big_n, d = n_hat.shape
    if d == 2:
        t = np.empty((big_n, 1, 2))
        t[:, 0, 0] = -n_hat[:, 1]
        t[:, 0, 1] = n_hat[:, 0]
        return t
    # d == 3: seed with the coordinate axis least aligned with n
    idx = np.argmin(np.abs(n_hat), axis=1)
    e = np.zeros_like(n_hat)
    e[np.arange(big_n), idx] = 1.0
    t1 = e - _dot(e, n_hat)[:, None] * n_hat
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(n_hat, t1)
    return np.stack([t1, t2], axis=1)


class Euclidean(ModelSpace):
    kind = "euclidean"

    def flow(self, q, v, s):
        s = np.asarray(s, dtype=float)
        out_q = q + s[..., None] * v
        out_v = np.empty_like(out_q)
        out_v[...] = v
        return out_q, out_v

    distance = ModelSpace.chart_distance

    def tangent_frame(self, q, n):
        return _euclidean_frame(n)

    def geodesic_between(self, qa, qb, t):
        t = np.asarray(t, dtype=float)[:, None]
        return (1.0 - t) * np.asarray(qa) + t * np.asarray(qb)

    def _sphere_normal(self, q, c):
        """g-unit tangent at q pointing away from the centre c."""
        d = self.delta(q, c)
        return d / np.sqrt(_dot(d, d))[..., None]

    def _sphere_hit(self, q, v, c, r, s_lo, s_hi):
        """Smallest arclength in (s_lo, s_hi] where the geodesic meets S(c, r); inf if none."""
        d = q - c
        b = _dot(d, v)
        disc = b * b - (_dot(d, d) - r ** 2)
        ok = disc >= 0.0
        sq = np.sqrt(np.maximum(disc, 0.0))
        return _smallest_root([-b - sq, -b + sq], [ok, ok], s_lo, s_hi)

    def _sphere_area(self, r):
        return 2.0 * np.pi * r if self.dim == 2 else 4.0 * np.pi * r * r

    def _ball_volume(self, r):
        return np.pi * r * r if self.dim == 2 else 4.0 / 3.0 * np.pi * r ** 3

    def _unit_tangents(self, c, rng, count):
        if self.dim == 2:
            ang = rng.uniform(0.0, 2.0 * np.pi, count)
            return np.stack([np.cos(ang), np.sin(ang)], axis=1)
        u = rng.standard_normal((count, 3))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    def _sphere_angle(self, q, c):
        d = self.delta(q, c)
        return np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * np.pi)

    def _sphere_point(self, c, r, alpha):
        return self.wrap(c + r * np.stack([np.cos(alpha), np.sin(alpha)], axis=-1))


class FlatTorus(Euclidean):
    kind = "flat-torus"

    def __init__(self, periods):
        periods = np.asarray(periods, dtype=float)
        if periods.ndim != 1 or periods.size not in (2, 3):
            raise ValueError("periods must be a length-2 or length-3 vector")
        if np.any(periods <= 0):
            raise ValueError("periods must be strictly positive")
        super().__init__(dim=periods.size)
        self.periods = periods
        self._half = 0.5 * periods

    def wrap(self, q):
        return np.mod(q, self.periods)

    def delta(self, p, q):
        half = self._half
        return np.mod(np.asarray(p) - np.asarray(q) + half, self.periods) - half

    def flow(self, q, v, s):
        out_q, out_v = super().flow(q, v, s)
        return self.wrap(out_q), out_v

    def geodesic_between(self, qa, qb, t):
        # not unique on a torus; callers reconstruct from direction instead
        raise AmbiguousGeodesic("torus endpoints do not determine a geodesic")

    def _sphere_hit(self, q, v, c, r, s_lo, s_hi):
        raise RuntimeError("torus pieces are traced through window_hit")


# ---------------------------------------------------------------------------
# Hyperbolic space (Poincare ball chart, hyperboloid model internally)
# ---------------------------------------------------------------------------


def _mink_dot(x, y):
    return -x[..., 0] * y[..., 0] + _dot(x[..., 1:], y[..., 1:])


def _mobius_add(a, x):
    """a (+) x in the Poincare ball: the isometry taking 0 to a, applied to x."""
    ax, xx, aa = _dot(a, x)[..., None], _dot(x, x)[..., None], _dot(a, a)
    return ((1.0 + 2.0 * ax + xx) * a + (1.0 - aa) * x) / (1.0 + 2.0 * ax + aa * xx)


class HyperbolicBall(ModelSpace):
    """Poincare ball chart |q| < 1 with metric factor 4 / (1 - |q|^2)^2."""

    kind = "hyperbolic-ball"

    def conformal_factor(self, q):
        return 2.0 / (1.0 - _dot(q, q))

    def metric_dot(self, q, u, w):
        lam = self.conformal_factor(q)
        return lam * lam * _dot(u, w)

    def validate_point(self, q):
        if np.any(_dot(q, q) >= 1.0):
            raise ValueError("Poincare chart point must satisfy |q| < 1")

    # -- hyperboloid model -------------------------------------------------

    def to_hyperboloid(self, q, v=None):
        qq = _dot(q, q)
        d = 1.0 - qq
        x = np.empty(q.shape[:-1] + (self.dim + 1,))
        x[..., 0] = (1.0 + qq) / d
        x[..., 1:] = 2.0 * q / d[..., None]
        if v is None:
            return x
        qv = _dot(q, v)
        u = np.empty_like(x)
        u[..., 0] = 4.0 * qv / (d * d)
        u[..., 1:] = 2.0 * v / d[..., None] + 4.0 * q * (qv / (d * d))[..., None]
        return x, u

    def from_hyperboloid(self, x, u=None):
        w = 1.0 + x[..., 0]
        q = x[..., 1:] / w[..., None]
        if u is None:
            return q
        v = u[..., 1:] / w[..., None] - x[..., 1:] * (u[..., 0] / (w * w))[..., None]
        return q, v

    def flow(self, q, v, s):
        s = np.asarray(s, dtype=float)
        x, u = self.to_hyperboloid(q, v)
        ch, sh = np.cosh(s)[..., None], np.sinh(s)[..., None]
        x2 = ch * x + sh * u
        u2 = sh * x + ch * u
        # re-impose the hyperboloid constraints against roundoff drift
        x2 = x2 / np.sqrt(np.maximum(-_mink_dot(x2, x2), 1e-300))[..., None]
        u2 = u2 + _mink_dot(x2, u2)[..., None] * x2
        u2 = u2 / np.sqrt(np.maximum(_mink_dot(u2, u2), 1e-300))[..., None]
        return self.from_hyperboloid(x2, u2)

    def distance(self, p, q):
        p, q = np.asarray(p), np.asarray(q)
        num = 2.0 * np.sum((p - q) ** 2, axis=-1)
        den = (1.0 - _dot(p, p)) * (1.0 - _dot(q, q))
        return np.arccosh(np.maximum(1.0 + num / den, 1.0))

    def tangent_frame(self, q, n):
        # conformal metric: Euclidean-orthogonal directions stay g-orthogonal
        lam = self.conformal_factor(np.atleast_2d(q))
        n_hat = np.atleast_2d(n) * lam[:, None]
        return _euclidean_frame(n_hat) / lam[:, None, None]

    def geodesic_between(self, qa, qb, t):
        xa = self.to_hyperboloid(np.asarray(qa, dtype=float))
        xb = self.to_hyperboloid(np.asarray(qb, dtype=float))
        d = np.arccosh(np.maximum(-_mink_dot(xa, xb), 1.0))[:, None]
        t = np.asarray(t, dtype=float)[:, None]
        with np.errstate(invalid="ignore"):  # 0 / 0 on rows of coincident endpoints
            pts = (np.sinh((1.0 - t) * d) * xa + np.sinh(t * d) * xb) / np.sinh(d)
        return self.from_hyperboloid(np.where(d < 1e-12, xa, pts))

    def _sphere_normal(self, q, c):
        x = self.to_hyperboloid(q)
        xc = self.to_hyperboloid(c[None, :])[0]
        dist = np.arccosh(np.maximum(-_mink_dot(x, xc), 1.0 + 1e-300))
        sh = np.sinh(np.maximum(dist, 1e-12))[..., None]
        t = (np.cosh(dist)[..., None] * x - xc) / sh
        _, vr = self.from_hyperboloid(x, t)
        return self.unit(q, vr)

    def _sphere_hit(self, q, v, c, r, s_lo, s_hi):
        x, u = self.to_hyperboloid(q, v)
        xc = self.to_hyperboloid(c[None, :])[0]
        a = -_mink_dot(x, xc)
        b = -_mink_dot(u, xc)
        h = np.cosh(r)
        aa, bb = a + b, a - b
        disc = h * h - aa * bb
        ok = disc >= 0.0
        sq = np.sqrt(np.maximum(disc, 0.0))
        small = np.abs(aa) < 1e-14
        denom = np.where(small, 1.0, aa)
        t1 = np.where(small, bb / (2.0 * h), (h - sq) / denom)
        t2 = np.where(small, np.inf, (h + sq) / denom)
        with np.errstate(invalid="ignore", divide="ignore"):
            r1 = np.where(ok & (t1 > 0), np.log(np.maximum(t1, 1e-300)), np.inf)
            r2 = np.where(ok & (t2 > 0), np.log(np.maximum(t2, 1e-300)), np.inf)
        return _smallest_root([r1, r2], [np.isfinite(r1), np.isfinite(r2)], s_lo, s_hi)

    def _sphere_area(self, r):
        return 2.0 * np.pi * np.sinh(r) if self.dim == 2 else 4.0 * np.pi * np.sinh(r) ** 2

    def _ball_volume(self, r):
        if self.dim == 2:
            return 2.0 * np.pi * (np.cosh(r) - 1.0)
        return np.pi * (np.sinh(2.0 * r) - 2.0 * r)

    def _unit_tangents(self, c, rng, count):
        u = rng.standard_normal((count, self.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return u / self.conformal_factor(c)

    def _sphere_angle(self, q, c):
        d = _mobius_add(-c, q)  # S(c, r) moved to the centred sphere
        return np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * np.pi)

    def _sphere_point(self, c, r, alpha):
        return _mobius_add(c, np.tanh(r / 2.0) * np.stack([np.cos(alpha), np.sin(alpha)], axis=-1))


# ---------------------------------------------------------------------------
# Round sphere (ambient embedding)
# ---------------------------------------------------------------------------


class Sphere(ModelSpace):
    """Unit sphere S^n embedded in R^(n+1); chart = ambient coordinates."""

    kind = "sphere"
    diameter = np.pi
    ambient = 1

    def validate_point(self, q):
        if np.any(np.abs(_dot(q, q) - 1.0) > 1e-9):
            raise ValueError("sphere chart point must satisfy |q| = 1")

    def wrap(self, q):
        return q / np.sqrt(_dot(q, q))[..., None]

    def flow(self, q, v, s):
        s = np.asarray(s, dtype=float)
        cs, sn = np.cos(s)[..., None], np.sin(s)[..., None]
        q2 = cs * q + sn * v
        v2 = -sn * q + cs * v
        q2 = q2 / np.sqrt(_dot(q2, q2))[..., None]
        v2 = v2 - _dot(v2, q2)[..., None] * q2
        v2 = v2 / np.sqrt(_dot(v2, v2))[..., None]
        return q2, v2

    def distance(self, p, q):
        return np.arccos(np.clip(_dot(np.asarray(p), np.asarray(q)), -1.0, 1.0))

    def tangent(self, q, u):
        return u - _dot(u, q)[..., None] * q

    def tangent_frame(self, q, n):
        q2, n2 = np.atleast_2d(q), np.atleast_2d(n)
        if self.dim == 2:
            return np.cross(q2, n2)[:, None, :]
        # S^3: orthonormal complement of {q, n} via batched QR
        big_n = q2.shape[0]
        a = np.zeros((big_n, 4, 6))
        a[:, :, 0] = q2
        a[:, :, 1] = n2
        a[:, :, 2:] = np.eye(4)[None, :, :]
        qf, _ = np.linalg.qr(a)
        return np.transpose(qf[:, :, 2:4], (0, 2, 1))

    def geodesic_between(self, qa, qb, t):
        qa = np.asarray(qa, dtype=float)
        qb = np.asarray(qb, dtype=float)
        ang = self.distance(qa, qb)[:, None]
        if (ang > self.diameter - 1e-8).any():
            raise AmbiguousGeodesic("antipodal endpoints on the sphere")
        t = np.asarray(t, dtype=float)[:, None]
        with np.errstate(invalid="ignore"):  # 0 / 0 on rows of coincident endpoints
            pts = (np.sin((1.0 - t) * ang) * qa + np.sin(t * ang) * qb) / np.sin(ang)
            pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        return np.where(ang < 1e-12, qa, pts)

    def _sphere_normal(self, q, c):
        ang = self.distance(q, c)
        sn = np.sin(np.maximum(ang, 1e-12))[..., None]
        t = (np.cos(ang)[..., None] * q - c) / sn
        return t / np.sqrt(_dot(t, t))[..., None]

    def _sphere_hit(self, q, v, c, r, s_lo, s_hi):
        a = _dot(q, c)
        b = _dot(v, c)
        y = np.cos(r) / np.maximum(np.hypot(a, b), 1e-300)
        ok = np.abs(y) <= 1.0
        phi = np.arctan2(b, a)
        delta = np.arccos(np.clip(y, -1.0, 1.0))
        two_pi = 2.0 * np.pi
        roots = [base + two_pi * np.ceil((s_lo - base) / two_pi)
                 for base in (phi - delta, phi + delta)]
        return _smallest_root(roots, [ok, ok], s_lo, min(s_hi, s_lo + two_pi))

    def _sphere_area(self, r):
        return 2.0 * np.pi * np.sin(r) if self.dim == 2 else 4.0 * np.pi * np.sin(r) ** 2

    def _ball_volume(self, r):
        if self.dim == 2:
            return 2.0 * np.pi * (1.0 - np.cos(r))
        return 2.0 * np.pi * (r - np.sin(r) * np.cos(r))

    def _unit_tangents(self, c, rng, count):
        u = self.tangent(c, rng.standard_normal((count, self.chart_dim)))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    def _pole_frame(self, c):
        """Orthonormal e1, e2 spanning the tangent plane at the pole c (n = 2)."""
        seed = np.eye(3)[np.argmin(np.abs(c))]
        e1 = seed - np.dot(seed, c) * c
        e1 /= np.linalg.norm(e1)
        return e1, np.cross(c, e1)

    def _sphere_angle(self, q, c):
        e1, e2 = self._pole_frame(c)
        return np.mod(np.arctan2(_dot(q, e2), _dot(q, e1)), 2.0 * np.pi)

    def _sphere_point(self, c, r, alpha):
        e1, e2 = self._pole_frame(c)
        rim = np.cos(alpha)[..., None] * e1 + np.sin(alpha)[..., None] * e2
        return np.cos(r) * c + np.sin(r) * rim
