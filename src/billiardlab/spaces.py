"""Constant-curvature model spaces with closed-form unit-speed geodesics.

Every billiard table lives over one of four model spaces: Euclidean space,
a flat torus, hyperbolic space in the Poincare ball chart (curvature -1),
or the round unit sphere in ambient coordinates (curvature +1).  All
operations accept batches: positions and tangents are arrays of shape
(..., chart_dim), arclengths of shape (...).

Hyperbolic geodesics are computed in the hyperboloid (Minkowski) model and
mapped back to the ball chart, which gives exact flows without integrating
the geodesic equation.
"""

from __future__ import annotations

import numpy as np

from .errors import AmbiguousGeodesic

__all__ = ["Euclidean", "FlatTorus", "HyperbolicBall", "Sphere", "ModelSpace", "PhasePoint"]


def _dot(a, b):
    return (a * b).sum(axis=-1)


class PhasePoint:
    """A unit tangent element z = (q, v) of SM in chart coordinates."""

    __slots__ = ("q", "v")

    def __init__(self, q, v):
        self.q = np.asarray(q, dtype=float)
        self.v = np.asarray(v, dtype=float)

    def __repr__(self):
        return f"PhasePoint(q={self.q.tolist()}, v={self.v.tolist()})"

    def reversed(self):
        return PhasePoint(self.q, -self.v)


class ModelSpace:
    """Common interface of the four model spaces."""

    kind = "abstract"
    dim = None        # dimension n of the base manifold M
    chart_dim = None  # length of chart coordinate vectors

    # -- metric ----------------------------------------------------------

    def metric_dot(self, q, u, w):
        raise NotImplementedError

    def norm(self, q, u):
        return np.sqrt(np.maximum(self.metric_dot(q, u, u), 0.0))

    def unit(self, q, u):
        return u / self.norm(q, u)[..., None]

    # -- flow ------------------------------------------------------------

    def flow(self, q, v, s):
        """Advance unit-speed geodesics by arclength s: returns (q', v')."""
        raise NotImplementedError

    def wrap(self, q):
        return q

    # -- distances ---------------------------------------------------------

    def distance(self, p, q):
        """Geodesic distance between chart points."""
        raise NotImplementedError

    def chart_distance(self, p, q):
        return np.linalg.norm(np.asarray(p) - np.asarray(q), axis=-1)

    # -- frames and segments ----------------------------------------------

    def tangent_frame(self, q, n):
        """g-orthonormal tangent vectors completing the g-unit vector n.

        Returns an array of shape (..., dim-1, chart_dim) spanning the
        g-orthogonal complement of n inside the tangent space at q.
        """
        raise NotImplementedError

    def geodesic_between(self, qa, qb, count):
        """Sample the geodesic segment qa -> qb at `count` points (single pair)."""
        raise NotImplementedError

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
        t = np.stack([-n_hat[:, 1], n_hat[:, 0]], axis=1)
        return t[:, None, :]
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

    def __init__(self, dim=2):
        if dim not in (2, 3):
            raise ValueError("base dimension must be 2 or 3")
        self.dim = dim
        self.chart_dim = dim

    def metric_dot(self, q, u, w):
        return _dot(u, w)

    def flow(self, q, v, s):
        s = np.asarray(s, dtype=float)
        out_q = q + s[..., None] * v
        return out_q, np.broadcast_to(v, out_q.shape).copy()

    def distance(self, p, q):
        return np.linalg.norm(np.asarray(p) - np.asarray(q), axis=-1)

    def tangent_frame(self, q, n):
        return _euclidean_frame(n)

    def geodesic_between(self, qa, qb, count):
        t = np.linspace(0.0, 1.0, count)[:, None]
        return (1.0 - t) * np.asarray(qa)[None, :] + t * np.asarray(qb)[None, :]


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

    def wrap(self, q):
        return np.mod(q, self.periods)

    def wrap_delta(self, delta):
        """Reduce displacement vectors to the minimal periodic image."""
        half = 0.5 * self.periods
        return np.mod(delta + half, self.periods) - half

    def flow(self, q, v, s):
        out_q, out_v = super().flow(q, v, s)
        return self.wrap(out_q), out_v

    def distance(self, p, q):
        return np.linalg.norm(self.wrap_delta(np.asarray(p) - np.asarray(q)), axis=-1)

    chart_distance = distance

    def geodesic_between(self, qa, qb, count):
        # not unique on a torus; callers reconstruct from direction instead
        raise AmbiguousGeodesic("torus endpoints do not determine a geodesic")


# ---------------------------------------------------------------------------
# Hyperbolic space (Poincare ball chart, hyperboloid model internally)
# ---------------------------------------------------------------------------


def _mink_dot(x, y):
    return -x[..., 0] * y[..., 0] + np.sum(x[..., 1:] * y[..., 1:], axis=-1)


class HyperbolicBall(ModelSpace):
    """Poincare ball chart |q| < 1 with metric factor 4 / (1 - |q|^2)^2."""

    kind = "hyperbolic-ball"

    def __init__(self, dim=2):
        if dim not in (2, 3):
            raise ValueError("base dimension must be 2 or 3")
        self.dim = dim
        self.chart_dim = dim

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

    def geodesic_between(self, qa, qb, count):
        xa = self.to_hyperboloid(np.asarray(qa, dtype=float))
        xb = self.to_hyperboloid(np.asarray(qb, dtype=float))
        d = np.arccosh(max(-float(_mink_dot(xa, xb)), 1.0))
        t = np.linspace(0.0, 1.0, count)
        if d < 1e-12:
            pts = np.repeat(xa[None, :], count, axis=0)
        else:
            pts = (np.sinh((1.0 - t) * d)[:, None] * xa[None, :]
                   + np.sinh(t * d)[:, None] * xb[None, :]) / np.sinh(d)
        return self.from_hyperboloid(pts)


# ---------------------------------------------------------------------------
# Round sphere (ambient embedding)
# ---------------------------------------------------------------------------


class Sphere(ModelSpace):
    """Unit sphere S^n embedded in R^(n+1); chart = ambient coordinates."""

    kind = "sphere"

    def __init__(self, dim=2):
        if dim not in (2, 3):
            raise ValueError("base dimension must be 2 or 3")
        self.dim = dim
        self.chart_dim = dim + 1

    def metric_dot(self, q, u, w):
        return _dot(u, w)

    def validate_point(self, q):
        if np.any(np.abs(_dot(q, q) - 1.0) > 1e-9):
            raise ValueError("sphere chart point must satisfy |q| = 1")

    def flow(self, q, v, s):
        s = np.asarray(s, dtype=float)
        cs, sn = np.cos(s)[..., None], np.sin(s)[..., None]
        q2 = cs * q + sn * v
        v2 = -sn * q + cs * v
        q2 = q2 / np.linalg.norm(q2, axis=-1, keepdims=True)
        v2 = v2 - _dot(v2, q2)[..., None] * q2
        v2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
        return q2, v2

    def distance(self, p, q):
        return np.arccos(np.clip(_dot(np.asarray(p), np.asarray(q)), -1.0, 1.0))

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

    def geodesic_between(self, qa, qb, count):
        qa = np.asarray(qa, dtype=float)
        qb = np.asarray(qb, dtype=float)
        ang = float(self.distance(qa, qb))
        if ang > np.pi - 1e-8:
            raise AmbiguousGeodesic("antipodal endpoints on the sphere")
        t = np.linspace(0.0, 1.0, count)
        if ang < 1e-12:
            return np.repeat(qa[None, :], count, axis=0)
        pts = (np.sin((1.0 - t) * ang)[:, None] * qa[None, :]
               + np.sin(t * ang)[:, None] * qb[None, :]) / np.sin(ang)
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def geodesic_flow(space, z, s):
    """Time-s point of the unit-speed geodesic through a single phase point."""
    q, v = space.flow(z.q[None, :], z.v[None, :], np.asarray([s], dtype=float))
    return PhasePoint(q[0], v[0])
