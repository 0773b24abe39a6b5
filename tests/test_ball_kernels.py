"""Ball pieces whose geodesic spheres are computed by their model space.

`_ReferenceBall` is the former `Ball`, which sorted every method by space
type itself; it lives on here only as the reference the space kernels must
reproduce, bit for bit, on eight tables covering all four spaces in n = 2
and n = 3 (off-centre balls included).
"""

import numpy as np
import pytest

from billiardlab.config import table_from_dict
from billiardlab.dynamics import Elastic
from billiardlab.errors import ConfigError
from billiardlab.measure import (boundary_rng, measure_preservation_test, random_phase_boxes,
                                 sample_mu_theta)
from billiardlab.spaces import Euclidean, FlatTorus, HyperbolicBall, Sphere, _dot, _mink_dot
from billiardlab.tables import Ball, Table


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _wrap_delta(space, d):
    half = 0.5 * space.periods
    return np.mod(d + half, space.periods) - half


class _ReferenceBall:
    """The former per-space ladders of `Ball`, copied unchanged."""

    def __init__(self, ball):
        self.center, self.radius, self._sign = ball.center, ball.radius, ball._sign

    def _rho(self, space, q):
        if isinstance(space, FlatTorus):
            return np.linalg.norm(_wrap_delta(space, np.asarray(q) - np.asarray(self.center)),
                                  axis=-1)
        if isinstance(space, Euclidean):
            return np.linalg.norm(np.asarray(q) - np.asarray(self.center), axis=-1)
        return space.distance(q, self.center)

    def gauge(self, space, q):
        return self._sign * (self._rho(space, q) - self.radius)

    def _radial_unit(self, space, q):
        if isinstance(space, FlatTorus):
            d = _wrap_delta(space, q - self.center)
            return d / np.linalg.norm(d, axis=-1, keepdims=True)
        if isinstance(space, Euclidean):
            d = q - self.center
            return d / np.linalg.norm(d, axis=-1, keepdims=True)
        if isinstance(space, HyperbolicBall):
            x = space.to_hyperboloid(q)
            c = space.to_hyperboloid(self.center[None, :])[0]
            dist = np.arccosh(np.maximum(-_mink_dot(x, c), 1.0 + 1e-300))
            sh = np.sinh(np.maximum(dist, 1e-12))[..., None]
            t = (np.cosh(dist)[..., None] * x - c) / sh
            _, vr = space.from_hyperboloid(x, t)
            return space.unit(q, vr)
        c = self.center
        ang = space.distance(q, c)
        sn = np.sin(np.maximum(ang, 1e-12))[..., None]
        t = (np.cos(ang)[..., None] * q - c) / sn
        return t / np.linalg.norm(t, axis=-1, keepdims=True)

    def inward_normal(self, space, q):
        return -self._sign * self._radial_unit(space, q)

    def ray_hit(self, space, q, v, s_lo, s_hi):
        if isinstance(space, Euclidean):
            d = q - self.center
            b = _dot(d, v)
            c = _dot(d, d) - self.radius ** 2
            disc = b * b - c
            ok = disc >= 0.0
            sq = np.sqrt(np.maximum(disc, 0.0))
            return _reference_smallest_root([-b - sq, -b + sq], [ok, ok], s_lo, s_hi)
        if isinstance(space, HyperbolicBall):
            x, u = space.to_hyperboloid(q, v)
            c = space.to_hyperboloid(self.center[None, :])[0]
            a = -_mink_dot(x, c)
            b = -_mink_dot(u, c)
            h = np.cosh(self.radius)
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
            return _reference_smallest_root([r1, r2], [np.isfinite(r1), np.isfinite(r2)],
                                            s_lo, s_hi)
        a = _dot(q, self.center)
        b = _dot(v, self.center)
        r = np.hypot(a, b)
        y = np.cos(self.radius) / np.maximum(r, 1e-300)
        ok = np.abs(y) <= 1.0
        phi = np.arctan2(b, a)
        delta = np.arccos(np.clip(y, -1.0, 1.0))
        two_pi = 2.0 * np.pi
        roots, valid = [], []
        for base in (phi - delta, phi + delta):
            k = np.ceil((s_lo - base) / two_pi)
            roots.append(base + two_pi * k)
            valid.append(ok)
        return _reference_smallest_root(roots, valid, s_lo, min(s_hi, s_lo + two_pi))

    def boundary_volume(self, space):
        r = self.radius
        if isinstance(space, (Euclidean, FlatTorus)):
            return 2.0 * np.pi * r if space.dim == 2 else 4.0 * np.pi * r * r
        if isinstance(space, HyperbolicBall):
            return 2.0 * np.pi * np.sinh(r) if space.dim == 2 else 4.0 * np.pi * np.sinh(r) ** 2
        return 2.0 * np.pi * np.sin(r) if space.dim == 2 else 4.0 * np.pi * np.sin(r) ** 2

    def domain_volume(self, space):
        r = self.radius
        if isinstance(space, (Euclidean, FlatTorus)):
            return np.pi * r * r if space.dim == 2 else 4.0 / 3.0 * np.pi * r ** 3
        if isinstance(space, HyperbolicBall):
            if space.dim == 2:
                return 2.0 * np.pi * (np.cosh(r) - 1.0)
            return np.pi * (np.sinh(2.0 * r) - 2.0 * r)
        if space.dim == 2:
            return 2.0 * np.pi * (1.0 - np.cos(r))
        return 2.0 * np.pi * (r - np.sin(r) * np.cos(r))

    def sample_boundary(self, space, rng, count):
        if isinstance(space, (Euclidean, FlatTorus)):
            if space.dim == 2:
                ang = rng.uniform(0.0, 2.0 * np.pi, count)
                u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            else:
                u = rng.standard_normal((count, 3))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
            pts = self.center + self.radius * u
            return space.wrap(pts) if isinstance(space, FlatTorus) else pts
        if isinstance(space, HyperbolicBall):
            u = rng.standard_normal((count, space.dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            c = np.broadcast_to(self.center, (count, space.dim))
            lam = space.conformal_factor(c)
            qb, _ = space.flow(c, u / lam[:, None], np.full(count, self.radius))
            return qb
        u = rng.standard_normal((count, space.chart_dim))
        u -= _dot(u, np.broadcast_to(self.center, u.shape))[:, None] * self.center
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        c = np.broadcast_to(self.center, u.shape)
        qb, _ = space.flow(c, u, np.full(count, self.radius))
        return qb

    def _pole_frame(self):
        c = self.center
        seed = np.eye(3)[np.argmin(np.abs(c))]
        e1 = seed - np.dot(seed, c) * c
        e1 /= np.linalg.norm(e1)
        return e1, np.cross(c, e1)

    def boundary_param(self, space, q):
        if isinstance(space, FlatTorus):
            d = _wrap_delta(space, q - self.center)
            return np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * np.pi)
        if isinstance(space, (Euclidean, HyperbolicBall)):
            d = q - self.center
            return np.mod(np.arctan2(d[..., 1], d[..., 0]), 2.0 * np.pi)
        e1, e2 = self._pole_frame()
        return np.mod(np.arctan2(_dot(q, e2), _dot(q, e1)), 2.0 * np.pi)

    def point_at_param(self, space, alpha):
        alpha = np.asarray(alpha, dtype=float)
        u = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        if isinstance(space, (Euclidean, FlatTorus)):
            pts = self.center + self.radius * u
            return space.wrap(pts) if isinstance(space, FlatTorus) else pts
        if isinstance(space, HyperbolicBall):
            return np.tanh(self.radius / 2.0) * u
        e1, e2 = self._pole_frame()
        rim = np.cos(alpha)[..., None] * e1 + np.sin(alpha)[..., None] * e2
        return np.cos(self.radius) * self.center + np.sin(self.radius) * rim

    def bounds(self, space):
        return self.center, self.radius


def _reference_smallest_root(roots, valid, s_lo, s_hi):
    best = np.full(roots[0].shape, np.inf)
    for r, ok in zip(roots, valid):
        take = ok & (r > s_lo) & (r <= s_hi) & (r < best)
        best = np.where(take, r, best)
    return best


def _unit(x):
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x)


TABLES = {
    "euclidean-2": (Euclidean(2), [Ball((0.1, -0.2), 1.3), Ball((0.4, 0.3), 0.18, "obstacle")]),
    "euclidean-3": (Euclidean(3), [Ball((0.0, 0.0, 0.1), 1.1),
                                   Ball((0.3, -0.2, 0.1), 0.27, "obstacle")]),
    "torus-2": (FlatTorus((1.0, 1.0)), [Ball((0.25, 0.25), 0.38, "obstacle"),
                                        Ball((0.75, 0.75), 0.18, "obstacle")]),
    "torus-3": (FlatTorus((1.0, 1.2, 0.9)), [Ball((0.3, 0.4, 0.5), 0.23, "obstacle"),
                                             Ball((0.75, 0.9, 0.1), 0.18, "obstacle")]),
    "hyperbolic-2": (HyperbolicBall(2), [Ball((0.0, 0.0), 1.2),
                                         Ball((0.2, 0.1), 0.3, "obstacle")]),
    "hyperbolic-3": (HyperbolicBall(3), [Ball((0.0, 0.0, 0.0), 1.0),
                                         Ball((0.1, 0.05, -0.1), 0.25, "obstacle")]),
    "sphere-2": (Sphere(2), [Ball((0.0, 0.0, 1.0), np.pi / 4.0),
                             Ball(_unit((0.2, 0.1, 1.0)), 0.15, "obstacle")]),
    "sphere-3": (Sphere(3), [Ball((0.0, 0.0, 0.0, 1.0), 0.9),
                             Ball(_unit((0.1, 0.2, 0.0, 1.0)), 0.2, "obstacle")]),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_ball_methods_equal_the_per_space_ladders(name):
    space, pieces = TABLES[name]
    table = Table(space, pieces, name=name)
    s = sample_mu_theta(table, 4096, seed=31)
    alphas = np.linspace(0.0, 2.0 * np.pi, 257)
    for k, ball in enumerate(table.pieces):
        ref = _ReferenceBall(ball)
        for method in ("gauge", "inward_normal"):
            assert np.array_equal(_bits(getattr(ball, method)(space, s.q)),
                                  _bits(getattr(ref, method)(space, s.q))), method
        if not isinstance(space, FlatTorus):
            got = ball.ray_hit(space, s.q, s.v, table.tol.hit_tol, table.l_max)
            want = ref.ray_hit(space, s.q, s.v, table.tol.hit_tol, table.l_max)
            assert np.array_equal(_bits(got), _bits(want))
            assert np.isfinite(got).any()
        for method in ("boundary_volume", "domain_volume"):
            assert _bits(getattr(ball, method)(space)) == _bits(getattr(ref, method)(space)), method
        (c, r), (c_ref, r_ref) = ball.bounds(space), ref.bounds(space)
        assert np.array_equal(_bits(c), _bits(c_ref)) and _bits(r) == _bits(r_ref)
        got = ball.sample_boundary(space, np.random.default_rng(k), 1000)
        want = ref.sample_boundary(space, np.random.default_rng(k), 1000)
        assert np.array_equal(_bits(got), _bits(want))
        if space.dim == 3:
            for call in (lambda: ball.boundary_param(space, got),
                         lambda: ball.point_at_param(space, alphas)):
                with pytest.raises(ConfigError, match="n = 2"):
                    call()
        elif not (isinstance(space, HyperbolicBall) and np.any(ball.center)):
            # the former code had no angle on off-centre hyperbolic balls
            assert np.array_equal(_bits(ball.boundary_param(space, got)),
                                  _bits(ref.boundary_param(space, got)))
            assert np.array_equal(_bits(ball.point_at_param(space, alphas)),
                                  _bits(ref.point_at_param(space, alphas)))


OFF_CENTRE = {"space": "hyperbolic-ball",
              "pieces": [{"shape": "ball", "side": "outer", "center": [0.2, 0.1], "radius": 0.8}]}


def test_off_centre_hyperbolic_angle_round_trips():
    table = table_from_dict(OFF_CENTRE)
    ball, space = table.pieces[0], table.space
    alphas = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    pts = ball.point_at_param(space, alphas)
    assert np.max(np.abs(ball.gauge(space, pts))) < 1e-14
    back = ball.boundary_param(space, pts)
    gap = np.abs(np.mod(back - alphas + np.pi, 2.0 * np.pi) - np.pi)
    assert np.max(gap) < 1e-14


def test_off_centre_hyperbolic_measure_check_passes():
    # `measure-check --samples 65536 --boxes 8 --seed 3`, under acceptance 5's gate
    table = table_from_dict(OFF_CENTRE)
    boxes = random_phase_boxes(table, 8, boundary_rng(3, 7777))
    results = measure_preservation_test(table, Elastic(), boxes, 65536, 3)
    assert max(abs(r.z_score) for r in results) < 4.0
