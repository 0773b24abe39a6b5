"""Invariants on mixed piece combinations not covered by the presets."""

import numpy as np
import pytest

from billiardlab.dynamics import Elastic, causality_batch, reflect_batch
from billiardlab.measure import (measure_preservation_test, random_phase_boxes,
                                 boundary_rng, sample_mu_theta)
from billiardlab.spaces import Euclidean
from billiardlab.tables import Ball, RadialFourierCurve, Table


@pytest.fixture(scope="module")
def disk_with_ball():
    return Table(Euclidean(2), [Ball((0.0, 0.0), 1.0, side="outer"),
                                Ball((0.35, 0.1), 0.25, side="obstacle")],
                 name="disk-with-ball")


@pytest.fixture(scope="module")
def ellipse_with_ball():
    return Table(Euclidean(2),
                 [RadialFourierCurve(1.0, cos_coeffs=(0.0, 0.15), side="outer"),
                  Ball((-0.2, 0.0), 0.3, side="obstacle")],
                 name="ellipse-with-ball")


@pytest.fixture(scope="module")
def disk_with_fourier_blob():
    # non-circular obstacle: exercises the marching branch on an obstacle
    blob = RadialFourierCurve(0.3, cos_coeffs=(0.0, 0.05), sin_coeffs=(0.04,),
                              side="obstacle")
    return Table(Euclidean(2), [Ball((0.0, 0.0), 1.0, side="outer"), blob],
                 name="disk-with-blob")


@pytest.mark.parametrize("fixture", ["disk_with_ball", "ellipse_with_ball",
                                     "disk_with_fourier_blob"])
def test_chord_replay_and_reversal(fixture, request):
    table = request.getfixturevalue(fixture)
    s = sample_mu_theta(table, 512, seed=51)
    batch = causality_batch(table, s.q, s.v)
    ok = batch.ok
    assert np.mean(ok) > 0.95
    q2, v2 = table.space.flow(batch.entry_q[ok], batch.entry_v[ok], batch.length[ok])
    assert np.max(table.space.chart_distance(q2, batch.exit_q[ok])) < 1e-8
    back = causality_batch(table, batch.exit_q[ok], -batch.exit_v[ok])
    assert np.max(np.abs(back.length - batch.length[ok])) < 1e-8
    # exits land on the boundary of some piece
    assert np.max(np.abs(table.max_gauge(batch.exit_q[ok]))) < 1e-8


@pytest.mark.parametrize("fixture", ["disk_with_ball", "ellipse_with_ball"])
def test_involution_and_preservation(fixture, request):
    table = request.getfixturevalue(fixture)
    s = sample_mu_theta(table, 4_096, seed=52)
    v1 = reflect_batch(Elastic(), table, s.q, s.v)
    v2 = reflect_batch(Elastic(), table, s.q, v1)
    assert np.max(np.abs(v2 - s.v)) < 1e-12
    rng = boundary_rng(53, 0)
    boxes = random_phase_boxes(table, 6, rng)
    results = measure_preservation_test(table, Elastic(), boxes, 100_000, seed=54)
    assert max(abs(r.z_score) for r in results) < 4.0


def test_obstacle_shadowing(disk_with_ball):
    # a radial chord aimed through the obstacle stops on it
    z_q = np.array([[1.0, 0.0]])
    z_v = np.array([[-1.0, 0.0]])
    batch = causality_batch(disk_with_ball, z_q, z_v)
    assert batch.exit_piece[0] == 1
    # obstacle ball at (0.35, 0.1) r=0.25: the ray y=0 hits its circle
    cx, cy, r = 0.35, 0.1, 0.25
    s_expected = (1.0 - cx) - np.sqrt(r * r - cy * cy)
    assert abs(batch.length[0] - s_expected) < 1e-12


def test_fourier_obstacle_hit_against_dense_scan(disk_with_fourier_blob):
    table = disk_with_fourier_blob
    s = sample_mu_theta(table, 64, seed=55)
    batch = causality_batch(table, s.q, s.v)
    ok = batch.ok & (batch.exit_piece == 1)
    assert np.any(ok)  # some chords end on the blob
    idx = np.flatnonzero(ok)[:4]
    span = np.linspace(1e-9, 1.0, 200_000)
    for i in idx:
        pts, _ = table.space.flow(np.tile(s.q[i], (span.size, 1)),
                                  np.tile(s.v[i], (span.size, 1)), span)
        g = table.max_gauge(pts)
        crossing = np.flatnonzero((g[:-1] <= 0) & (g[1:] > 0))
        oracle = 0.5 * (span[crossing[0]] + span[crossing[0] + 1])
        assert abs(batch.length[i] - oracle) < 1e-4



# blob parameters of near-tangent rays that clip the blob across chords of
# about 1.5e-4, a double crossing that a fixed step of r_min / 256 = 8.2e-4
# steps over
THIN_ALPHAS = np.array([0.4, 1.3, 2.2, 3.1, 4.0, 5.8])


def _thin_rays(table):
    """Rays from the unit circle passing 1e-8 inside the blob at THIN_ALPHAS."""
    space, blob = table.space, table.pieces[1]
    p = blob.point_at_param(space, THIN_ALPHAS)
    n = blob.inward_normal(space, p)  # away from the blob
    t = np.stack([-n[:, 1], n[:, 0]], axis=1)
    c = p - 1e-8 * n
    b = np.sum(c * t, axis=1)
    back = b + np.sqrt(b * b - np.sum(c * c, axis=1) + 1.0)
    return c - back[:, None] * t, t, back


def test_fourier_obstacle_thin_crossing(disk_with_fourier_blob):
    from scipy.optimize import brentq

    table = disk_with_fourier_blob
    space, blob = table.space, table.pieces[1]
    q0, v, back = _thin_rays(table)
    batch = causality_batch(table, q0, v)
    for i in range(THIN_ALPHAS.size):
        def g(s):
            return blob.gauge(space, (q0[i] + s * v[i])[None])[0]
        entry = brentq(g, back[i] - 1e-2, back[i], xtol=1e-16)
        exit_ = brentq(g, back[i], back[i] + 1e-2, xtol=1e-16)
        assert exit_ - entry < 2.5e-4
        assert batch.exit_piece[i] == 1
        # slope at the entry is about 1e-4, so gauge roundoff moves the root ~1e-12
        assert abs(batch.length[i] - entry) < 1e-11


def _march_ray_hit(piece, space, q, v, s_lo, s_hi):
    """Reference solver: fixed steps of r_min / 256 to a sign change, then 48
    bisections.  It misses two crossings that fall inside one step."""
    n = q.shape[0]
    step = piece._r_min / 256.0
    s_hi = np.broadcast_to(np.asarray(s_hi, dtype=float), (n,))
    # every root lies in |x| <= r_max: within 2 r_max of a start on the outer
    # wall, and within |q| + r_max of any start
    reach = 2.0 * piece._r_max if piece.side == "outer" else np.linalg.norm(q, axis=1) + piece._r_max
    cap = np.minimum(s_hi, reach + 4.0 * step + s_lo)
    s_hit = np.full(n, np.inf)
    for i in range(n):
        def g(s):
            return piece.gauge(space, (q[i] + s * v[i])[None])[0]
        s0 = np.arange(s_lo, cap[i] + step, step)
        s0 = np.minimum(s0, cap[i])
        gs = piece.gauge(space, q[i] + s0[:, None] * v[i])
        flips = np.flatnonzero((gs[:-1] <= 0.0) != (gs[1:] <= 0.0))
        if flips.size == 0:
            continue
        lo, hi = s0[flips[0]], s0[flips[0] + 1]
        below = g(lo) <= 0.0
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if (g(mid) <= 0.0) == below:
                lo = mid
            else:
                hi = mid
        s_hit[i] = 0.5 * (lo + hi)
    return np.where((s_hit > s_lo) & (s_hit <= s_hi), s_hit, np.inf)


@pytest.mark.parametrize("fixture", ["ellipse", "disk_with_fourier_blob"])
def test_fourier_hits_match_reference_march(fixture, request, monkeypatch):
    table = request.getfixturevalue(fixture)
    s = sample_mu_theta(table, 2048, seed=56)
    q, v = s.q, s.v
    thin = np.zeros(q.shape[0], dtype=bool)
    if fixture == "disk_with_fourier_blob":
        q0, v0, _ = _thin_rays(table)
        q, v = np.vstack([q, q0]), np.vstack([v, v0])
        thin = np.r_[thin, np.ones(THIN_ALPHAS.size, dtype=bool)]
    new = table.first_hit(q, v)
    monkeypatch.setattr(RadialFourierCurve, "ray_hit", _march_ray_hit)
    ref = table.first_hit(q, v)
    same = (new.piece == ref.piece) & (new.label == ref.label) & (np.abs(new.s - ref.s) <= 1e-12)
    # the only differences are the thin crossings the march stepped over
    # (all but the one at alpha = 5.8, where a march sample fell inside)
    skipped = np.flatnonzero(~same)
    assert np.all(thin[skipped])
    assert skipped.size == (5 if fixture == "disk_with_fourier_blob" else 0)
    assert np.all(new.s[skipped] < ref.s[skipped]) and np.all(new.piece[skipped] == 1)


@pytest.mark.parametrize("fixture", ["ellipse", "disk_with_fourier_blob"])
def test_fourier_chords_match_a_50_digit_root(fixture, request):
    # each transversal exit on a Fourier wall against the root of the exact
    # gauge along the same float line, solved at 50 digits from l +- 1e-9
    import mpmath as mp

    table = request.getfixturevalue(fixture)
    s = sample_mu_theta(table, 400, seed=57)
    batch = causality_batch(table, s.q, s.v)
    fourier = [k for k, p in enumerate(table.pieces) if isinstance(p, RadialFourierCurve)]
    rows = np.flatnonzero(np.isin(batch.exit_piece, fourier) & batch.ok
                          & (np.abs(batch.exit_cos) > 1e-3))
    assert rows.size > 20
    with mp.workdps(50):
        for i in rows:
            wall = table.pieces[batch.exit_piece[i]]
            a, b = wall._coef.T
            q, v = (list(map(mp.mpf, p.tolist())) for p in (batch.entry_q[i], batch.entry_v[i]))

            def gauge(length):
                x, y = q[0] + length * v[0], q[1] + length * v[1]
                t = mp.atan2(y, x)
                waves = (a[k - 1] * mp.cos(k * t) + b[k - 1] * mp.sin(k * t)
                         for k in range(1, a.size + 1))
                return mp.sqrt(x * x + y * y) - wall.base_radius - mp.fsum(waves)

            length = float(batch.length[i])
            exact = mp.findroot(gauge, (length - 1e-9, length + 1e-9))
            assert abs(length - exact) <= 1e-14 * max(1.0, length), (i, length, exact)
