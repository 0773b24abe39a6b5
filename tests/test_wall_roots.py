"""A ball piece reports one root: where the geodesic crosses out of the domain.

An outer wall's hit is where the geodesic leaves its ball, an obstacle's where
it enters its ball, so a start a hair on the wrong side of its own wall gets
the far hit, never a chord of about hit_tol / cos.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from billiardlab import presets
from billiardlab.dynamics import Elastic, lockstep_orbits
from billiardlab.measure import sample_mu_theta
from billiardlab.spaces import Euclidean, FlatTorus, HyperbolicBall, Sphere
from billiardlab.tables import Ball, StratumLabel, Table


@pytest.mark.parametrize("seed", [1, 7])
def test_long_torus_orbits_keep_bouncing(seed):
    # a long chord can land a hair inside its obstacle; the next chord used to
    # take that obstacle's exit root, about 1e-10 on, as its hit and stop the
    # run with DegenerateStart (at bounce 186 from seed 1, 151 from seed 7)
    table = presets.preset_table("torus-one-ball")
    s = sample_mu_theta(table, 128, seed)
    steps = [step for step, *_ in lockstep_orbits(table, Elastic(), s.q, s.v, 300)]
    assert steps[-1] == 300


# -- long torus flights land on the wall --------------------------------------

LONG_FLIGHTS = {
    "eps-torus": lambda: presets.torus_one_ball(0.1),
    "torus3-two-balls": lambda: Table(FlatTorus((1.0, 1.0, 1.0)), [
        Ball((0.25, 0.25, 0.25), 0.2, side="obstacle"),
        Ball((0.75, 0.75, 0.75), 0.15, side="obstacle")]),
}


@pytest.mark.parametrize("name, rows, seed",
                         [("eps-torus", rows, seed) for rows in (10, 128) for seed in range(1, 11)]
                         + [("torus3-two-balls", 128, seed) for seed in (2, 4)])
def test_long_torus_flights_land_on_the_wall(name, rows, seed):
    # chords of hundreds of periods used to end 1e-10 to 3e-9 off the wall, and
    # the next step raised NotOnBoundary (bounce 200 from 10 rows of seed 1)
    table = LONG_FLIGHTS[name]()
    s = sample_mu_theta(table, rows, seed)
    steps = 0
    for steps, _, batch, _ in lockstep_orbits(table, Elastic(), s.q, s.v, 400):
        hit = ~batch.trapped
        gauge = table.piece_gauge(batch.exit_q[hit], batch.exit_piece[hit])
        assert np.all(np.abs(gauge) <= 1e-12), (steps, np.max(np.abs(gauge)))
    assert steps == 400


@pytest.mark.parametrize("radius", [0.25, 0.1])
def test_torus_chords_match_a_50_digit_root(radius):
    # the 200 longest of 20000 chords against the entry root of
    # |q + s v - C|^2 = r^2 at 50 digits, from the float q and v (with v's own
    # norm) and the image C nearest the hit
    import mpmath as mp

    table = presets.torus_one_ball(radius)
    s = sample_mu_theta(table, 20000, 9)
    hit = table.first_hit(s.q, s.v)
    rows = np.argsort(np.where(hit.trapped, -1.0, hit.s))[-200:]
    assert not hit.trapped[rows].any() and hit.s[rows].max() > 70.0
    periods = table.space.periods
    with mp.workdps(50):
        for i in rows:
            ball, length = table.pieces[hit.piece[i]], float(hit.s[i])
            end = s.q[i] + length * s.v[i]
            image = ball.center + np.round((end - ball.center) / periods) * periods
            d = [mp.mpf(float(x)) - mp.mpf(float(c)) for x, c in zip(s.q[i], image)]
            v = [mp.mpf(float(x)) for x in s.v[i]]
            a = mp.fsum(x * x for x in v)
            b = mp.fsum(x * y for x, y in zip(d, v))
            c = mp.fsum(x * x for x in d) - mp.mpf(ball.radius) ** 2
            exact = (-b - mp.sqrt(b * b - a * c)) / a
            assert abs(length - exact) <= 1e-14 * max(1.0, length), (i, length, exact)


# each table and the piece whose wall the start sits across
OFF_WALL = {
    "disk": (presets.disk, 0),
    "cap-pi4": (lambda: presets.preset_table("cap-pi4"), 0),
    "hyperbolic-disk-1": (lambda: presets.preset_table("hyperbolic-disk-1"), 0),
    "disk-with-obstacle": (lambda: Table(Euclidean(2), [
        Ball((0.0, 0.0), 1.0), Ball((0.3, 0.1), 0.2, side="obstacle")]), 1),
    "torus-two-balls": (lambda: presets.preset_table("torus-two-balls"), 1),
}


def _start_off_wall(table, k, offset, cos_in, alpha=0.7):
    """A start `offset` outside the domain across piece k's wall, with incidence
    cosine `cos_in` to the piece's inward normal there."""
    space, piece = table.space, table.pieces[k]
    p = piece.point_at_param(space, np.array([alpha]))
    q, _ = space.flow(p, -piece.inward_normal(space, p), np.array([offset]))
    n = piece.inward_normal(space, q)
    t = space.tangent_frame(q, n)[:, 0]
    return q, cos_in * n + np.sqrt(1.0 - cos_in * cos_in) * t


@pytest.mark.parametrize("name", sorted(OFF_WALL))
# at incidence cosine 0.1, 1e-11 off the wall puts the wall's other root at
# about hit_tol; 3e-11 puts it clearly past
@pytest.mark.parametrize("offset", [1e-11, 3e-11])
def test_a_start_off_its_own_wall_gets_the_far_hit(name, offset):
    make, k = OFF_WALL[name]
    table = make()
    q, v = _start_off_wall(table, k, offset, 0.1)
    assert table.pieces[k].gauge(table.space, q)[0] > 0.5 * offset
    hit = table.first_hit(q, v)
    assert hit.s[0] > 0.01 and hit.label[0] == int(StratumLabel.TRANSVERSAL_OUT)
    if table.pieces[k] is table.outer:
        # a ball's chord leaves at the cosine it entered with
        assert hit.piece[0] == k and abs(hit.cos_in[0] + 0.1) < 1e-6


# -- property: Ball.ray_hit is the first outward sign change of the gauge -----

_S_LO = 1e-10
_STEP = 0.002       # scan step; a chord that crosses at |cos| >= _TANGENT is longer
_TANGENT = 0.05     # crossings at a smaller |incidence cosine| are left out
_REACH = {"euclidean": 8.0, "hyperbolic-ball": 5.0, "sphere": 7.0}  # 7 > 2 pi


def _free_points(space, ball, rng, count):
    """Points at distances uniform in (0, 2 r) from the centre, inside and outside."""
    u = space._unit_tangents(ball.center, rng, count)
    c = np.broadcast_to(ball.center, u.shape)
    return space.flow(c, u, rng.uniform(0.0, 2.0 * ball.radius, count))[0]


def _scanned_exit(space, ball, q, v, s_hi):
    """First s in (s_lo, s_hi] where the gauge along the flow turns from <= 0 to
    > 0: a dense scan brackets it, bisection pins it down; inf if none."""
    n = q.shape[0]
    grid = np.linspace(_S_LO, s_hi, int(np.ceil((s_hi - _S_LO) / _STEP)) + 1)
    x, _ = space.flow(np.repeat(q, grid.size, axis=0), np.repeat(v, grid.size, axis=0),
                      np.tile(grid, n))
    g = ball.gauge(space, x).reshape(n, grid.size)
    turn = (g[:, :-1] <= 0.0) & (g[:, 1:] > 0.0)
    k = turn.argmax(axis=1)
    lo, hi = grid[k], grid[k + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = ball.gauge(space, space.flow(q, v, mid)[0]) <= 0.0
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return np.where(turn.any(axis=1), hi, np.inf)


def _cosine_at(space, ball, q, v, s):
    """|Incidence cosine| where the geodesic is at arclength s; 1 where s is inf."""
    x, w = space.flow(q, v, np.where(np.isfinite(s), s, 0.0))
    cos = np.abs(space.metric_dot(x, w, ball.inward_normal(space, x)))
    return np.where(np.isfinite(s), cos, 1.0)


@st.composite
def _balls(draw, space):
    if isinstance(space, Sphere):
        c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=space.chart_dim,
                                   max_size=space.chart_dim)))
        c = c / np.linalg.norm(c) if np.linalg.norm(c) > 0.1 else np.eye(space.chart_dim)[-1]
        return c, draw(st.floats(0.2, np.pi - 0.2))
    span = 0.5 if isinstance(space, HyperbolicBall) else 1.0
    c = np.array(draw(st.lists(st.floats(-span, span), min_size=space.dim, max_size=space.dim)))
    c *= min(1.0, span / max(np.linalg.norm(c), 1e-300))
    return c, draw(st.floats(0.2, 1.5))


@pytest.mark.parametrize("side", ["outer", "obstacle"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("space_kind", [Euclidean, HyperbolicBall, Sphere], ids=lambda k: k.kind)
@settings(max_examples=3)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_a_ball_hit_is_the_first_crossing_out_of_the_domain(space_kind, dim, side, data, seed):
    space = space_kind(dim)
    center, radius = data.draw(_balls(space))
    ball = Ball(center, radius, side=side)
    rng = np.random.default_rng(seed)
    # on the wall, 1e-11 to either side of it, and free starts aimed near the centre
    wall = ball.sample_boundary(space, rng, 8)
    away = space._sphere_normal(wall, ball.center)
    free = _free_points(space, ball, rng, 8)
    q = np.concatenate([wall, space.flow(wall, away, np.full(8, 1e-11))[0],
                        space.flow(wall, away, np.full(8, -1e-11))[0], free])
    v = space.unit(q, space.tangent(q, rng.standard_normal(q.shape)))
    aim = 0.6 * v[24:] - space._sphere_normal(free, ball.center)
    v[24:] = space.unit(free, space.tangent(free, aim))
    s_hi = _REACH[space.kind]
    got = ball.ray_hit(space, q, v, _S_LO, s_hi)
    want = _scanned_exit(space, ball, q, v, s_hi)
    tangent = ((_cosine_at(space, ball, q, v, got) < _TANGENT)
               | (_cosine_at(space, ball, q, v, want) < _TANGENT))
    assert np.count_nonzero(tangent) <= q.shape[0] // 4
    keep = ~tangent
    assert np.array_equal(np.isinf(got[keep]), np.isinf(want[keep]))
    finite = keep & np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-9)
