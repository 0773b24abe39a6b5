"""Block-traced torus hits against the one-window loop they replace."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from billiardlab import presets, tables
from billiardlab.dynamics import Elastic, lockstep_orbits
from billiardlab.errors import ConfigError
from billiardlab.holography import boundary_param_map
from billiardlab.measure import phase_coordinates, sample_mu_theta
from billiardlab.spaces import Euclidean, FlatTorus
from billiardlab.tables import Ball, Table, Tolerances

_STENCILS = {d: np.array(list(np.ndindex(*([3] * d))), dtype=float) - 1.0 for d in (2, 3)}


def _reference_window_hit(ball, space, q, v, s0, s1, s_lo):
    """Smallest entry root t + (-b - sq) in (max(s0, s_lo), s1] over the 3^d
    images around the window, with b and sq from its midpoint q + t v."""
    periods = space.periods
    t = 0.5 * (s0 + s1)
    mid = q + t * v
    base = np.round((mid - ball.center) / periods)
    offs = _STENCILS[space.dim]
    c_img = ball.center + (base[None, :, :] + offs[:, None, :]) * periods  # (K, N, d)
    d = mid[None, :, :] - c_img
    b = np.sum(d * v[None, :, :], axis=-1)
    c = np.sum(d * d, axis=-1) - ball.radius ** 2
    disc = b * b - c
    root = t + (-b - np.sqrt(np.maximum(disc, 0.0)))
    root = np.where((disc >= 0.0) & (root > max(s0, s_lo)) & (root <= s1), root, np.inf)
    return np.min(root, axis=0)


def reference_first_hit(table, q, v):
    """First hits traced one period-length window per pass."""
    n = q.shape[0]
    s_lo, s_hi = table.tol.hit_tol, table.l_max
    window = float(np.min(table.space.periods))
    best_s = np.full(n, np.inf)
    best_piece = np.full(n, -1)
    idx = np.arange(n)
    active = np.ones(n, dtype=bool)
    s0 = 0.0
    while np.any(active) and s0 < s_hi:
        s1 = min(s0 + window, s_hi)
        ai = idx[active]
        local_best = np.full(ai.size, np.inf)
        local_piece = np.full(ai.size, -1)
        for k, piece in enumerate(table.pieces):
            s_k = _reference_window_hit(piece, table.space, q[ai], v[ai], s0, s1, s_lo)
            better = s_k < local_best
            local_best = np.where(better, s_k, local_best)
            local_piece = np.where(better, k, local_piece)
        hit = np.isfinite(local_best)
        best_s[ai[hit]] = local_best[hit]
        best_piece[ai[hit]] = local_piece[hit]
        active[ai[hit]] = False
        s0 = s1
    return best_s, best_piece


def _assert_same_hits(table, q, v):
    hit = table.first_hit(q, v)
    s_ref, piece_ref = reference_first_hit(table, q, v)
    assert np.array_equal(hit.s.view(np.int64), s_ref.view(np.int64))
    assert np.array_equal(hit.piece, piece_ref)
    return hit


def _grazing_starts(table, rng, count):
    """Starts on obstacle walls whose incidence cosine is 1e-12 to 1e-3."""
    space = table.space
    k = rng.integers(len(table.pieces), size=count)
    u = rng.standard_normal((count, space.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    t = rng.standard_normal((count, space.dim))
    t -= np.sum(t * u, axis=1, keepdims=True) * u
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    centers = np.array([p.center for p in table.pieces])[k]
    radii = np.array([p.radius for p in table.pieces])[k]
    q = space.wrap(centers + radii[:, None] * u)
    cos_in = 10.0 ** rng.uniform(-12.0, -3.0, count)
    v = cos_in[:, None] * u + np.sqrt(1.0 - cos_in * cos_in)[:, None] * t
    return q, v


@st.composite
def torus_tables(draw, dims=(2, 3)):
    dim = draw(st.sampled_from(dims))
    periods = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim)))
    count = draw(st.integers(1, 3))
    balls = []
    for _ in range(count):
        frac = draw(st.lists(st.floats(0.0, 0.999), min_size=dim, max_size=dim))
        radius = draw(st.floats(0.02, 0.45 / count)) * float(np.min(periods))
        balls.append(Ball(np.array(frac) * periods, radius, side="obstacle"))
    # a short cap keeps the one-window reference affordable on trapped rays
    tol = Tolerances(l_max=200.0 * float(np.min(periods)))
    try:
        return Table(FlatTorus(periods), balls, tol, name="random-torus")
    except ConfigError:
        assume(False)


def _mixed_starts(table, seed):
    """Measure samples, grazing starts and free starts anywhere in the torus."""
    rng = np.random.default_rng(seed)
    s = sample_mu_theta(table, 48, seed)
    qg, vg = _grazing_starts(table, rng, 32)
    # anywhere in the torus, inside obstacles too, which a ray leaves without a hit
    qa = rng.uniform(0.0, 1.0, (32, table.space.dim)) * table.space.periods
    va = rng.standard_normal((32, table.space.dim))
    va /= np.linalg.norm(va, axis=1, keepdims=True)
    return np.concatenate([s.q, qg, qa]), np.concatenate([s.v, vg, va])


@settings(max_examples=40)
@given(table=torus_tables(), seed=st.integers(0, 2**16))
def test_block_hits_match_one_window_loop(table, seed):
    _assert_same_hits(table, *_mixed_starts(table, seed))


def test_block_hits_match_one_window_loop_on_a_grazing_example():
    # squaring this radius as an array (a multiply) and as a Python float
    # (libm pow) differs in the last bit, which moves grazing roots
    periods = np.array([2.0, 1.1])
    ball = Ball(np.zeros(2), 0.07482043088499854, side="obstacle")
    table = Table(FlatTorus(periods), [ball], Tolerances(l_max=200.0 * 1.1), name="grazing")
    _assert_same_hits(table, *_mixed_starts(table, 0))


@pytest.mark.parametrize("space, outer", [
    (FlatTorus([1.0, 1.0]), []),
    (Euclidean(2), [Ball([0.0, 0.0], 1.0)]),
])
def test_coincident_pieces_tie_to_the_lower_index(space, outer):
    balls = [Ball([0.5, 0.5], 0.2, side="obstacle"), Ball([0.5, 0.5], 0.2, side="obstacle")]
    table = Table(space, balls + outer, name="coincident", check=False)
    q = np.array([[0.05, 0.5], [0.5, 0.05]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    hit = table.first_hit(q, v)
    assert np.allclose(hit.s, 0.25, atol=1e-12)
    assert hit.piece.tolist() == [0, 0]


@pytest.mark.parametrize("name", ["torus-eps-0.1", "torus-one-ball", "torus-two-balls"])
def test_block_hits_match_one_window_loop_on_presets(name):
    table = (presets.torus_one_ball(0.1) if name == "torus-eps-0.1"
             else presets.preset_table(name))
    for seed in (1, 2, 3, 4):
        s = sample_mu_theta(table, 65536, seed)
        _assert_same_hits(table, s.q, s.v)


def test_channel_ray_is_traced_in_few_blocks(one_ball, monkeypatch):
    calls = []
    window_hit = tables.window_hit

    def counted(q, v, s0, s1, *args):
        calls.append(s1[-1])
        return window_hit(q, v, s0, s1, *args)

    monkeypatch.setattr(tables, "window_hit", counted)
    q = np.array([[0.0, 0.0]])
    # the horizontal channel |y| < 1/4 (mod 1) misses the obstacle for ever
    hit = one_ball.first_hit(q, np.array([[1.0, 0.0]]))
    assert hit.trapped[0] and hit.s[0] == np.inf
    assert calls[-1] == one_ball.l_max  # traced all the way to the cap
    assert len(calls) <= 32             # one window per pass takes 14143
    # drifting 1/4 across the channel ends on the obstacle after about 10^3
    calls.clear()
    phi = 2.5e-4
    v = np.array([[np.cos(phi), np.sin(phi)]])
    hit = one_ball.first_hit(q, v)
    assert len(calls) <= 32
    assert 900.0 < hit.s[0] < 1100.0
    s_ref, piece_ref = reference_first_hit(one_ball, q, v)
    assert hit.s[0] == s_ref[0] and hit.piece[0] == piece_ref[0] == 0


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint8)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=25)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_stacked_ball_evaluation_matches_each_balls_own_method(dim, data, seed):
    table = data.draw(torus_tables(dims=(dim,)))
    space = table.space
    s = sample_mu_theta(table, 64, seed)
    # boundary points, and points anywhere in the cell, inside obstacles too
    rng = np.random.default_rng(seed)
    q_any = rng.uniform(0.0, 1.0, (32, dim)) * space.periods
    piece_any = rng.integers(len(table.pieces), size=32)
    q = np.concatenate([s.q, q_any])
    piece = np.concatenate([s.piece, piece_any])
    v = np.concatenate([s.v, s.v[:32]])
    gauge = table.piece_gauge(q, piece)
    normal = table.inward_normal_at(q, piece)
    for k, ball in enumerate(table.pieces):
        rows = piece == k
        assert np.array_equal(_bits(gauge[rows]), _bits(ball.gauge(space, q[rows])))
        assert np.array_equal(_bits(normal[rows]), _bits(ball.inward_normal(space, q[rows])))
    # rows off the boundary (piece -1) keep the NaN fill
    off = np.arange(q.shape[0]) % 5 == 0
    mixed = np.where(off, -1, piece)
    got, angle, _, cos = phase_coordinates(table, q, v, mixed)
    assert np.array_equal(got, mixed) and np.isnan(cos[off]).all()
    alpha = rng.uniform(0.0, 2.0 * np.pi, q.shape[0])
    if dim == 2:
        assert np.isnan(angle[off]).all()
        points = table._per_piece("point_at_param", mixed, alpha, np.full_like(q, np.nan))
        assert np.isnan(points[off]).all()
        for k, ball in enumerate(table.pieces):
            rows = mixed == k
            assert np.array_equal(_bits(angle[rows]), _bits(ball.boundary_param(space, q[rows])))
            assert np.array_equal(_bits(points[rows]),
                                  _bits(ball.point_at_param(space, alpha[rows])))
    else:
        assert angle is None
        for method, x in (("boundary_param", q), ("point_at_param", alpha)):
            with pytest.raises(ConfigError, match="n = 2 table"):
                table._per_piece(method, piece, x, np.full(q.shape[0], np.nan))


def test_a_torus_of_balls_evaluates_its_balls_stacked(two_balls, monkeypatch):
    s = sample_mu_theta(two_balls, 64, 3)
    # Table.gauges evaluates every piece at every row by design; every other call
    # of a piece method is per row and must go to one ball of per-row centres
    calls, every_piece = [], []
    for name in ("gauge", "inward_normal", "boundary_param", "point_at_param"):
        def recorded(self, space, x, name=name, method=getattr(Ball, name)):
            if not every_piece:
                calls.append((name, self))
            return method(self, space, x)

        monkeypatch.setattr(Ball, name, recorded)
    gauges = Table.gauges

    def all_pieces(self, q):
        every_piece.append(True)
        try:
            return gauges(self, q)
        finally:
            every_piece.pop()

    monkeypatch.setattr(Table, "gauges", all_pieces)
    for _ in lockstep_orbits(two_balls, Elastic(), s.q, s.v, 5):
        pass
    phase_coordinates(two_balls, s.q, s.v, s.piece)
    out_q, _ = boundary_param_map(two_balls, two_balls)(s.q, s.v)
    assert {name for name, _ in calls} == {"gauge", "inward_normal", "boundary_param",
                                          "point_at_param"}
    assert not any(ball is piece for _, ball in calls for piece in two_balls.pieces)
    assert all(ball.center.ndim == 2 for _, ball in calls)
    for k, ball in enumerate(two_balls.pieces):
        rows = s.piece == k
        expected = ball.point_at_param(two_balls.space, ball.boundary_param(two_balls.space, s.q[rows]))
        assert np.array_equal(_bits(out_q[rows]), _bits(expected))


def _count_window_calls(monkeypatch):
    calls = []
    window_hit = tables.window_hit

    def counted(q, v, s0, s1, *args):
        calls.append((q.shape[0], s0.size))
        return window_hit(q, v, s0, s1, *args)

    monkeypatch.setattr(tables, "window_hit", counted)
    return calls


@pytest.mark.parametrize("rows", [10, 128])
def test_a_small_lockstep_step_makes_one_window_call(two_balls, monkeypatch, rows):
    calls = _count_window_calls(monkeypatch)
    s = sample_mu_theta(two_balls, rows, 7)
    steps = 0
    for step, _, batch, _ in lockstep_orbits(two_balls, Elastic(), s.q, s.v, 40):
        assert len(calls) == step  # one call per step: the first block spans the diagonal
        steps = step
    assert steps == 40 and {c[1] for c in calls} == {2}


def test_a_large_first_hit_starts_with_a_one_window_block(one_ball, monkeypatch):
    calls = _count_window_calls(monkeypatch)
    s = sample_mu_theta(one_ball, 16384, 7)
    one_ball.first_hit(s.q, s.v)
    assert calls[0] == (16384, 1)
