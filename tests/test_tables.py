import inspect
import re

import numpy as np
import pytest

from billiardlab import presets, tables
from billiardlab.dynamics import Elastic, causality_batch, reflect_batch
from billiardlab.errors import ConfigError, DegenerateStart, NotOnBoundary
from billiardlab.measure import sample_mu_theta
from billiardlab.spaces import Euclidean, FlatTorus, HyperbolicBall, Sphere
from billiardlab.tables import Ball, HalfSpaceOrCap, RadialFourierCurve, StratumLabel, Table


def test_disk_diameter_hit(disk):
    hit = disk.first_hit(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
    assert abs(hit.s[0] - 2.0) < 1e-12
    assert np.allclose(hit.q[0], [-1.0, 0.0], atol=1e-12)
    assert abs(hit.cos_in[0] - (-1.0)) < 1e-12
    assert hit.label[0] == StratumLabel.TRANSVERSAL_OUT


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 1.4])
def test_disk_chord_length_oracle(disk, theta):
    # circle geometry: a chord entering at angle theta to the normal has
    # length 2 cos(theta)
    n = np.array([-1.0, 0.0])
    t = np.array([0.0, 1.0])
    v = np.cos(theta) * n + np.sin(theta) * t
    hit = disk.first_hit(np.array([[1.0, 0.0]]), v[None])
    assert abs(hit.s[0] - 2.0 * np.cos(theta)) < 1e-12


def test_interior_point_not_on_boundary(disk):
    assert disk.active_piece(np.array([[0.2, 0.1]]))[0] == -1
    with pytest.raises(NotOnBoundary):
        disk.classify(np.array([[0.2, 0.1]]), np.array([[1.0, 0.0]]))


def test_off_boundary_rows_raise_instead_of_garbage_normals(disk, two_balls):
    # a row with piece -1 used to leave its normal or gauge uninitialized
    q = np.array([[1.0, 0.0], [0.2, 0.1]])
    piece = disk.active_piece(q)
    assert piece.tolist() == [0, -1]
    with pytest.raises(NotOnBoundary):
        disk.inward_normal_at(q, piece)
    with pytest.raises(NotOnBoundary):
        disk.piece_gauge(q, piece)
    with pytest.raises(NotOnBoundary):
        reflect_batch(Elastic(), disk, q[1:], np.array([[1.0, 0.0]]))
    with pytest.raises(NotOnBoundary):
        two_balls.inward_normal_at(np.array([[0.5, 0.5]]), np.array([-1]))
    assert np.allclose(disk.inward_normal_at(q[:1], piece[:1]), [[-1.0, 0.0]])


def _three_balls():
    pieces = [Ball((0.25, 0.25), 0.2, side="obstacle"),
              Ball((0.75, 0.75), 0.15, side="obstacle"),
              Ball((0.25, 0.75), 0.1, side="obstacle")]
    return Table(FlatTorus((1.0, 1.0)), pieces, name="torus-three-balls")


def _scattered(table, method, piece, x, out):
    """pieces[k].method on the rows of piece k, one piece at a time."""
    for k, p in enumerate(table.pieces):
        rows = piece == k
        out[rows] = getattr(p, method)(table.space, x[rows])
    return out


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("three", [False, True], ids=["two_balls", "three_balls"])
def test_torus_piece_values_match_each_ball_bit_for_bit(two_balls, three):
    table = _three_balls() if three else two_balls
    s = sample_mu_theta(table, 600, seed=12)
    q, v, piece = s.q, s.v, s.piece
    assert set(piece.tolist()) == set(range(len(table.pieces)))
    h = 1e-4 * max(table._diameter, 1e-6)
    qp, _ = table.space.flow(q, v, np.full(q.shape[0], h))
    qm, _ = table.space.flow(q, v, np.full(q.shape[0], -h))
    g0, gp, gm = (_scattered(table, "gauge", piece, x, np.empty(x.shape[0])) for x in (q, qp, qm))
    dds = (gp - 2.0 * g0 + gm) / (h * h)
    normal = _scattered(table, "inward_normal", piece, q, np.empty_like(q))
    # mixed rows, and rows that all lie on one piece
    for rows in (slice(None), piece == 1):
        assert _same_bits(table.piece_gauge(q[rows], piece[rows]), g0[rows])
        assert _same_bits(table.inward_normal_at(q[rows], piece[rows]), normal[rows])
        assert _same_bits(table._gauge_dds(q[rows], v[rows], piece[rows]), dds[rows])


def test_degenerate_start_raises(disk):
    with pytest.raises(DegenerateStart):
        causality_batch(disk, [1.0, 0.0], [1.0, 0.0])


def brute_force_first_crossing(table, q, v, s_max, samples=400_000):
    """Oracle: dense scan of the max-gauge sign along the ray."""
    s = np.linspace(1e-9, s_max, samples)
    pts, _ = table.space.flow(np.tile(q, (samples, 1)), np.tile(v, (samples, 1)), s)
    g = table.max_gauge(pts)
    crossing = np.flatnonzero((g[:-1] <= 0) & (g[1:] > 0))
    assert crossing.size, "oracle found no crossing"
    return 0.5 * (s[crossing[0]] + s[crossing[0] + 1])


def test_torus_image_hit_against_dense_scan(one_ball):
    q = np.array([0.75, 0.5])  # east point of the obstacle
    for ang in (0.3, 1.1, 2.0, -2.4):
        v = np.array([np.cos(ang), np.sin(ang)])
        label, _ = one_ball.classify(q[None], v[None])
        if label[0] != StratumLabel.TRANSVERSAL_IN:
            continue
        hit = one_ball.first_hit(q[None], v[None])
        oracle = brute_force_first_crossing(one_ball, q, v, hit.s[0] + 0.5)
        assert abs(hit.s[0] - oracle) < 1e-4  # oracle is grid-limited
        # exact: the hit point lies on the obstacle circle
        assert abs(one_ball.max_gauge(hit.q)[0]) < 1e-10


def test_torus_interior_start_rejected_for_normal(one_ball):
    with pytest.raises(NotOnBoundary):
        one_ball.classify(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))


def test_disk_normal_and_obstacle_normal(disk, one_ball):
    q = np.array([[1.0, 0.0]])
    n = disk.inward_normal_at(q, disk.active_piece(q))[0]
    assert np.allclose(n, [-1.0, 0.0], atol=1e-14)
    q = np.array([[0.75, 0.5]])  # obstacle boundary east point
    n = one_ball.inward_normal_at(q, one_ball.active_piece(q))[0]
    assert np.allclose(n, [1.0, 0.0], atol=1e-12)  # points away from the ball


def test_hyperbolic_normal_against_fd_gradient(hyp_disk):
    space = hyp_disk.space
    qb = np.array([np.tanh(0.5), 0.0])
    n = hyp_disk.inward_normal_at(qb[None], hyp_disk.active_piece(qb[None]))[0]
    # oracle: chart gradient of the distance gauge by finite differences,
    # converted to a g-unit vector (conformal metric keeps the direction)
    piece = hyp_disk.pieces[0]
    h = 1e-7
    grad = np.array([
        (piece.gauge(space, (qb + [h, 0])[None])[0] - piece.gauge(space, (qb - [h, 0])[None])[0]),
        (piece.gauge(space, (qb + [0, h])[None])[0] - piece.gauge(space, (qb - [0, h])[None])[0]),
    ]) / (2 * h)
    expected = space.unit(qb[None], -grad[None])[0]
    assert np.allclose(n, expected, atol=1e-7)
    assert abs(space.metric_dot(qb[None], n[None], n[None])[0] - 1.0) < 1e-12
    # radial direction after g-normalization
    assert np.allclose(n / np.linalg.norm(n), [-1.0, 0.0], atol=1e-12)


def test_classification_trivials(disk):
    n = np.array([-1.0, 0.0])
    t = np.array([0.0, 1.0])
    v = 0.5 * n + np.sqrt(1 - 0.25) * t
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    label, cos_in = disk.classify(q, np.array([v, [0.0, 1.0]]))
    assert label[0] == StratumLabel.TRANSVERSAL_IN
    assert abs(cos_in[0] - 0.5) < 1e-12
    assert label[1] == StratumLabel.TANGENT_CONVEX


def test_obstacle_tangency_is_discontinuity(one_ball):
    # tangency on a dispersing obstacle separates chords that clip the ball
    # from chords that pass it: the exit point jumps under a tiny turn of v
    label, _ = one_ball.classify(np.array([[0.75, 0.5]]), np.array([[0.0, 1.0]]))
    assert label[0] == StratumLabel.TANGENT_CONCAVE
    # aim from the east point of the obstacle at the tangent of its periodic
    # image one period over; a tiny turn across the tangent flips between
    # clipping the image and flying past it
    q0 = np.array([0.75, 0.5])
    base = np.arcsin(0.25 / 0.75)
    delta = 2e-3
    hits = []
    for ang in (base - delta, base + delta):
        v = np.array([np.cos(ang), np.sin(ang)])
        hit = one_ball.first_hit(q0[None], v[None])
        hits.append(hit.q[0])
    jump = one_ball.space.chart_distance(hits[0], hits[1])
    assert jump > 0.05  # grazing side lands far from the clipping side


def test_stratum_stable_under_small_turns(disk):
    rng = np.random.default_rng(3)
    for _ in range(32):
        ang = rng.uniform(0, 2 * np.pi)
        q = np.array([np.cos(ang), np.sin(ang)])
        n = -q
        t = np.array([-n[1], n[0]])
        theta = rng.uniform(-1.4, 1.4)
        v = np.cos(theta) * n + np.sin(theta) * t
        label, cos_in = disk.classify(q[None], v[None])
        assert label[0] == StratumLabel.TRANSVERSAL_IN
        margin = (cos_in[0] - disk.tol.grazing_tol) / 2.0
        turn = 0.9 * margin  # cosine is 1-Lipschitz in the angle
        v2 = np.cos(theta + turn) * n + np.sin(theta + turn) * t
        label2, _ = disk.classify(q[None], v2[None])
        assert label2[0] == StratumLabel.TRANSVERSAL_IN


def test_hit_minimality_gauge_sign(disk, one_ball, hyp_disk):
    rng = np.random.default_rng(4)
    for table in (disk, one_ball, hyp_disk):
        from billiardlab.measure import sample_mu_theta

        s = sample_mu_theta(table, 8, seed=21)
        hit = table.first_hit(s.q, s.v)
        for i in range(len(s.q)):
            span = np.linspace(table.tol.hit_tol, hit.s[i] - table.tol.hit_tol, 1000)
            pts, _ = table.space.flow(np.tile(s.q[i], (1000, 1)), np.tile(s.v[i], (1000, 1)), span)
            assert np.all(table.max_gauge(pts) <= table.tol.hit_tol)


def test_rows_off_the_boundary_get_nan_geometry_and_label_minus_one(disk, one_ball):
    # trapped hits: piece -1, label -1, NaN normal and cosine, and the start point
    short = one_ball.with_l_max(0.3)
    q = np.array([[0.75, 0.5], [0.1, 0.5], [0.2, 0.1]])
    v = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    hit = short.first_hit(q, v)
    assert hit.trapped.tolist() == [True, False, True]
    assert hit.piece.tolist() == [-1, 0, -1] and hit.label.tolist() == [-1, 1, -1]
    assert np.isnan(hit.normal[hit.trapped]).all() and np.isnan(hit.cos_in[hit.trapped]).all()
    assert np.isfinite(hit.normal[1]).all() and hit.cos_in[1] < -0.99
    assert np.array_equal(hit.q[hit.trapped], q[hit.trapped])
    # the same rule for derived and carried state, with no tangent test off the boundary
    qb = np.array([[1.0, 0.0], [0.2, 0.1], [0.0, -1.0]])
    vb = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    carried_normal = np.array([[-1.0, 0.0], [7.0, 7.0], [0.0, 1.0]])
    for carried in ((), (np.array([0, -1, 0]), carried_normal)):
        piece, normal, cos = disk._boundary_geometry(qb, vb, *carried)
        label = disk._strata(qb, vb, piece, cos)
        assert piece.tolist() == [0, -1, 0] and label.tolist() == [0, -1, 0]
        assert np.isnan(normal[1]).all() and np.isnan(cos[1])
    with pytest.raises(NotOnBoundary):
        disk.classify(qb, vb)
    for piece in (None, np.array([0, -1, 0])):
        with pytest.raises(NotOnBoundary, match="not on the table boundary"):
            causality_batch(disk, qb, vb, piece)
    with pytest.raises(NotOnBoundary, match="off its boundary piece"):
        causality_batch(disk, qb * 0.5, vb, np.zeros(3, dtype=int))


def test_trapped_when_cap_too_small(one_ball):
    short = one_ball.with_l_max(0.05)
    chord = causality_batch(short, [0.75, 0.5], [1.0, 0.0])
    assert chord.trapped.tolist() == [True]
    assert not chord.grazing[0] and not chord.ok[0]


# -- Fourier walls ----------------------------------------------------------


def test_fourier_hit_against_dense_scan(ellipse):
    q = ellipse.pieces[0].point_at_param(ellipse.space, np.array([0.0]))[0]
    n = ellipse.inward_normal_at(q[None], ellipse.active_piece(q[None]))[0]
    t = np.array([-n[1], n[0]])
    for theta in (0.0, 0.6, -1.1):
        v = np.cos(theta) * n + np.sin(theta) * t
        hit = ellipse.first_hit(q[None], v[None])
        oracle = brute_force_first_crossing(ellipse, q, v, hit.s[0] + 0.3)
        assert abs(hit.s[0] - oracle) < 1e-4
        assert abs(ellipse.max_gauge(hit.q)[0]) < 1e-9


def test_fourier_normal_matches_fd(ellipse):
    piece = ellipse.pieces[0]
    space = ellipse.space
    for alpha in (0.3, 1.2, 2.5, 4.0):
        q = piece.point_at_param(space, np.array([alpha]))
        n = piece.inward_normal(space, q)[0]
        h = 1e-7
        grad = np.array([
            piece.gauge(space, q + [[h, 0]])[0] - piece.gauge(space, q - [[h, 0]])[0],
            piece.gauge(space, q + [[0, h]])[0] - piece.gauge(space, q - [[0, h]])[0],
        ]) / (2 * h)
        assert np.allclose(n, -grad / np.linalg.norm(grad), atol=1e-6)


def _unit(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def test_fourier_bounds_enclose_the_curve():
    # a 7-harmonic wall and a k = 30 harmonic: r_min, r_max and the boundary
    # sampler's speed envelope must bound the curve, not just its 4096-point grid
    rng = np.random.default_rng(7)
    walls = [RadialFourierCurve(1.0, cos_coeffs=rng.uniform(-0.02, 0.02, 7),
                                sin_coeffs=rng.uniform(-0.02, 0.02, 7)),
             RadialFourierCurve(1.0, cos_coeffs=[0.0] * 29 + [0.01])]
    grid = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    h = grid[1]

    def refine(f, pick):
        """f on a 1e-4 h mesh around its grid extremum."""
        t0 = grid[pick(f(grid))]
        return f(np.linspace(t0 - h, t0 + h, 20_001))

    for w in walls:
        def r_of(t):
            return w.radius(_unit(t))[0]

        def speed(t):
            return np.hypot(*w.radius(_unit(t)))
        assert w._r_min <= np.min(refine(r_of, np.argmin))
        assert w._r_max >= np.max(refine(r_of, np.argmax))
        assert w._speed_max >= np.max(refine(speed, np.argmax))


def test_fourier_radius_matches_a_40_digit_series():
    # r and r' from the angle-addition recurrence against the series summed at
    # 40 digits; errors are absolute, in units of eps (r is near 1)
    import mpmath as mp

    rng = np.random.default_rng(17)
    # random angles over three turns, negative ones among them, and multiples of pi / 2048
    theta = np.concatenate([rng.uniform(-2.0 * np.pi, 4.0 * np.pi, 400),
                            np.arange(0, 4096, 41) * (np.pi / 2048.0)])
    walls = [(1.0, (), ()), (1.0, (0.0, 0.15), ()), (1.2, (), (0.05, 0.0, -0.03)),
             (1.0, rng.uniform(-0.02, 0.02, 7), rng.uniform(-0.02, 0.02, 4)),
             (1.0, [0.0] * 29 + [0.01], ())]
    eps = np.finfo(float).eps
    with mp.workdps(40):
        # e^{i k theta} for k = 1..30 at each angle
        waves = []
        for t in theta:
            z = mp.expj(mp.mpf(float(t)))
            waves.append([z])
            for _ in range(29):
                waves[-1].append(waves[-1][-1] * z)
        for base, a, b in walls:
            r, dr = RadialFourierCurve(base, a, b).radius(_unit(theta))
            err_r = err_dr = 0.0
            for i, zk in enumerate(waves):
                exact_r, exact_dr = mp.mpf(base), mp.mpf(0)
                for k, ak in enumerate(a, start=1):
                    exact_r += ak * zk[k - 1].real
                    exact_dr -= k * ak * zk[k - 1].imag
                for k, bk in enumerate(b, start=1):
                    exact_r += bk * zk[k - 1].imag
                    exact_dr += k * bk * zk[k - 1].real
                err_r = max(err_r, abs(float(mp.mpf(float(r[i])) - exact_r)))
                err_dr = max(err_dr, abs(float(mp.mpf(float(dr[i])) - exact_dr)))
            assert err_r <= 4.0 * eps and err_dr <= 8.0 * eps, (len(a), len(b), err_r / eps,
                                                                 err_dr / eps)


def test_fourier_perimeter_positive_radius():
    with pytest.raises(ConfigError):
        RadialFourierCurve(0.1, cos_coeffs=(0.5,))


def test_fourier_origin_keeps_its_gauge():
    # the origin has no direction; it takes the angle 0 that arctan2 gives it
    table = presets.ellipse()
    assert table.gauges([[0.0, 0.0]])[0, 0] == -1.15
    assert table.inside([[0.0, 0.0]])[0]


# -- interior samples ------------------------------------------------------------


def test_off_centre_hyperbolic_ball_builds_and_is_sampled_inside_itself():
    # the ball fills 8e-5 of the chart box about the origin that holds it; the
    # sampler draws from the ball itself
    table = Table(HyperbolicBall(2), [Ball((0.9, 0.0), 0.1)])
    q = table._interior_samples(np.random.default_rng(3), 4096)
    assert np.all(table.space.distance(q, table.outer.center) <= 0.1)


@pytest.mark.parametrize("space, pole, radius", [
    (Sphere(2), (0.0, 0.0, 1.0), 0.03),
    (Sphere(2), (0.0, 0.0, 1.0), 0.01),
    (Sphere(3), (0.0, 0.0, 0.0, 1.0), 0.1),
], ids=["s2-r0.03", "s2-r0.01", "s3-r0.1"])
def test_small_sphere_caps_build(space, pole, radius):
    # a cap this small holds too few of any uniform sample of the whole sphere
    table = Table(space, [Ball(pole, radius)])
    q = table._interior_samples(np.random.default_rng(4), 1000)
    assert np.all(table.space.distance(q, table.outer.center) <= radius)


# each table, and the g-volume share of the ball about its outer wall's centre
# of half the wall's radius
HALF_RADIUS_SHARE = {
    "hyperbolic-disk-2": (lambda: presets.preset_table("hyperbolic-disk-2"),
                          (np.cosh(1.0) - 1.0) / (np.cosh(2.0) - 1.0)),
    "hyperbolic-ball3-1": (lambda: Table(HyperbolicBall(3), [Ball((0.0, 0.0, 0.0), 1.0)]),
                           (np.sinh(1.0) - 1.0) / (np.sinh(2.0) - 2.0)),
    "cap-pi4": (lambda: presets.preset_table("cap-pi4"),
                (1.0 - np.cos(np.pi / 8.0)) / (1.0 - np.cos(np.pi / 4.0))),
}


@pytest.mark.parametrize("name", sorted(HALF_RADIUS_SHARE))
def test_interior_samples_are_uniform_in_volume(name):
    make, share = HALF_RADIUS_SHARE[name]
    table = make()
    count = 20000
    q = table._interior_samples(np.random.default_rng(1), count)
    c, r = table.outer.bounds(table.space)
    got = np.mean(table.space.distance(q, c) < 0.5 * r)
    assert abs(got - share) <= 4.0 * np.sqrt(share * (1.0 - share) / count), (got, share)


# -- sphere caps ---------------------------------------------------------------


def test_sphere_cap_piece_matches_ball(cap):
    # the cap preset is a geodesic ball on the sphere; a cap posed as
    # half-space-or-cap must agree with it
    space = cap.space
    piece = HalfSpaceOrCap(side="outer", pole=(0.0, 0.0, 1.0), angle=np.pi / 4)
    pts = cap.pieces[0].sample_boundary(space, np.random.default_rng(0), 64)
    assert np.max(np.abs(piece.gauge(space, pts))) < 1e-12


# -- construction checks -------------------------------------------------------


def test_every_piece_kind_has_the_piece_contract():
    # the methods the tables module docstring lists, with the listed arguments
    listed = re.findall(r"^    (\w+)\((space[^)]*)\)", tables.__doc__, re.M)
    assert [name for name, _ in listed][:2] == ["check", "bounds"] and len(listed) == 10
    for cls in (Ball, HalfSpaceOrCap, RadialFourierCurve):
        for name, args in listed:
            params = list(inspect.signature(getattr(cls, name)).parameters)
            assert params == ["self", *args.split(", ")], (cls.__name__, name)
    # each kind's bounding ball holds its wall
    rng = np.random.default_rng(3)
    for space, piece in [(Euclidean(2), Ball((0.3, -0.2), 0.7)),
                         (Sphere(2), HalfSpaceOrCap((0.0, 0.0, 1.0), 2.0)),
                         (Euclidean(2), RadialFourierCurve(1.0, cos_coeffs=(0.0, 0.15),
                                                           sin_coeffs=(0.05,)))]:
        piece.check(space)
        center, radius = piece.bounds(space)
        pts = piece.sample_boundary(space, rng, 512)
        assert np.all(space.distance(pts, center) <= radius + 1e-12)
    with pytest.raises(ConfigError, match="Euclidean n = 2"):
        RadialFourierCurve(1.0).check(Sphere(2))
    for radius in (np.pi, 3.5, np.nan):
        with pytest.raises(ConfigError, match="ball radius"):
            Ball((0.0, 0.0, 1.0), radius).check(Sphere(2))


def test_overlapping_obstacles_rejected():
    with pytest.raises(ConfigError):
        Table(FlatTorus((1.0, 1.0)),
              [Ball((0.3, 0.3), 0.2, side="obstacle"),
               Ball((0.5, 0.5), 0.2, side="obstacle")])


def test_overlapping_obstacles_in_a_disk_rejected():
    with pytest.raises(ConfigError, match="obstacles overlap"):
        Table(Euclidean(2), [Ball((0.0, 0.0), 1.0),
                             Ball((-0.2, 0.0), 0.3, side="obstacle"),
                             Ball((0.2, 0.0), 0.3, side="obstacle")])


def test_obstacle_overlapping_own_images_rejected():
    with pytest.raises(ConfigError):
        Table(FlatTorus((1.0, 1.0)), [Ball((0.5, 0.5), 0.55, side="obstacle")])


def test_obstacle_touching_outer_wall_rejected():
    with pytest.raises(ConfigError):
        Table(Euclidean(2), [Ball((0.0, 0.0), 1.0, side="outer"),
                             Ball((0.8, 0.0), 0.4, side="obstacle")])


def test_torus_needs_obstacles():
    with pytest.raises(ConfigError):
        Table(FlatTorus((1.0, 1.0)), [Ball((0.5, 0.5), 0.2, side="outer")])


class _TwoLobes(Ball):
    """Outer wall of the unit ball whose domain is two disjoint disks inside it."""

    def __init__(self):
        super().__init__((0.0, 0.0), 1.0, side="outer")
        self.lobes = (Ball((-0.5, 0.0), 0.3), Ball((0.5, 0.0), 0.3))

    def gauge(self, space, q):
        return np.minimum(*(lobe.gauge(space, q) for lobe in self.lobes))


def test_disconnected_domain_rejected():
    with pytest.raises(ConfigError, match="disconnected"):
        Table(Euclidean(2), [_TwoLobes()])


def test_obstacle_inside_disk_accepted():
    table = Table(Euclidean(2), [Ball((0.0, 0.0), 1.0, side="outer"),
                                 Ball((0.3, 0.0), 0.2, side="obstacle")])
    assert table.inside(np.array([[0.8, 0.0]]))[0]
    assert not table.inside(np.array([[0.3, 0.05]]))[0]


def test_table_keeps_its_one_outer_wall(disk, two_balls):
    assert disk.outer is disk.pieces[0]
    assert two_balls.outer is None
    # the outer wall need not be listed first
    wall = Ball((0.0, 0.0), 1.0, side="outer")
    table = Table(Euclidean(2), [Ball((0.3, 0.0), 0.2, side="obstacle"), wall])
    assert table.outer is wall


@pytest.mark.parametrize("build, message", [
    (lambda: Table(Euclidean(2), []), "at least one boundary piece"),
    (lambda: Table(Euclidean(2), [Ball((0.0, 0.0), 1.0, side="outer"),
                                  Ball((0.0, 0.0), 2.0, side="outer")]), "exactly one outer wall"),
    (lambda: Ball((0.0, 0.0), 1.0, side="inner"), "unknown side"),
    (lambda: Ball((0.0, 0.0), 0.0), "radius must be positive"),
    (lambda: Ball((0.0, 0.0), -1.0), "radius must be positive"),
    # a subnormal radius: a wall point's squared distance to the centre underflows to 0
    pytest.param(lambda: Table(Euclidean(2), [Ball((0.0, 0.0), 1e-320)]),
                 "vanishing boundary gradient",
                 marks=pytest.mark.filterwarnings("ignore:.*encountered in divide")),
], ids=["no-pieces", "two-outer-walls", "unknown-side", "radius-0", "radius-negative",
        "radius-subnormal"])
def test_table_construction_rejects_bad_pieces(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: presets.hyperbolic_disk(0.0), "radius must be positive"),
    (lambda: presets.spherical_cap(2.0), "cap radius must lie in"),
], ids=["hyperbolic-radius-0", "cap-wider-than-a-hemisphere"])
def test_preset_factories_reject_bad_radii(build, message):
    with pytest.raises(ConfigError, match=message):
        build()
