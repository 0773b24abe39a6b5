import numpy as np
import pytest

from billiardlab.dynamics import Elastic, Rescaled, lockstep_orbits
from billiardlab.errors import ConfigError, DegenerateSet, NotOnBoundary
from billiardlab.measure import (Estimate, PhaseBox, domain_volumes,
                                 measure_preservation_test, phase_coordinates, random_phase_boxes,
                                 boundary_rng, sample_blocks, sample_mu_theta,
                                 trajectory_space_volume, unit_ball_volume, unit_sphere_volume)
from billiardlab.presets import ellipse
from billiardlab.tables import Table, Tolerances


def ks_statistic(samples, cdf):
    x = np.sort(samples)
    n = x.size
    grid = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - grid)
    lower = np.max(grid - np.arange(0, n) / n)
    return max(upper, lower)


# -- density -----------------------------------------------------------------


def test_density_trivials(disk):
    # the density of mu_Theta is the incidence cosine that classify returns
    q = np.array([[1.0, 0.0]] * 3)
    v = np.array([[-1.0, 0.0], [0.0, 1.0], [-0.5, np.sqrt(3) / 2]])
    cos_in = disk.classify(q, v)[1]
    assert np.all(np.abs(cos_in - [1.0, 0.0, 0.5]) < 1e-12)


def test_density_off_boundary_raises(disk):
    with pytest.raises(NotOnBoundary):
        disk.classify(np.array([[0.5, 0.0]]), np.array([[1.0, 0.0]]))


def test_density_sign_matches_strata(disk, one_ball):
    from billiardlab.dynamics import causality_batch
    from billiardlab.tables import StratumLabel

    for table in (disk, one_ball):
        s = sample_mu_theta(table, 512, seed=41)
        batch = causality_batch(table, s.q, s.v)
        d_in = table.classify(batch.entry_q, batch.entry_v)[1]
        assert np.all(d_in > 0)
        ok = batch.ok
        d_out = table.classify(batch.exit_q[ok], batch.exit_v[ok])[1]
        assert np.all(d_out < 0)
        assert np.all(batch.exit_label[ok] == int(StratumLabel.TRANSVERSAL_OUT))


# -- sampler ------------------------------------------------------------------


def test_incidence_marginal_matches_inverse_cdf(disk):
    # oracle: theta = arcsin(2u - 1) has density cos(theta)/2 on (-pi/2, pi/2)
    n = 40_000
    s = sample_mu_theta(disk, n, seed=1)
    normals = -s.q
    tangents = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
    theta = np.arctan2(np.sum(s.v * tangents, axis=1), np.sum(s.v * normals, axis=1))
    ks = ks_statistic(theta, lambda t: (1.0 + np.sin(t)) / 2.0)
    assert ks < 1.63 / np.sqrt(n)
    rng = np.random.default_rng(0)
    oracle = np.arcsin(2.0 * rng.uniform(0, 1, n) - 1.0)
    assert abs(np.std(theta) - np.std(oracle)) < 0.01


def test_boundary_angle_uniform(disk):
    n = 40_000
    s = sample_mu_theta(disk, n, seed=2)
    ang = np.mod(np.arctan2(s.q[:, 1], s.q[:, 0]), 2 * np.pi)
    ks = ks_statistic(ang, lambda t: t / (2 * np.pi))
    assert ks < 1.63 / np.sqrt(n)


def test_sampler_determinism_and_streams(disk):
    a = sample_mu_theta(disk, 512, seed=7)
    b = sample_mu_theta(disk, 512, seed=7)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v)
    c = sample_mu_theta(disk, 512, seed=8)
    assert not np.array_equal(a.q, c.q)
    d = sample_mu_theta(disk, 512, seed=7, stream=1)
    assert not np.array_equal(a.q, d.q)


def test_sampler_piece_weighting(two_balls):
    s = sample_mu_theta(two_balls, 20_000, seed=3)
    frac = np.mean(s.piece == 0)
    expect = 0.38 / (0.38 + 0.18)
    assert abs(frac - expect) < 0.02


def test_sampler_cos_positive_and_resampling(disk):
    s = sample_mu_theta(disk, 10_000, seed=4)
    assert np.all(s.cos_in > disk.tol.grazing_tol)
    assert s.resampled_fraction < 1e-3


@pytest.mark.parametrize("name, p, mean_cos", [
    ("disk", 1.0 - np.sqrt(0.75), 0.85459), ("ball3", 0.25, 0.77778)])
def test_sampler_redraws_directions_at_or_below_the_grazing_cosine(name, p, mean_cos, request):
    # at grazing_tol 0.5 a fraction p of the lifted directions is redrawn, each
    # sample p / (1 - p) times on average, and the cosines are the cosine law
    # conditioned on cos > 0.5
    table = request.getfixturevalue(name)
    table = Table(table.space, table.pieces, Tolerances(grazing_tol=0.5), check=False)
    n = 200_000
    s = sample_mu_theta(table, n, seed=9)
    assert np.all(s.cos_in > 0.5)
    redraws = p / (1.0 - p)
    assert abs(s.resampled_fraction - redraws) < 4.0 * np.sqrt(p / (1.0 - p) ** 2 / n)
    cos = Estimate.from_samples(s.cos_in)
    assert abs(cos.mean - mean_cos) < 4.0 * cos.stderr


# -- volumes --------------------------------------------------------------------


def test_trajectory_volume_disk_closed_form_and_quadrature(disk):
    vol = trajectory_space_volume(disk)
    assert abs(vol - 4 * np.pi) < 1e-12
    # independent quadrature of the cosine integral over entries
    theta = np.linspace(-np.pi / 2, np.pi / 2, 20_001)
    inner = np.trapezoid(np.cos(theta), theta)
    assert abs(inner * 2 * np.pi - vol) < 1e-6


def test_trajectory_volume_ball3(ball3):
    vol = trajectory_space_volume(ball3)
    assert abs(vol - 4 * np.pi ** 2) < 1e-9
    # quadrature: integral of cos over the inward hemisphere is pi
    theta = np.linspace(0, np.pi / 2, 20_001)
    inner = np.trapezoid(np.cos(theta) * np.sin(theta) * 2 * np.pi, theta)
    assert abs(inner * 4 * np.pi - vol) < 1e-5


def test_trajectory_volume_hyperbolic(hyp_disk):
    assert abs(trajectory_space_volume(hyp_disk) - 2 * 2 * np.pi * np.sinh(1.0)) < 1e-12
    # chart quadrature of the boundary circumference
    r = np.tanh(0.5)
    lam = 2.0 / (1.0 - r * r)
    assert abs(lam * r * 2 * np.pi - 2 * np.pi * np.sinh(1.0)) < 1e-12


def test_trajectory_volume_mc_oracle(disk, hyp_disk, cap):
    # independent route: uniform directions reweighted by the cosine
    for table in (disk, hyp_disk, cap):
        rng = boundary_rng(90, 0)
        n = 50_000
        piece = table.pieces[0]
        q = piece.sample_boundary(table.space, rng, n)
        normals = piece.inward_normal(table.space, q)
        frame = table.space.tangent_frame(q, normals)
        ang = rng.uniform(-np.pi / 2, np.pi / 2, n)
        v = np.cos(ang)[:, None] * normals + np.sin(ang)[:, None] * frame[:, 0]
        weights = np.cos(ang) * np.pi  # hemisphere measure pi, density cos
        est = Estimate.from_samples(weights * piece.boundary_volume(table.space))
        vol = trajectory_space_volume(table)
        assert abs(est.mean - vol) < 3.5 * est.stderr


def test_domain_volumes(disk, ball3, hyp_disk, cap, one_ball):
    v = domain_volumes(disk)
    assert abs(v.vol_m - np.pi) < 1e-12 and abs(v.vol_dm - 2 * np.pi) < 1e-12
    v = domain_volumes(ball3)
    assert abs(v.vol_m - 4 * np.pi / 3) < 1e-12 and abs(v.vol_dm - 4 * np.pi) < 1e-12
    v = domain_volumes(hyp_disk)
    assert abs(v.vol_m - 2 * np.pi * (np.cosh(1) - 1)) < 1e-12
    assert abs(v.vol_dm - 2 * np.pi * np.sinh(1)) < 1e-12
    v = domain_volumes(cap)
    assert abs(v.vol_m - 2 * np.pi * (1 - np.cos(np.pi / 4))) < 1e-12
    assert abs(v.vol_dm - 2 * np.pi * np.sin(np.pi / 4)) < 1e-12
    v = domain_volumes(one_ball)
    assert abs(v.vol_m - (1 - np.pi * 0.25 ** 2)) < 1e-12
    assert abs(v.vol_dm - 2 * np.pi * 0.25) < 1e-12
    # r = 1 + 0.15 cos(2 theta) encloses (1 / 2) int r^2 = pi (1 + 0.15^2 / 2)
    want = np.pi * (1.0 + 0.15 ** 2 / 2.0)
    assert abs(domain_volumes(ellipse()).vol_m - want) <= 1e-14 * want


def test_hyperbolic_area_chart_quadrature(hyp_disk):
    # oracle: integrate the conformal area element over the chart disk
    r = np.linspace(0, np.tanh(0.5), 4000)
    lam = 2.0 / (1.0 - r * r)
    area = np.trapezoid(lam * lam * r * 2 * np.pi, r)
    assert abs(area - 2 * np.pi * (np.cosh(1) - 1)) < 1e-5


def test_unit_volume_constants():
    assert abs(unit_ball_volume(1) - 2.0) < 1e-15
    assert abs(unit_ball_volume(2) - np.pi) < 1e-15
    assert abs(unit_sphere_volume(1) - 2 * np.pi) < 1e-15
    assert abs(unit_sphere_volume(2) - 4 * np.pi) < 1e-15


# -- estimates --------------------------------------------------------------------


def test_estimate_merge_matches_pooled():
    rng = np.random.default_rng(11)
    x = rng.normal(3.0, 2.0, 10_000)
    whole = Estimate.from_samples(x)
    parts = [Estimate.from_samples(c) for c in np.array_split(x, 7)]
    merged = Estimate.merge_all(parts)
    assert merged.count == whole.count
    assert abs(merged.mean - whole.mean) < 1e-12
    assert abs(merged.stderr - whole.stderr) < 1e-12


def test_estimate_merge_order_independent():
    rng = np.random.default_rng(12)
    parts = [Estimate.from_samples(rng.normal(size=rng.integers(5, 500)))
             for _ in range(12)]
    base = Estimate.merge_all(parts)
    for perm_seed in range(5):
        order = np.random.default_rng(perm_seed).permutation(len(parts))
        other = Estimate.merge_all([parts[i] for i in order])
        assert other.count == base.count
        assert abs(other.mean - base.mean) < 1e-12
        assert abs(other.stderr - base.stderr) < 1e-12


def test_estimate_scaling():
    e = Estimate.from_samples([1.0, 2.0, 3.0])
    s = e.scaled(4.0)
    assert abs(s.mean - 8.0) < 1e-15
    assert abs(s.stderr - 4.0 * e.stderr) < 1e-15


# -- measure preservation -----------------------------------------------------------


def test_half_boundary_box_measure_and_preservation(disk):
    box = PhaseBox(piece=0, boundary=(0.0, np.pi))
    results = measure_preservation_test(disk, Elastic(), [box], 200_000, seed=5)
    r = results[0]
    total = trajectory_space_volume(disk)
    assert abs(r.mu_k.mean - total / 2) < 3 * r.mu_k.stderr
    assert abs(r.z_score) < 3.0


def test_incidence_box_exact_measure(disk):
    # mu{theta in [0, pi/6]} / total = (sin(pi/6) - sin 0) / 2 = 1/4
    box = PhaseBox(piece=0, incidence=(0.0, np.pi / 6))
    results = measure_preservation_test(disk, Elastic(), [box], 200_000, seed=6)
    r = results[0]
    total = trajectory_space_volume(disk)
    assert abs(r.mu_k.mean / total - 0.25) < 3 * r.mu_k.stderr / total
    # theta is invariant on the disk, so the pushforward matches exactly
    assert abs(r.z_score) < 3.0


def test_preservation_random_boxes_sinai(two_balls):
    rng = boundary_rng(77, 0)
    boxes = random_phase_boxes(two_balls, 10, rng)
    results = measure_preservation_test(two_balls, Elastic(), boxes, 200_000, seed=7)
    assert max(abs(r.z_score) for r in results) < 4.0


def test_preservation_detects_rescaled_violation(disk):
    # anisotropic stretch does not preserve the cosine measure: the paired
    # z-scores must blow up on incidence boxes
    law = Rescaled(stretch=2.0, axis=(1.0, 0.0))
    boxes = [PhaseBox(piece=0, incidence=(0.2, 0.7)),
             PhaseBox(piece=0, incidence=(-0.7, -0.2))]
    results = measure_preservation_test(disk, law, boxes, 100_000, seed=8)
    assert max(abs(r.z_score) for r in results) > 10.0


def test_degenerate_box_raises(disk):
    box = PhaseBox(piece=0, incidence=(1.57078, 1.57079))  # sliver at grazing
    with pytest.raises(DegenerateSet):
        measure_preservation_test(disk, Elastic(), [box], 5_000, seed=9)


# -- phase boxes ----------------------------------------------------------------------


def reference_contains(box, table, q, v, piece_idx, normal=None):
    """Every test of the box on every row, unfiltered."""
    space = table.space
    n = q.shape[0]
    on = piece_idx >= 0
    mask = on & ((piece_idx == box.piece) if box.piece is not None else True)
    safe = np.where(on, piece_idx, 0)
    if normal is None:
        normal = table.inward_normal_at(q, safe)
    cos_in = space.metric_dot(q, v, normal)
    if box.boundary is not None:
        ang = np.empty(n)
        for k, piece in enumerate(table.pieces):
            rows = safe == k
            ang[rows] = piece.boundary_param(space, q[rows])
        if box.boundary[1] - box.boundary[0] < 2.0 * np.pi:  # else the whole piece
            lo, hi = np.mod(box.boundary, 2.0 * np.pi)
            mask &= (ang >= lo) & (ang < hi) if lo <= hi else (ang >= lo) | (ang < hi)
    if box.cos_range is not None:
        mask &= (cos_in >= box.cos_range[0]) & (cos_in < box.cos_range[1])
    if box.incidence is not None:
        theta = np.arctan2(space.metric_dot(q, v, space.tangent_frame(q, normal)[:, 0]), cos_in)
        mask &= (theta >= box.incidence[0]) & (theta < box.incidence[1])
    return mask


def _box_rows(table, seed):
    """Measure samples, some moved off the boundary, and their images after one bounce."""
    s = sample_mu_theta(table, 4096, seed)
    piece = s.piece.copy()
    piece[::7] = -1
    _, _, _, state = next(lockstep_orbits(table, Elastic(), s.q, s.v, 1))
    return (s.q, s.v, piece), (state.q, state.v, state.piece, state.normal)


FULL_CIRCLES = [(0.0, 2.0 * np.pi), (-np.pi, np.pi), (1.0, 1.0 + 2.0 * np.pi), (0.0, 7.0)]


@pytest.mark.parametrize("name", ["disk", "two_balls", "ball3"])
def test_filtered_box_matches_unfiltered_reference(name, request):
    table = request.getfixturevalue(name)
    if table.space.dim == 2:
        boxes = random_phase_boxes(table, 12, boundary_rng(3, 0))
        boxes += [PhaseBox(boundary=(5.5, 0.7), cos_range=(0.2, 0.9)), PhaseBox()]
        boxes += [PhaseBox(piece=0, boundary=b, incidence=(-0.5, 0.9)) for b in FULL_CIRCLES]
    else:
        boxes = [PhaseBox(cos_range=(0.3, 0.8)), PhaseBox(piece=0, cos_range=(0.0, 0.5))]
    (q, v, piece), after = _box_rows(table, 11)
    rows = [(q, v, piece), after, after[:3]]   # with and without the carried normals
    coords = [phase_coordinates(table, *r) for r in rows]
    hits = 0
    for box in boxes:
        for r, c in zip(rows, coords):
            want = reference_contains(box, table, *r)
            assert np.array_equal(box.contains(table, *r), want)
            assert np.array_equal(box.test(c), want)
        hits += int(box.test(coords[0]).sum())
    assert hits > 0


def test_phase_coordinates_are_nan_off_the_boundary(disk, ball3):
    for table in (disk, ball3):
        (q, v, piece), (qa, va, pa, na) = _box_rows(table, 12)
        pa, na = pa.copy(), na.copy()
        pa[::5], na[::5] = -1, 7.0   # carried normals that rows off the boundary must not read
        for rows in ((q, v, piece), (qa, va, pa, na)):
            got, angle, incidence, cos = phase_coordinates(table, *rows)
            off = rows[2] < 0
            assert np.array_equal(got, rows[2])
            assert (angle is None) == (incidence is None) == (table.space.dim != 2)
            for x in (angle, incidence, cos):
                if x is not None:
                    assert np.isnan(x[off]).all() and np.isfinite(x[~off]).all()


def test_phase_coordinates_derive_the_piece_when_unset(disk, two_balls):
    for table in (disk, two_balls):
        s = sample_mu_theta(table, 256, 13)
        q = s.q.copy()
        q[::9] = table.space.wrap(q[::9] + 0.05 * s.v[::9])   # rows moved into the interior
        piece = table.active_piece(q)
        assert (piece[::9] == -1).all() and (piece >= 0).sum() == 256 - 29
        derived, given = phase_coordinates(table, q, s.v), phase_coordinates(table, q, s.v, piece)
        for a, b in zip(derived, given):
            assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("boundary", FULL_CIRCLES)
def test_full_circle_boundary_box_covers_the_piece(disk, boundary):
    s = sample_mu_theta(disk, 4096, 0)
    assert PhaseBox(boundary=boundary).contains(disk, s.q, s.v, s.piece, s.normal).all()
    # a short interval still wraps modulo 2 pi
    short = PhaseBox(boundary=(boundary[0], boundary[0] + 1.0))
    ang = np.mod(np.arctan2(s.q[:, 1], s.q[:, 0]), 2.0 * np.pi)
    lo, hi = np.mod([boundary[0], boundary[0] + 1.0], 2.0 * np.pi)
    want = (ang >= lo) & (ang < hi) if lo <= hi else (ang >= lo) | (ang < hi)
    assert np.array_equal(short.contains(disk, s.q, s.v, s.piece), want)


def test_preservation_test_derives_box_coordinates_twice_per_block(two_balls, monkeypatch):
    from billiardlab import parallel, tables

    calls = []
    boundary_param = tables.Ball.boundary_param

    def counted(self, space, q):
        calls.append(q.shape[0])
        return boundary_param(self, space, q)

    monkeypatch.setattr(tables.Ball, "boundary_param", counted)
    boxes = random_phase_boxes(two_balls, 20, boundary_rng(5, 0))
    count = parallel.BLOCK_SIZE + 4096
    results = measure_preservation_test(two_balls, Elastic(), boxes, count, seed=3)
    assert len(results) == 20
    blocks = len(parallel.block_counts(count))
    assert blocks == 2
    assert 0 < len(calls) <= 2 * len(two_balls.pieces) * blocks


def test_incidence_box_needs_a_planar_table(ball3):
    s = sample_mu_theta(ball3, 16, 0)
    for box in (PhaseBox(incidence=(0.0, 0.5)), PhaseBox(boundary=(0.0, 0.5))):
        with pytest.raises(ConfigError, match="n = 2 table"):
            box.contains(ball3, s.q, s.v, s.piece)
        with pytest.raises(ConfigError, match="n = 2 table"):  # even with no row on the boundary
            box.contains(ball3, s.q, s.v, np.full(16, -1))


def test_sample_counts_below_one_are_rejected(disk):
    with pytest.raises(ConfigError):
        sample_mu_theta(disk, 0, 0)
    with pytest.raises(ConfigError):
        sample_blocks(lambda table, samples: None, disk, 0, 0)


def test_estimate_of_few_or_no_samples():
    empty = Estimate.from_samples([])
    assert empty.count == 0 and np.isnan(empty.mean) and np.isnan(empty.stderr)
    one = Estimate.from_samples([2.5])
    assert (one.mean, one.count, one.stderr) == (2.5, 1, float("inf"))
    assert one.merge(empty) is one
    assert empty.merge(one) is one
