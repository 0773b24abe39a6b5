import numpy as np
import pytest

from billiardlab.dynamics import causality_batch
from billiardlab.errors import BodyTooSmall
from billiardlab.lyapunov import (EnclosingBody, build_well_balanced_F, delta_F_batch,
                                  slice_area_curve,
                                  var_F_boundary, default_enclosing_body)
from billiardlab.measure import sample_mu_theta, trajectory_space_volume
from billiardlab.presets import disk as make_disk
from billiardlab.tables import Ball, Table


def test_default_bodies(disk, hyp_disk, cap):
    b = default_enclosing_body(disk)
    assert b.radius == 2.0
    b = default_enclosing_body(hyp_disk)
    assert b.radius == 2.0  # geodesic radius, twice the table radius
    b = default_enclosing_body(cap)
    assert abs(b.radius - 0.5 * (np.pi / 4 + np.pi / 2)) < 1e-15


def test_f_value_ray_circle_oracle(disk_F):
    # backward ray from (1,0) along direction (1,0) meets |q| = 2 at (2,0):
    # the travelled arclength to the evaluation point is 1
    assert abs(disk_F.value_batch([1.0, 0.0], [-1.0, 0.0])[0] - 1.0) < 1e-12
    # generic entry: backward distance from the chord's enclosing-circle
    # crossing, impact parameter sin(theta)
    theta = 0.6
    n = np.array([-1.0, 0.0])
    t = np.array([0.0, 1.0])
    v = np.cos(theta) * n + np.sin(theta) * t
    expected = np.sqrt(4.0 - np.sin(theta) ** 2) - np.cos(theta)
    assert abs(disk_F.value_batch([1.0, 0.0], v)[0] - expected) < 1e-12


def test_f_additivity_along_flow(disk, disk_F):
    rng = np.random.default_rng(1)
    s = sample_mu_theta(disk, 64, seed=2)
    batch = causality_batch(disk, s.q, s.v)
    for i in range(16):
        q, v = s.q[i:i + 1], s.v[i:i + 1]
        f0 = disk_F.value_batch(q, v)[0]
        for frac in rng.uniform(0.05, 0.95, 4):
            step = frac * batch.length[i]
            q2, v2 = disk.space.flow(q, v, np.array([step]))
            assert abs(disk_F.value_batch(q2, v2)[0] - f0 - step) < 1e-9


def test_f_wellbalanced_random_pairs(disk, disk_F):
    # dF along the flow is 1: F(flow(z, s)) - F(z) = s for 10^4 pairs
    rng = np.random.default_rng(3)
    s = sample_mu_theta(disk, 10_000, seed=4)
    batch = causality_batch(disk, s.q, s.v)
    f0 = disk_F.value_batch(s.q, s.v)
    frac = rng.uniform(0.0, 1.0, 10_000)
    step = frac * batch.length
    q2, v2 = disk.space.flow(s.q, s.v, step)
    f1 = disk_F.value_batch(q2, v2)
    assert np.max(np.abs(f1 - f0 - step)) < 1e-9


def test_hyperbolic_f_against_chart_integration(hyp_disk):
    f = build_well_balanced_F(hyp_disk, seed=6)
    qb = np.array([np.tanh(0.5), 0.0])
    v = hyp_disk.space.unit(qb[None], -qb[None])[0]
    # radial entry: backward crossing of the radius-2 ball at chart tanh(1)
    value = f.value_batch(qb, v)[0]
    assert abs(value - 1.0) < 1e-10
    # oracle: integrate the conformal line element along the chart segment
    r = np.linspace(np.tanh(0.5), np.tanh(1.0), 200_001)
    length = np.trapezoid(2.0 / (1.0 - r * r), r)
    assert abs(value - length) < 1e-8


def test_delta_f_examples(disk, disk_F):
    # a diameter, and a tangent start (a degenerate chord)
    chords = causality_batch(disk, [[1.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 1.0]])
    df = delta_F_batch(disk_F, chords)
    assert abs(df[0] - 2.0) < 1e-12
    assert df[1] == 0.0
    rng = np.random.default_rng(5)
    s = sample_mu_theta(disk, 512, seed=7)
    batch = causality_batch(disk, s.q, s.v)
    df = delta_F_batch(disk_F, batch)
    assert np.max(np.abs(df - batch.length)) < 1e-9


def test_body_too_small_rejected(disk):
    # the table boundary must lie strictly inside the body
    with pytest.raises(BodyTooSmall):
        build_well_balanced_F(disk, EnclosingBody(center=(0.0, 0.0), radius=1.0))
    with pytest.raises(BodyTooSmall):
        build_well_balanced_F(disk, EnclosingBody(center=(0.5, 0.0), radius=1.2))


def test_tight_body_still_valid(disk):
    # any strictly containing ball crosses every extended chord
    # transversally, so a tight body is legitimate
    f = build_well_balanced_F(disk, EnclosingBody(center=(0.0, 0.0), radius=1.05))
    chord = causality_batch(disk, [1.0, 0.0], [-1.0, 0.0])
    df = f.value_batch(chord.exit_q, chord.exit_v) - f.value_batch(chord.entry_q, chord.entry_v)
    assert abs(df[0] - 2.0) < 1e-10


def test_var_f_disk_grid_oracle(disk, disk_F):
    v = var_F_boundary(disk, disk_F, 30_000, seed=8)
    # dense-grid oracle over the two-parameter boundary phase space: F at
    # (boundary angle, direction angle) spans [1, 3] for the radius-2 body
    ang = np.linspace(0, 2 * np.pi, 73)[:-1]
    dirs = np.linspace(0, 2 * np.pi, 181)[:-1]
    qs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    values = []
    for d in dirs:
        vv = np.tile([np.cos(d), np.sin(d)], (ang.size, 1))
        values.append(disk_F.value_batch(qs, vv))
    values = np.concatenate(values)
    assert values.min() > 1.0 - 1e-9 and values.max() < 3.0 + 1e-9
    assert abs(v.f_min - 1.0) < 5e-3
    assert abs(v.f_max - 3.0) < 5e-3
    assert abs(v.var - 2.0) < 1e-2


def test_var_f_rotation_invariance():
    # var(F) computed on a rotated copy of the table is identical
    t1 = make_disk()
    t2 = Table(t1.space, [Ball((0.0, 0.0), 1.0, side="outer")], name="disk-rot")
    f1 = build_well_balanced_F(t1, seed=9)
    f2 = build_well_balanced_F(t2, seed=9)
    v1 = var_F_boundary(t1, f1, 20_000, seed=10)
    v2 = var_F_boundary(t2, f2, 20_000, seed=10)
    assert abs(v1.var - v2.var) < 1e-9


def test_var_f_monotone_in_count(disk, disk_F):
    spans = []
    for count in (2_000, 8_000, 32_000):
        v = var_F_boundary(disk, disk_F, count, seed=11)
        spans.append(v.f_max - v.f_min)
    assert spans[0] <= spans[1] + 1e-12
    assert spans[1] <= spans[2] + 1e-12


def test_slice_trivials(disk, disk_F):
    # levels below F_min, above F_max, and at sqrt(3)
    below, above, mid = slice_area_curve(disk, disk_F, [0.5, 3.5, np.sqrt(3.0)], 20_000, seed=12)
    assert below.mean == 0.0
    assert above.mean == 0.0
    # every chord straddles the level sqrt(3): the slice carries full mass
    assert abs(mid.mean - trajectory_space_volume(disk)) < 1e-9


def test_slice_curve_bound_and_integral(disk, disk_F):
    grid = np.linspace(1.0, 3.0, 60)
    curve = slice_area_curve(disk, disk_F, grid, 50_000, seed=13)
    areas = np.array([e.mean for e in curve])
    bound = trajectory_space_volume(disk)
    assert np.all(areas <= bound + 1e-9)
    assert np.all(areas >= 0.0)
    integral = np.trapezoid(areas, grid)
    assert abs(integral - 2 * np.pi ** 2) < 0.02 * 2 * np.pi ** 2


def test_slice_curve_on_curved_tables(hyp_disk, cap):
    # bound A(t) <= trajectory-space volume holds on curved tables too
    for table in (hyp_disk, cap):
        f = build_well_balanced_F(table, seed=14)
        v = var_F_boundary(table, f, 4_000, seed=15)
        grid = np.linspace(v.f_min, v.f_max, 24)
        curve = slice_area_curve(table, f, grid, 20_000, seed=16)
        areas = np.array([e.mean for e in curve])
        assert np.all(areas <= trajectory_space_volume(table) + 1e-9)
        from billiardlab.measure import domain_volumes, unit_sphere_volume
        integral = np.trapezoid(areas, grid)
        predicted = unit_sphere_volume(table.space.dim - 1) * domain_volumes(table).vol_m
        assert abs(integral - predicted) < 0.05 * predicted


# -- F as the enclosing ball's own root ------------------------------------------


def _one_piece_first_hit(table, f, q, v):
    """The former evaluator: a one-piece table of the body's wall, traced by first_hit."""
    from billiardlab.tables import Tolerances

    tol = Tolerances(hit_tol=table.tol.hit_tol, grazing_tol=table.tol.grazing_tol,
                     l_max=16.0 * max(f.body.radius, 1.0) + 16.0)
    wall = Ball(np.asarray(f.body.center, dtype=float), f.body.radius, side="outer")
    return Table(table.space, [wall], tol, name="enclosing-ball", check=False).first_hit(q, v)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", ["disk", "ball3", "hyperbolic-disk-1", "cap-pi4", "ellipse"])
def test_f_and_crossing_cosines_equal_the_one_piece_table(name):
    from billiardlab.presets import preset_table

    table = preset_table(name)
    f = build_well_balanced_F(table, seed=3)
    s = sample_mu_theta(table, 16_384, seed=21)
    batch = causality_batch(table, s.q, s.v)
    ok = batch.ok
    for q, v in ((batch.entry_q[ok], batch.entry_v[ok]), (batch.exit_q[ok], batch.exit_v[ok])):
        ref = _one_piece_first_hit(table, f, q, -v)
        assert not ref.trapped.any()
        assert np.array_equal(_bits(f.value_batch(q, v)), _bits(ref.s))
        assert np.array_equal(_bits(f.exit_cos(q, -v)), _bits(ref.cos_in))
    # forward from the exits, the direction the pilot extends a chord
    ref = _one_piece_first_hit(table, f, batch.exit_q[ok], batch.exit_v[ok])
    assert np.array_equal(_bits(f.exit_cos(batch.exit_q[ok], batch.exit_v[ok])),
                          _bits(ref.cos_in))
