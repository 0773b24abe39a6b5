import numpy as np
import pytest

from billiardlab.dynamics import (Elastic, Rescaled, billiard_batch, causality_batch,
                                  orbit_batches, reflect_batch)
from billiardlab.ergodic import trapping_probe
from billiardlab.measure import sample_mu_theta


# -- causality map ------------------------------------------------------------


def test_disk_diameter_chord(disk):
    chord = causality_batch(disk, [1.0, 0.0], [-1.0, 0.0])
    assert abs(chord.length[0] - 2.0) < 1e-12
    assert np.allclose(chord.exit_q[0], [-1.0, 0.0], atol=1e-12)
    assert np.allclose(chord.exit_v[0], [-1.0, 0.0])


def test_disk_chord_at_pi_over_3(disk, entry_at):
    chord = causality_batch(disk, *entry_at(disk, 0.0, np.pi / 3))
    assert abs(chord.length[0] - 1.0) < 1e-12


def test_hyperbolic_radial_chord(hyp_disk):
    qb = np.array([np.tanh(0.5), 0.0])
    chord = causality_batch(hyp_disk, qb, hyp_disk.space.unit(qb[None], -qb[None]))
    assert abs(chord.length[0] - 2.0) < 1e-11
    assert np.allclose(chord.exit_q[0], [-np.tanh(0.5), 0.0], atol=1e-11)


def test_degenerate_tangent_chord_is_identity(disk):
    chord = causality_batch(disk, [1.0, 0.0], [0.0, 1.0])
    assert chord.degenerate[0]
    assert chord.length[0] == 0.0
    assert np.array_equal(chord.exit_q, chord.entry_q)
    assert np.array_equal(chord.exit_v, chord.entry_v)


def test_time_reversal(disk, hyp_disk, one_ball):
    rng = np.random.default_rng(10)
    for table in (disk, hyp_disk, one_ball):
        s = sample_mu_theta(table, 64, seed=31)
        batch = causality_batch(table, s.q, s.v)
        ok = batch.ok
        back = causality_batch(table, batch.exit_q[ok], -batch.exit_v[ok])
        assert np.max(np.abs(back.length - batch.length[ok])) < 1e-9
        assert np.max(table.space.chart_distance(back.exit_q, batch.entry_q[ok])) < 1e-9
        assert np.max(np.abs(back.exit_v + batch.entry_v[ok])) < 1e-9


def test_chord_replay(disk, hyp_disk, cap, one_ball):
    for table in (disk, hyp_disk, cap, one_ball):
        s = sample_mu_theta(table, 256, seed=32)
        batch = causality_batch(table, s.q, s.v)
        ok = batch.ok
        q2, v2 = table.space.flow(batch.entry_q[ok], batch.entry_v[ok], batch.length[ok])
        assert np.max(table.space.chart_distance(q2, batch.exit_q[ok])) < 1e-9
        assert np.max(np.abs(v2 - batch.exit_v[ok])) < 1e-9


# -- reflection ----------------------------------------------------------------


def test_elastic_component_flip(disk):
    # wall with inward normal (0, 1): velocity (0.6, -0.8) -> (0.6, 0.8)
    out = reflect_batch(Elastic(), disk, [0.0, -1.0], [0.6, -0.8])
    assert np.allclose(out[0], [0.6, 0.8], atol=1e-12)


def test_tangent_vector_fixed(disk):
    q, v = [1.0, 0.0], [0.0, 1.0]
    out = reflect_batch(Elastic(), disk, q, v)
    assert np.allclose(out[0], [0.0, 1.0], atol=1e-12)
    out = reflect_batch(Rescaled(stretch=1.9, axis=(1.0, 0.7)), disk, q, v)
    assert np.allclose(out[0], [0.0, 1.0], atol=1e-12)


def test_rescaled_with_identity_metric_matches_elastic(disk):
    rng = np.random.default_rng(2)
    ang = rng.uniform(0, 2 * np.pi, 10_000)
    q = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    d = rng.uniform(0, 2 * np.pi, 10_000)
    v = np.stack([np.cos(d), np.sin(d)], axis=1)
    ve = reflect_batch(Elastic(), disk, q, v)
    vr = reflect_batch(Rescaled(stretch=1.0, axis=(0.9, 0.1)), disk, q, v)
    assert np.max(np.linalg.norm(ve - vr, axis=1)) < 1e-12


@pytest.mark.parametrize("law", [Elastic(), Rescaled(stretch=1.6, axis=(1.0, 0.4))],
                         ids=["elastic", "rescaled"])
def test_reflection_involution_100k(disk, law):
    rng = np.random.default_rng(5)
    ang = rng.uniform(0, 2 * np.pi, 100_000)
    q = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    d = rng.uniform(0, 2 * np.pi, 100_000)
    v = np.stack([np.cos(d), np.sin(d)], axis=1)
    v2 = reflect_batch(law, disk, q, reflect_batch(law, disk, q, v))
    assert np.max(np.linalg.norm(v2 - v, axis=1)) < 1e-12


def test_elastic_cos_negation(disk, hyp_disk, cap):
    for table in (disk, hyp_disk, cap):
        s = sample_mu_theta(table, 128, seed=33)
        batch = causality_batch(table, s.q, s.v)
        ok = batch.ok
        v2 = reflect_batch(Elastic(), table, batch.exit_q[ok], batch.exit_v[ok])
        n = table.inward_normal_at(batch.exit_q[ok], batch.exit_piece[ok])
        cos2 = table.space.metric_dot(batch.exit_q[ok], v2, n)
        assert np.max(np.abs(cos2 + batch.exit_cos[ok])) < 1e-12


def test_rescaled_involution_on_curved_tables(hyp_disk, cap):
    law = Rescaled(stretch=1.4, axis=(0.8, 0.6, 0.2))
    for table in (hyp_disk, cap):
        axis = law.axis[: table.space.chart_dim]
        local = Rescaled(stretch=1.4, axis=axis)
        s = sample_mu_theta(table, 4096, seed=34)
        v1 = reflect_batch(local, table, s.q, s.v)
        v2 = reflect_batch(local, table, s.q, v1)
        assert np.max(np.abs(v2 - s.v)) < 1e-11


# -- billiard map and orbits -----------------------------------------------------


def test_disk_billiard_rotation_number(disk, entry_at):
    # integrable disk: each bounce advances the boundary angle by pi - 2 theta
    # (clockwise here: the canonical tangent frame is the clockwise one)
    theta = 0.7
    chord, nxt = billiard_batch(disk, Elastic(), *entry_at(disk, 0.3, theta))
    assert abs(chord.length[0] - 2 * np.cos(theta)) < 1e-12
    ang2 = np.arctan2(nxt.q[0, 1], nxt.q[0, 0])
    expected = np.mod(0.3 - (np.pi - 2 * theta), 2 * np.pi)
    assert abs(np.mod(ang2, 2 * np.pi) - expected) < 1e-9


def test_disk_diameter_period_two(disk):
    q, v = np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])
    chord1, z1 = billiard_batch(disk, Elastic(), q, v)
    chord2, z2 = billiard_batch(disk, Elastic(), z1.q, z1.v, z1.piece, z1.normal)
    assert abs(chord1.length[0] - 2.0) < 1e-12 and abs(chord2.length[0] - 2.0) < 1e-12
    assert np.allclose(z2.q, q, atol=1e-9)
    assert np.allclose(z2.v, v, atol=1e-9)


def test_disk_octagon_orbit(disk, entry_at):
    kinds, (chords,) = orbit_batches(disk, Elastic(), *entry_at(disk, 0.0, np.pi / 4), 8)
    assert kinds == ["completed"]
    assert len(chords) == 8
    assert np.max(np.abs(chords.length - np.sqrt(2.0))) < 1e-12


def test_disk_incidence_invariant_1000_bounces(disk, entry_at):
    theta = 1.0
    kinds, (chords,) = orbit_batches(disk, Elastic(), *entry_at(disk, 0.0, theta), 1000)
    assert kinds == ["completed"]
    assert np.max(np.abs(chords.length - 2 * np.cos(theta))) < 1e-9
    assert np.max(np.abs(chords.entry_cos - np.cos(theta))) < 1e-9


def test_degenerate_start_single_chord(disk):
    kinds, (chords,) = orbit_batches(disk, Elastic(), [1.0, 0.0], [0.0, 1.0], 1)
    assert kinds == ["completed"]
    assert len(chords) == 1
    assert chords.degenerate[0]


def test_sinai_one_bounce_closed_form(one_ball):
    # ray from the east point of the obstacle along +x hits the periodic
    # image at (1.5, 0.5): s = 1 - 2r analytically
    chord, nxt = billiard_batch(one_ball, Elastic(), [0.75, 0.5], [1.0, 0.0])
    assert abs(chord.length[0] - 0.5) < 1e-12
    assert np.allclose(chord.exit_q[0], [0.25, 0.5], atol=1e-12)
    assert np.allclose(nxt.v[0], [-1.0, 0.0], atol=1e-12)


def test_two_obstacle_orbit_invariants(two_balls):
    s = sample_mu_theta(two_balls, 1, seed=35)
    kinds, (chords,) = orbit_batches(two_balls, Elastic(), s.q, s.v, 2000)
    assert kinds == ["completed"]
    space = two_balls.space
    # consecutive chords: entry = reflection of the previous exit
    assert np.allclose(chords.entry_q[1:], chords.exit_q[:-1], atol=1e-9)
    ref = reflect_batch(Elastic(), two_balls, chords.exit_q[:-1], chords.exit_v[:-1])
    assert np.allclose(chords.entry_v[1:], ref, atol=1e-9)
    q2, _ = space.flow(chords.entry_q[1:], chords.entry_v[1:], chords.length[1:])
    assert np.max(space.chart_distance(q2, chords.exit_q[1:])) < 1e-9


# -- trapping probe ---------------------------------------------------------------


def test_probe_disk(disk):
    probe = trapping_probe(disk, 20_000, seed=3)
    assert probe.escape_fraction == 1.0
    assert probe.max_chord <= 2.0 + 1e-9
    assert probe.max_chord > 1.999
    assert probe.gd_stabilized


def test_probe_one_ball_grows(one_ball):
    probe = trapping_probe(one_ball, 20_000, seed=3)
    assert probe.escape_fraction > 0.999
    # unbounded free paths: the longest chord keeps growing with the sample
    assert not probe.gd_stabilized
    prog = probe.max_chord_progression
    assert prog[-1] > 1.5 * prog[0]


def test_probe_two_balls_bounded(two_balls):
    probe = trapping_probe(two_balls, 20_000, seed=3)
    assert probe.escape_fraction == 1.0
    assert probe.gd_stabilized
    assert probe.max_chord < 3.0


def free_line_exists(table, angles=360, offsets=80, span=30.0):
    """Scan directions and offsets for a line missing all obstacles."""
    space = table.space
    centers = np.array([p.center for p in table.pieces])
    radii = np.array([p.radius for p in table.pieces])
    t = np.linspace(0.0, span, int(span * 64))
    for ang in np.linspace(0, np.pi, angles, endpoint=False):
        v = np.array([np.cos(ang), np.sin(ang)])
        nrm = np.array([-v[1], v[0]])
        for off in np.linspace(0.0, 1.0, offsets, endpoint=False):
            pts = space.wrap(off * nrm + t[:, None] * v)
            if all(np.min(space.distance(pts, c)) >= r
                   for c, r in zip(centers, radii)):
                return True
    return False


def direction_blocked(p, q, balls):
    """Exact channel oracle for a rational direction on the unit torus.

    Lines of direction (p, q) project the obstacle lattices onto the unit
    normal as arithmetic progressions of spacing 1/sqrt(p^2+q^2); a free
    line exists iff some offset clears every ball radius, i.e. iff the
    radius-arcs fail to cover the offset circle.
    """
    length = np.hypot(p, q)
    spacing = 1.0 / length
    u = np.array([q, -p]) / length
    arcs = []
    for center, radius in balls:
        if 2.0 * radius >= spacing:
            return True  # one lattice alone covers every offset
        t0 = np.mod(np.dot(center, u), spacing)
        arcs.append((t0 - radius, t0 + radius))
    # normalize arcs into [0, spacing) and test circle coverage
    events = []
    for lo, hi in arcs:
        width = min(hi - lo, spacing)
        lo = np.mod(lo, spacing)
        hi = lo + width
        if hi <= spacing:
            events.append((lo, hi))
        else:
            events.append((lo, spacing))
            events.append((0.0, hi - spacing))
    events.sort()
    covered = 0.0
    for lo, hi in events:
        if lo > covered + 1e-15:
            return False  # gap: a free line fits there
        covered = max(covered, hi)
    return covered >= spacing - 1e-15


def coprime_directions(radius_sq):
    out = []
    for p in range(0, int(np.sqrt(radius_sq)) + 1):
        for q in range(-int(np.sqrt(radius_sq)), int(np.sqrt(radius_sq)) + 1):
            if p == 0 and q <= 0 or (p, q) == (0, 0):
                continue
            if p * p + q * q <= radius_sq and np.gcd(p, q) == 1:
                out.append((p, q))
    return out


def test_two_ball_configuration_blocks_all_lines(two_balls, one_ball):
    balls = [(np.asarray(p.center), p.radius) for p in two_balls.pieces]
    r_max = max(r for _, r in balls)
    # directions with spacing <= 2 r_max are covered by the larger ball
    # alone; only finitely many sparser directions need the two-arc check
    bound = int(np.ceil(1.0 / (2.0 * r_max) ** 2)) + 1
    for p, q in coprime_directions(bound + 2):
        assert direction_blocked(p, q, balls), f"open channel along {(p, q)}"
    # irrational directions are dense on the torus, hence always blocked
    one = [(np.asarray(p.center), p.radius) for p in one_ball.pieces]
    assert not direction_blocked(1, 0, one)  # the single ball leaves channels
    assert free_line_exists(one_ball)


def test_probe_respects_l_max_override(one_ball):
    probe_short = trapping_probe(one_ball.with_l_max(3.0), 5_000, seed=4)
    probe_long = trapping_probe(one_ball.with_l_max(300.0), 5_000, seed=4)
    assert probe_short.max_chord <= 3.0
    assert probe_long.max_chord > probe_short.max_chord
    assert probe_short.escape_fraction < 1.0


def test_rescaled_involution_on_two_balls(two_balls):
    law = Rescaled(stretch=1.8, axis=(0.0, 1.0))
    s = sample_mu_theta(two_balls, 4_096, seed=77)
    v1 = reflect_batch(law, two_balls, s.q, s.v)
    v2 = reflect_batch(law, two_balls, s.q, v1)
    assert np.max(np.abs(v2 - s.v)) < 1e-12
    # a stretched metric reflects differently from the elastic law on both pieces
    ve = reflect_batch(Elastic(), two_balls, s.q, s.v)
    for k in (0, 1):
        assert np.max(np.abs(ve[s.piece == k] - v1[s.piece == k])) > 1e-3
