import numpy as np
import pytest

from billiardlab.dynamics import Elastic, orbit_batches
from billiardlab.ergodic import (ChordLength, DeltaF, hear_volume, inequality_report,
                                 mean_free_path, mean_free_path_prediction,
                                 recurrence_test, space_average, time_average_many,
                                 trapping_probe)
from billiardlab.errors import DegenerateSet, EmptySequence, TooManyTrapped
from billiardlab.measure import Estimate, PhaseBox, domain_volumes, sample_mu_theta
from billiardlab.presets import torus_one_ball


# -- space averages -------------------------------------------------------------


def test_disk_space_average(disk):
    sa = space_average(disk, ChordLength(), 60_000, seed=1)
    assert abs(sa.mean - np.pi / 2) < 3 * sa.stderr
    assert sa.trapped_fraction == 0.0


def test_ball3_space_average(ball3):
    sa = space_average(ball3, ChordLength(), 60_000, seed=2)
    assert abs(sa.mean - 4.0 / 3.0) < 3 * sa.stderr


def test_delta_f_observable_matches_chord_length(disk, disk_F):
    a = space_average(disk, ChordLength(), 20_000, seed=3)
    b = space_average(disk, DeltaF(disk_F), 20_000, seed=3)
    assert abs(a.mean - b.mean) < 1e-9
    assert a.count == b.count


def test_mfp_formula_consistency_all_presets(disk, ball3, hyp_disk, cap, two_balls):
    for table in (disk, ball3, hyp_disk, cap, two_balls):
        rep = mean_free_path(table, count=60_000, seed=4)
        assert abs(rep.space.mean - rep.prediction) < 3 * rep.space.stderr, table.name


def test_mfp_example_formula_torus():
    # complement of a radius-eps ball in the unit torus:
    # prediction = pi (1 - pi eps^2) / (2 pi eps)
    eps = 0.1
    table = torus_one_ball(eps)
    pred, _ = mean_free_path_prediction(table)
    assert abs(pred - np.pi * (1 - np.pi * eps ** 2) / (2 * np.pi * eps)) < 1e-12
    assert abs(pred - 4.84292) < 1e-4


def test_too_many_trapped_raises(one_ball):
    short = one_ball.with_l_max(0.6)  # most chords exceed the cap
    with pytest.raises(TooManyTrapped):
        space_average(short, ChordLength(), 2_000, seed=5)


# -- time averages ----------------------------------------------------------------


def test_disk_diameter_time_average(disk):
    _, running, _, ends = time_average_many(disk, Elastic(), ChordLength(),
                                            [1.0, 0.0], [-1.0, 0.0], 64)
    assert ends.tolist() == ["completed"]
    assert np.all(np.abs(running[0] - 2.0) < 1e-12)


def test_disk_irrational_rotation_time_average(disk, entry_at):
    # incidence 1 rad is invariant: every chord has length 2 cos(1)
    checkpoints, running, _, ends = time_average_many(disk, Elastic(), ChordLength(),
                                                      *entry_at(disk, 0.0, 1.0), 4_000)
    assert ends.tolist() == ["completed"]
    assert abs(running[0, -1] - 2 * np.cos(1.0)) < 1e-9
    assert checkpoints[-1] == 4_000
    assert checkpoints[0] == 1


def test_time_average_checkpoints_powers_of_two(disk, entry_at):
    checkpoints, running, _, _ = time_average_many(disk, Elastic(), ChordLength(),
                                                   *entry_at(disk, 0.2, 0.5), 100)
    assert checkpoints == [1, 2, 4, 8, 16, 32, 64, 100]
    assert running.shape == (1, 8)


def test_stopped_orbits_keep_the_mean_of_their_chords():
    # at l_max 5 some torus orbits run free past the cap (trapped), others complete
    table = torus_one_ball().with_l_max(5.0)
    starts = sample_mu_theta(table, 64, seed=21)
    checkpoints, running, done, ends = time_average_many(table, Elastic(), ChordLength(),
                                                         starts.q, starts.v, 40)
    kinds, batches = orbit_batches(table, Elastic(), starts.q, starts.v, 40)
    assert ends.tolist() == kinds
    stopped = np.flatnonzero(ends != "completed")
    assert 0 < stopped.size < 64 and np.all(done[stopped] < 40)
    for i in stopped:
        lengths = batches[i].length[~batches[i].stops]
        assert done[i] == lengths.size
        if not lengths.size:  # no chord, no mean
            assert np.isnan(running[i]).all()
            continue
        final = np.mean(lengths)
        # every checkpoint past the stop holds the final partial mean
        assert np.all(running[i, np.array(checkpoints) > done[i]] == running[i, -1])
        assert abs(running[i, -1] - final) <= 1e-12 * max(final, 1.0)


def test_an_orbit_with_no_chord_has_no_mean():
    table = torus_one_ball().with_l_max(0.3)
    checkpoints, running, done, ends = time_average_many(table, Elastic(), ChordLength(),
                                                         [[0.75, 0.5]], [[1.0, 0.0]], 8)
    assert done.tolist() == [0] and ends.tolist() == ["trapped"]
    assert running.shape == (1, len(checkpoints)) and np.isnan(running).all()


@pytest.fixture(scope="module")
def sinai_orbits(two_balls):
    starts = sample_mu_theta(two_balls, 4, seed=7)
    return time_average_many(two_balls, Elastic(), ChordLength(),
                             starts.q, starts.v, 20_000)


def test_sinai_time_average_matches_space_average(two_balls, sinai_orbits):
    sa = space_average(two_balls, ChordLength(), 100_000, seed=6)
    cps, running, done, term = sinai_orbits
    assert np.all(done == 20_000)
    gaps = np.abs(running[:, -1] - sa.mean) / sa.mean
    assert np.sum(gaps < 0.02) >= 3  # ergodic agreement for most starters


# -- hearing the volume --------------------------------------------------------------


def test_hear_volume_constant_sequence():
    running = hear_volume(np.full(100, np.pi / 2), 2 * np.pi, 2)
    assert np.max(np.abs(running - np.pi)) < 1e-12


def test_hear_volume_shuffle_invariant():
    rng = np.random.default_rng(8)
    lengths = rng.uniform(0.3, 1.7, 5_000)
    a = hear_volume(lengths, 2 * np.pi, 2)[-1]
    b = hear_volume(rng.permutation(lengths), 2 * np.pi, 2)[-1]
    assert abs(a - b) < 1e-12


def test_hear_volume_round_trip(two_balls, sinai_orbits):
    from billiardlab.measure import domain_volumes

    vols = domain_volumes(two_balls)
    cps, running, done, term = sinai_orbits
    est = hear_volume(np.full(1, running[0, -1]), vols.vol_dm, 2)[-1]
    assert abs(est - vols.vol_m) / vols.vol_m < 0.02


def test_hear_volume_empty_raises():
    with pytest.raises(EmptySequence):
        hear_volume(np.array([]), 1.0, 2)


# -- recurrence -------------------------------------------------------------------


def test_recurrence_zero_bounces(disk):
    # no orbit to follow: rejected, not reported as a return fraction of 0
    box = PhaseBox(piece=0, boundary=(0.0, 0.1), incidence=(0.4, 0.6))
    with pytest.raises(ValueError, match="bounces must be at least 1"):
        recurrence_test(disk, Elastic(), box, 32, 0, seed=10)


def test_recurrence_monotone_in_bounces(disk):
    box = PhaseBox(piece=0, boundary=(0.0, 0.1), incidence=(0.4, 0.6))
    prev_frac, prev_count = 0.0, 0.0
    for m in (50, 200, 800):
        res = recurrence_test(disk, Elastic(), box, 64, m, seed=11)
        assert res.returned_fraction >= prev_frac - 1e-12
        assert res.mean_return_count >= prev_count - 1e-12
        prev_frac, prev_count = res.returned_fraction, res.mean_return_count


def test_recurrence_disk_box(disk):
    box = PhaseBox(piece=0, boundary=(0.0, 0.1), incidence=(0.4, 0.6))
    res = recurrence_test(disk, Elastic(), box, 64, 2_000, seed=12)
    assert res.returned_fraction > 0.95  # circle rotation returns quickly


# -- inequality report -----------------------------------------------------------


def test_inequality_report_disk(disk, disk_F):
    probe = trapping_probe(disk, 20_000, seed=13)
    rep = inequality_report(disk, f=disk_F, probe=probe, count=40_000, seed=13)
    byname = {c.name: c for c in rep.checks}
    gd = byname["geodesic-diameter bound"]
    assert gd.status == "pass"
    # disk margin: rhs over lhs approaches 4 / pi with gd -> 2
    assert abs(gd.rhs - 4.0) < 0.01
    assert abs(gd.lhs - np.pi) < 1e-12
    assert abs(gd.margin - 4.0 / np.pi) < 0.01
    assert byname["slice-area bound"].status == "pass"
    assert byname["slice-average identity"].status == "pass"
    assert rep.passed


def test_inequality_report_ball3(ball3):
    probe = trapping_probe(ball3, 20_000, seed=14)
    rep = inequality_report(ball3, f=None, probe=probe, count=20_000, seed=14)
    byname = {c.name: c for c in rep.checks}
    gd = byname["geodesic-diameter bound"]
    assert gd.status == "pass"
    # ball margin: rhs = 2 pi against lhs = 4 pi / 3
    assert abs(gd.rhs - 2 * np.pi) < 0.02
    assert abs(gd.lhs - 4 * np.pi / 3) < 1e-12
    assert byname["slice-area bound"].status == "skipped"
    assert rep.passed


def test_inequality_report_notes_unstable_gd(one_ball):
    probe = trapping_probe(one_ball, 20_000, seed=15)
    rep = inequality_report(one_ball, f=None, probe=probe, count=20_000, seed=15)
    gd = next(c for c in rep.checks if c.name == "geodesic-diameter bound")
    assert "not stabilized" in gd.note


def test_hear_volume_round_trip_all_presets(disk, ball3, hyp_disk, cap, two_balls):
    from billiardlab.measure import domain_volumes, unit_ball_volume, unit_sphere_volume

    for table in (disk, ball3, hyp_disk, cap, two_balls):
        n = table.space.dim
        vols = domain_volumes(table)
        sa = space_average(table, ChordLength(), 40_000, seed=16)
        est = hear_volume(np.array([sa.mean]), vols.vol_dm, n)[-1]
        scale = unit_ball_volume(n - 1) / unit_sphere_volume(n - 1) * vols.vol_dm
        assert abs(est - vols.vol_m) < 3 * sa.stderr * scale, table.name


def test_mfp_report_documents_cap():
    rep = mean_free_path(torus_one_ball(0.1), count=5_000, seed=17)
    assert "cap" in rep.note and "capped fraction" in rep.note


def test_space_average_is_an_estimate_with_its_exclusions(one_ball):
    sa = space_average(one_ball.with_l_max(10.0), ChordLength(), 4_000, seed=6)
    whole = Estimate(mean=sa.mean, count=sa.count, m2=sa.m2)
    assert isinstance(sa, Estimate) and sa.stderr == whole.stderr
    assert 0.0 < sa.trapped_fraction <= 0.01
    assert sa.count == 4_000 - round((sa.trapped_fraction + sa.grazing_fraction) * 4_000)


def test_mean_free_path_report_keeps_its_volumes(two_balls):
    rep = mean_free_path(two_balls, count=2_000, seed=1)
    assert rep.volumes == domain_volumes(two_balls)
    assert rep.prediction == mean_free_path_prediction(two_balls)[0]


def test_small_probe_does_not_judge_the_tail(disk):
    probe = trapping_probe(disk, 100, seed=1)
    assert probe.gd_stabilized and probe.escape_fraction == 1.0


def test_recurrence_on_an_empty_box_raises(disk):
    # no inward direction has a signed incidence angle above pi / 2
    with pytest.raises(DegenerateSet):
        recurrence_test(disk, Elastic(), PhaseBox(piece=0, incidence=(2.0, 3.0)), 4, 10, seed=0)
