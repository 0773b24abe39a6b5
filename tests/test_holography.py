import numpy as np

from billiardlab import tables
from billiardlab.holography import (ScatteringDataset, boundary_param_map,
                                    conjugacy_residual, domain_reference_sample,
                                    generate_scattering_dataset, identity_map,
                                    reconstruct_chords, reflection_map,
                                    rotation_map, torus_translation_map)
from billiardlab.lyapunov import build_well_balanced_F
from billiardlab.spaces import Euclidean


def test_conjugacy_rotation_isometry(disk):
    res = conjugacy_residual(disk, disk, rotation_map(1.0), 2_000, seed=1)
    assert res.max_residual < 1e-9
    assert res.used > 1_900


def test_conjugacy_reflection_isometry(disk):
    res = conjugacy_residual(disk, disk, reflection_map(), 2_000, seed=2)
    assert res.max_residual < 1e-9


def test_conjugacy_torus_translation(two_balls):
    # translating by a full period is a deck isometry of the torus table
    phi = torus_translation_map((1.0, 0.0), two_balls.space.periods)
    res = conjugacy_residual(two_balls, two_balls, phi, 2_000, seed=3)
    assert res.max_residual < 1e-9


def test_conjugacy_disk_vs_ellipse_fails(disk, ellipse):
    # identify the boundaries by their angle parameter: the residual stays
    # order one because the scattering maps are genuinely non-conjugate
    phi = boundary_param_map(disk, ellipse)
    res = conjugacy_residual(disk, ellipse, phi, 2_000, seed=4)
    assert res.max_residual > 0.05
    same = conjugacy_residual(disk, disk, boundary_param_map(disk, disk), 2_000, seed=4)
    assert same.max_residual < 1e-9


def test_conjugacy_skips_every_row_when_no_image_is_usable(disk):
    # images off the second boundary (radius-2 disk), and images on it but outward
    big = tables.Table(Euclidean(2), [tables.Ball((0.0, 0.0), 2.0)], name="disk-r2")
    for table2, phi in ((big, identity_map()), (disk, lambda q, v: (q, -v))):
        res = conjugacy_residual(disk, table2, phi, 1_000, seed=4)
        assert (res.used, res.skipped) == (0, 1_000)
        assert np.isnan(res.max_residual) and np.isnan(res.mean_residual)


def test_conjugacy_derives_the_second_boundary_state_once(disk, monkeypatch):
    # one active_piece call per block (the second table's rows; the first
    # table's chords carry the sampler's state) and four normal derivations:
    # the sampler, the two exits and the second table's entries
    calls = {"active_piece": [], "inward_normal": []}
    for owner, name in ((tables.Table, "active_piece"), (tables.Ball, "inward_normal")):
        original = getattr(owner, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name].append(args[-1].shape[0])
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    res = conjugacy_residual(disk, disk, rotation_map(1.0), 10_000, seed=3, workers=1)
    assert res.used > 9_000 and res.max_residual < 1e-9
    assert calls["active_piece"] == [10_000]
    assert len(calls["inward_normal"]) == 4


def test_dataset_generation_and_roundtrip(disk, disk_F, tmp_path):
    data = generate_scattering_dataset(disk, disk_F, grid=(16, 16))
    assert len(data) + data.skipped == 16 * 16
    assert np.all(data.f_exit >= data.f_entry)
    path = tmp_path / "scattering.jsonl"
    data.to_jsonl(path)
    back = ScatteringDataset.from_jsonl(path)
    assert len(back) == len(data)
    assert np.allclose(back.entry_q, data.entry_q)
    assert np.allclose(back.f_exit, data.f_exit)
    assert back.table_id == data.table_id and back.grid == data.grid


def test_f_monotone_embedding(disk, disk_F):
    # within each record the F increment equals the chord length
    data = generate_scattering_dataset(disk, disk_F, grid=(12, 12))
    dist = disk.space.distance(data.entry_q, data.exit_q)
    assert np.max(np.abs((data.f_exit - data.f_entry) - dist)) < 1e-6


def test_single_diameter_chord_cloud(disk):
    data = ScatteringDataset(
        entry_q=np.array([[1.0, 0.0]]), entry_v=np.array([[-1.0, 0.0]]),
        exit_q=np.array([[-1.0, 0.0]]), exit_v=np.array([[-1.0, 0.0]]),
        f_entry=np.array([0.0]), f_exit=np.array([2.0]), table_id="disk")
    reference = domain_reference_sample(disk, 2_000, seed=5)
    recon = reconstruct_chords(data, disk.space, h=0.01, reference_points=reference)
    assert np.max(np.abs(recon.points[:, 1])) < 1e-12  # the segment itself
    assert 0.9 < recon.hausdorff < 1.01  # one chord covers little of the disk


def test_disk_grid_reconstruction_coverage(disk, disk_F):
    data = generate_scattering_dataset(disk, disk_F, grid=(32, 32))
    reference = domain_reference_sample(disk, 3_000, seed=6)
    recon = reconstruct_chords(data, disk.space, h=0.01, reference_points=reference)
    assert recon.hausdorff < 0.1
    # reconstruction consistency: the cloud stays in the closed domain
    assert np.max(disk.max_gauge(recon.points)) <= 1e-6


def test_torus_cloud_avoids_obstacles(two_balls):
    data = generate_scattering_dataset(two_balls, None, grid=(24, 24))
    recon = reconstruct_chords(data, two_balls.space, h=0.01)
    # no reconstructed point sits deeper than the resolution inside a ball
    assert np.max(two_balls.max_gauge(recon.points)) <= 0.01 + 1e-9


def test_sphere_reconstruction_skips_antipodal(cap):
    f = build_well_balanced_F(cap, seed=7)
    data = generate_scattering_dataset(cap, f, grid=(12, 12))
    recon = reconstruct_chords(data, cap.space, h=0.02)
    assert recon.skipped_ambiguous == 0  # cap chords are never antipodal
    assert np.max(cap.max_gauge(recon.points)) <= 1e-6


def test_hyperbolic_reconstruction(hyp_disk):
    f = build_well_balanced_F(hyp_disk, seed=8)
    data = generate_scattering_dataset(hyp_disk, f, grid=(16, 16))
    reference = domain_reference_sample(hyp_disk, 1_000, seed=9)
    recon = reconstruct_chords(data, hyp_disk.space, h=0.02, reference_points=reference)
    assert recon.hausdorff < 0.2
    dist = hyp_disk.space.distance(data.entry_q, data.exit_q)
    assert np.max(np.abs((data.f_exit - data.f_entry) - dist)) < 1e-6
