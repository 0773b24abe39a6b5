import numpy as np
import pytest

from billiardlab.holography import (ScatteringDataset, boundary_param_map,
                                    conjugacy_residual, domain_reference_sample,
                                    generate_scattering_dataset, identity_map,
                                    reconstruct_chords, reflection_map,
                                    rotation_map, torus_translation_map,
                                    trajectory_atlas)
from billiardlab.lyapunov import build_well_balanced_F


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


# -- atlas -------------------------------------------------------------------


def test_atlas_disk_no_discontinuities(disk, disk_F):
    atlas = trajectory_atlas(disk, (24, 24), f=disk_F)
    assert atlas.edge_count == 0
    piece = atlas.pieces[0]
    assert np.all(piece.valid | ~piece.valid)  # shape sanity
    assert piece.entry_q.shape == (24, 24, 2)
    # F values recorded for every valid cell
    assert np.all(np.isfinite(piece.f_entry[piece.valid]))


def test_atlas_requires_resolution():
    import billiardlab.presets as presets

    with pytest.raises(ValueError):
        trajectory_atlas(presets.disk(), (4, 4))


def test_atlas_sinai_edges_form_curves(two_balls):
    coarse = trajectory_atlas(two_balls, (64, 64))
    fine = trajectory_atlas(two_balls, (128, 128))
    assert coarse.edge_count > 0
    ratio = fine.edge_count / coarse.edge_count
    assert 1.0 <= ratio <= 4.0  # curve-like growth under refinement


def test_atlas_injectivity_on_convex_table(disk):
    # distinct non-adjacent cells never share both endpoints on a convex table
    atlas = trajectory_atlas(disk, (16, 16))
    piece = atlas.pieces[0]
    nb, nt = atlas.grid
    ends = np.concatenate([piece.entry_q.reshape(-1, 2), piece.exit_q.reshape(-1, 2)], axis=1)
    cell_diam = piece.cell_diameter
    for i in range(ends.shape[0]):
        d = np.linalg.norm(ends - ends[i], axis=1)
        close = np.flatnonzero(d < 0.5 * cell_diam)
        for j in close:
            if j == i:
                continue
            bi, ti = divmod(i, nt)
            bj, tj = divmod(j, nt)
            assert abs(bi - bj) <= 1 or abs(bi - bj) >= nb - 1
            assert abs(ti - tj) <= 1


def test_atlas_csv_export(disk, disk_F, tmp_path):
    atlas = trajectory_atlas(disk, (8, 8), f=disk_F)
    path = tmp_path / "atlas.csv"
    atlas.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 1 + 8 * 8
    assert rows[0].startswith("piece,i,j,valid")


def _per_piece_atlas(table, grid, f=None):
    """The former atlas construction: each piece's grid rebuilt and traced on its own."""
    from billiardlab.dynamics import causality_batch

    nb, nt = grid
    space = table.space
    alphas = (np.arange(nb) + 0.5) / nb * 2.0 * np.pi
    thetas = (np.arange(nt) + 0.5) / nt * np.pi - np.pi / 2.0
    out = []
    for piece in table.pieces:
        cell_diam = float(piece.boundary_volume(space) / nb)
        q1 = piece.point_at_param(space, alphas)
        n1 = piece.inward_normal(space, q1)
        t1 = space.tangent_frame(q1, n1)[:, 0]
        th = np.tile(thetas, nb)
        big_v = (np.cos(th)[:, None] * np.repeat(n1, nt, axis=0)
                 + np.sin(th)[:, None] * np.repeat(t1, nt, axis=0))
        batch = causality_batch(table, np.repeat(q1, nt, axis=0), big_v)
        d = space.chart_dim
        entry_q, exit_q = batch.entry_q.reshape(nb, nt, d), batch.exit_q.reshape(nb, nt, d)
        valid = batch.ok.reshape(nb, nt)
        fe = fx = None
        if f is not None:
            fe, fx = np.full((nb, nt), np.nan), np.full((nb, nt), np.nan)
            ok = batch.ok
            fe.ravel()[np.flatnonzero(ok)] = f.value_batch(batch.entry_q[ok], batch.entry_v[ok])
            fx.ravel()[np.flatnonzero(ok)] = f.value_batch(batch.exit_q[ok], batch.exit_v[ok])
        jump_a = space.chart_distance(exit_q, np.roll(exit_q, -1, axis=0))
        jump_t = space.chart_distance(exit_q[:, :-1], exit_q[:, 1:])
        edge_a = valid & np.roll(valid, -1, axis=0) & (jump_a > 10.0 * cell_diam)
        edge_t = valid[:, :-1] & valid[:, 1:] & (jump_t > 10.0 * cell_diam)
        out.append((entry_q, exit_q, fe, fx, valid, edge_a, edge_t, cell_diam))
    return out


@pytest.mark.parametrize("name,grid,with_f", [("disk", (24, 16), True),
                                              ("torus-two-balls", (64, 48), False),
                                              ("cap-pi4", (16, 16), True)])
def test_atlas_equals_the_per_piece_construction(name, grid, with_f):
    import billiardlab.presets as presets

    table = presets.preset_table(name)
    f = build_well_balanced_F(table, seed=8) if with_f else None
    atlas = trajectory_atlas(table, grid, f=f)
    ref = _per_piece_atlas(table, grid, f)
    assert len(atlas.pieces) == len(ref)
    for piece, (*old, cell_diam) in zip(atlas.pieces, ref):
        assert piece.cell_diameter == cell_diam
        new = (piece.entry_q, piece.exit_q, piece.f_entry, piece.f_exit, piece.valid,
               piece.edge_alpha, piece.edge_theta)
        for a, b in zip(new, old):
            if b is None:
                assert a is None
            else:
                assert a.shape == b.shape
                assert np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                      np.ascontiguousarray(b).view(np.uint8))
