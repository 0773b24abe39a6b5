import numpy as np
import pytest

import layers
import spans


def test_self_time_of_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 4], [3, 6] and [3.5, 5] cover [1, 6]; [8, 12] is clipped to [8, 10]
    start = [0.0, 1.0, 3.0, 3.5, 8.0]
    end = [10.0, 4.0, 6.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0, 0]
    out = spans.self_times(start, end, parent)
    assert out[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert out[1:] == pytest.approx([3.0, 3.0, 1.5, 4.0])


def test_install_wraps_every_binding_site_and_uninstall_restores():
    import billiardlab
    from billiardlab import cli, dynamics, ergodic, holography, presets, tables

    original = dynamics.causality_batch
    method = tables.Table.first_hit
    rec = layers.install(spans.Recorder())
    try:
        wrapped = dynamics.causality_batch
        assert wrapped is not original and wrapped.__wrapped__ is original
        for mod in (cli, ergodic, holography):
            assert mod.causality_batch is wrapped
        assert billiardlab.sample_mu_theta.__wrapped__ is not None
        assert tables.Table.first_hit is not method
        table = presets.disk()
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[-1.0, 0.0], [0.0, -1.0]])
        rec.begin_pass(1)
        batch = ergodic.causality_batch(table, q, v)
        rec.end_pass()
        assert batch.length == pytest.approx([2.0, 2.0])
        agg = rec.aggregate()
        assert agg["dynamics.causality_batch"]["rows"] == 2
        assert agg["tables.Table.first_hit"]["calls"] == 1
        assert agg["tables.Ball.ray_hit.euclidean"]["rows"] == 2
    finally:
        rec.uninstall()
    assert dynamics.causality_batch is original
    assert cli.causality_batch is original
    assert tables.Table.first_hit is method
