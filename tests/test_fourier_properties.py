"""Property tests of the Fourier-wall hit solver on random walls."""

import numpy as np
from hypothesis import given, settings, strategies as st

from billiardlab.dynamics import causality_batch
from billiardlab.measure import sample_mu_theta
from billiardlab.spaces import Euclidean
from billiardlab.tables import Ball, RadialFourierCurve, Table

coeffs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)


def _wall(base, amplitude, cos_c, sin_c, side):
    """Fourier wall whose harmonics sum in absolute value to `amplitude`."""
    c, s = np.array(cos_c), np.array(sin_c)
    total = np.sum(np.abs(c)) + np.sum(np.abs(s))
    scale = amplitude / total if total > 0 else 0.0
    return RadialFourierCurve(base, cos_coeffs=c * scale, sin_coeffs=s * scale, side=side)


def _check_chords(table, seed):
    s = sample_mu_theta(table, 64, seed=seed)
    batch = causality_batch(table, s.q, s.v)
    ok = np.flatnonzero(batch.ok)
    assert ok.size > 48
    # exits lie on the boundary
    assert np.max(np.abs(table.max_gauge(batch.exit_q[ok]))) <= 1e-9
    # chord replay and time reversal
    q2, _ = table.space.flow(batch.entry_q[ok], batch.entry_v[ok], batch.length[ok])
    assert np.max(table.space.chart_distance(q2, batch.exit_q[ok])) < 1e-8
    back = causality_batch(table, batch.exit_q[ok], -batch.exit_v[ok])
    assert np.max(np.abs(back.length - batch.length[ok])) < 1e-8
    # the first hit is the first sign change of a dense scan of the max gauge
    clean = ok[(np.abs(batch.entry_cos[ok]) > 1e-3) & (np.abs(batch.exit_cos[ok]) > 1e-3)]
    for i in clean[:6]:
        span = np.linspace(1e-6, batch.length[i] + 0.05, 20_001)
        pts, _ = table.space.flow(np.tile(s.q[i], (span.size, 1)),
                                  np.tile(s.v[i], (span.size, 1)), span)
        out = np.flatnonzero(table.max_gauge(pts) > 0.0)
        assert out.size and out[0] > 0
        assert span[out[0] - 1] <= batch.length[i] <= span[out[0]]


@settings(max_examples=30)
@given(amplitude=st.floats(0.02, 0.25), cos_c=coeffs, sin_c=coeffs, seed=st.integers(0, 2**16))
def test_random_outer_wall(amplitude, cos_c, sin_c, seed):
    wall = _wall(1.0, amplitude, cos_c, sin_c, "outer")
    _check_chords(Table(Euclidean(2), [wall], name="random-wall"), seed)


@settings(max_examples=30)
@given(amplitude=st.floats(0.01, 0.12), cos_c=coeffs, sin_c=coeffs, seed=st.integers(0, 2**16))
def test_random_obstacle_in_disk(amplitude, cos_c, sin_c, seed):
    blob = _wall(0.3, amplitude, cos_c, sin_c, "obstacle")
    table = Table(Euclidean(2), [Ball((0.0, 0.0), 1.0, side="outer"), blob], name="random-blob")
    _check_chords(table, seed)
