"""The batched chord cloud, its writers and its coverage search, against the
per-record code they replace.

`reference_cloud` is the per-record loop `reconstruct_chords` ran before it
was batched, with the one-pair `geodesic_between` of each space; the batched
cloud must equal it bit for bit.  The writers must write the bytes of
`np.savetxt` and of one `json.dumps` per record.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

from billiardlab.errors import AmbiguousGeodesic
from billiardlab.holography import (Reconstruction, ScatteringDataset, _nearest_distances,
                                    reconstruct_chords)
from billiardlab.spaces import Euclidean, FlatTorus, HyperbolicBall, Sphere, _mink_dot

SPACES = {
    "euclidean-2": Euclidean(2), "euclidean-3": Euclidean(3),
    "sphere-2": Sphere(2), "sphere-3": Sphere(3),
    "hyperbolic-2": HyperbolicBall(2), "hyperbolic-3": HyperbolicBall(3),
    "torus-2": FlatTorus((1.0, 1.3)), "torus-3": FlatTorus((1.0, 0.7, 1.2)),
}


def _one_pair_geodesic(space, qa, qb, count):
    """`geodesic_between` of one pair at `count` points, as each space computed it."""
    t = np.linspace(0.0, 1.0, count)
    if isinstance(space, Sphere):
        ang = float(space.distance(qa, qb))
        if ang > np.pi - 1e-8:
            raise AmbiguousGeodesic("antipodal endpoints on the sphere")
        if ang < 1e-12:
            return np.repeat(qa[None, :], count, axis=0)
        pts = (np.sin((1.0 - t) * ang)[:, None] * qa[None, :]
               + np.sin(t * ang)[:, None] * qb[None, :]) / np.sin(ang)
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if isinstance(space, HyperbolicBall):
        xa, xb = space.to_hyperboloid(qa), space.to_hyperboloid(qb)
        d = np.arccosh(max(-float(_mink_dot(xa, xb)), 1.0))
        if d < 1e-12:
            pts = np.repeat(xa[None, :], count, axis=0)
        else:
            pts = (np.sinh((1.0 - t) * d)[:, None] * xa[None, :]
                   + np.sinh(t * d)[:, None] * xb[None, :]) / np.sinh(d)
        return space.from_hyperboloid(pts)
    return (1.0 - t[:, None]) * qa[None, :] + t[:, None] * qb[None, :]


def reference_cloud(data, space, h):
    """Points, segment lengths and ambiguous skips of the per-record loop."""
    clouds, lengths, skipped = [], [], 0
    for i in range(len(data)):
        if isinstance(space, FlatTorus):
            ell = float(data.f_exit[i] - data.f_entry[i])
            k = max(int(np.ceil(ell / h)) + 1, 2)
            t = np.linspace(0.0, ell, k)
            pts = data.entry_q[i][None, :] + t[:, None] * data.entry_v[i][None, :]
            clouds.append(space.wrap(pts))
            lengths.append(ell)
            continue
        try:
            dist = float(space.distance(data.entry_q[i], data.exit_q[i]))
            k = max(int(np.ceil(dist / h)) + 1, 2)
            pts = _one_pair_geodesic(space, data.entry_q[i], data.exit_q[i], k)
        except AmbiguousGeodesic:
            skipped += 1
            continue
        clouds.append(pts)
        lengths.append(dist)
    points = np.concatenate(clouds) if clouds else np.empty((0, space.chart_dim))
    return points, np.asarray(lengths), skipped


def _random_points(space, rng, n):
    if isinstance(space, Sphere):
        q = rng.standard_normal((n, space.chart_dim))
        return q / np.linalg.norm(q, axis=1, keepdims=True)
    if isinstance(space, HyperbolicBall):
        q = rng.standard_normal((n, space.dim))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        return q * rng.uniform(0.0, 0.95, (n, 1))
    if isinstance(space, FlatTorus):
        return rng.uniform(0.0, 1.0, (n, space.dim)) * space.periods
    return rng.uniform(-1.0, 1.0, (n, space.dim))


def _random_tangents(space, q, rng):
    u = rng.standard_normal(q.shape)
    if isinstance(space, Sphere):
        u -= np.sum(u * q, axis=1, keepdims=True) * q
    return space.unit(q, u)


def _random_records(space, rng, n, zero, antipodal):
    """Chords of random length; the first `zero` have length 0, and on a
    sphere the next `antipodal` end at or within a few 1e-8 of the antipode."""
    q = _random_points(space, rng, n)
    v = _random_tangents(space, q, rng)
    ell = rng.uniform(0.0, 2.5, n)
    ell[:zero] = 0.0
    if isinstance(space, Sphere):
        ell[zero:zero + antipodal] = np.pi - rng.choice([0.0, 5e-9, 1e-8, 2e-8, 1e-6], antipodal)
    exit_q, exit_v = space.flow(q, v, ell)
    if isinstance(space, Sphere) and antipodal:
        exit_q[zero] = -q[zero]  # the exact antipode
    f_entry = rng.uniform(-1.0, 1.0, n)
    return ScatteringDataset(entry_q=q, entry_v=v, exit_q=exit_q, exit_v=exit_v,
                             f_entry=f_entry, f_exit=f_entry + ell, table_id="random")


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(SPACES)), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 700), zero=st.integers(0, 3), antipodal=st.integers(0, 3),
       h=st.sampled_from([0.004, 0.01, 0.03, 0.2, 3.0]))
def test_batched_cloud_equals_per_record_loop(name, seed, n, zero, antipodal, h):
    space = SPACES[name]
    data = _random_records(space, np.random.default_rng(seed), n, min(zero, n),
                           min(antipodal, n - min(zero, n)))
    recon = reconstruct_chords(data, space, h=h)
    points, lengths, skipped = reference_cloud(data, space, h)
    assert _same_bits(recon.points, points)
    assert _same_bits(recon.segment_lengths, lengths)
    assert recon.skipped_ambiguous == skipped


def test_near_antipodal_rows_are_skipped_and_counted():
    space = Sphere(2)
    data = _random_records(space, np.random.default_rng(4), 12, 2, 6)
    recon = reconstruct_chords(data, space, h=0.05)
    points, lengths, skipped = reference_cloud(data, space, 0.05)
    assert recon.skipped_ambiguous == skipped >= 2  # the exact antipode and pi - 5e-9
    assert _same_bits(recon.points, points)
    assert _same_bits(recon.segment_lengths, lengths)


def _special_values(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.0, 1.0, -2.5e-310, 0.1]
    flat = values.reshape(-1)
    flat[:len(special)] = special[:flat.size]
    return values


@pytest.mark.parametrize("shape", [(0, 2), (1, 2), (8193, 2), (5, 3)])
def test_cloud_csv_matches_savetxt(shape, tmp_path):
    points = _special_values(shape, sum(shape))
    Reconstruction(points, None, np.empty(0), 0).to_csv(tmp_path / "new.csv")
    np.savetxt(tmp_path / "old.csv", points, delimiter=",",
               header=",".join(f"x{i}" for i in range(shape[1])))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _assert_csv_is_savetxt(points, folder):
    Reconstruction(points, None, np.empty(0), 0).to_csv(folder / "new.csv")
    np.savetxt(folder / "old.csv", points, delimiter=",",
               header=",".join(f"x{i}" for i in range(points.shape[1])))
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@settings(max_examples=300)
@given(points=hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 3)),
                         elements=st.floats(width=64)))
def test_cloud_csv_matches_savetxt_on_any_floats(points, tmp_path_factory):
    """nan, +-inf, +-0.0 and subnormals included."""
    _assert_csv_is_savetxt(points, tmp_path_factory.mktemp("csv"))


def _pow10_and_neighbours(exponents):
    p = np.array([float(f"1e{k}") for k in exponents])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def _exponents_and_digit_runs():
    """Both signs of a value at every decimal exponent from -250 to 249, and of
    mantissas whose runs of 0s and 9s meet at every digit, each 4-digit group's
    edge among them, with their neighbouring floats."""
    runs = [f"{a}.{b * j}{c * (18 - j)}e{k}" for j in range(19) for k in ("-05", "+00", "+17")
            for a, b, c in (("1", "0", "9"), ("9", "9", "0"), ("1", "9", "0"), ("9", "0", "9"))]
    runs += ["1.000000000000000000e-05", "1.000099990000999900e+00", "9.999999999999998e-01"]
    mantissas = np.array([float(r) for r in runs])
    values = np.concatenate([[float(f"1.2345678901234567e{k}") for k in range(-250, 250)],
                             mantissas, np.nextafter(mantissas, 0.0),
                             np.nextafter(mantissas, np.inf)])
    return np.concatenate([values, -values]).reshape(-1, 2)


@pytest.mark.parametrize("points", [
    # every odd m / 2^20: the 19-digit decimal of each is an exact tie, rounded half to even
    np.arange(1, 2**20, 2).reshape(-1, 2) / 2.0**20,
    _pow10_and_neighbours(range(-300, 301)).reshape(-1, 3),
    -_pow10_and_neighbours([-250, 250]).reshape(-1, 1),
    _exponents_and_digit_runs(),
    *(_special_values((rows, 2), rows) for rows in (8191, 8192, 8193)),
], ids=["ties", "powers-of-ten", "fast-path-bounds", "exponents-and-digit-runs", "rows-8191",
        "rows-8192", "rows-8193"])
def test_cloud_csv_matches_savetxt_on_hard_cases(points, tmp_path):
    _assert_csv_is_savetxt(points, tmp_path)


def _old_jsonl_lines(data):
    return [json.dumps({
        "entry_q": data.entry_q[i].tolist(), "entry_v": data.entry_v[i].tolist(),
        "exit_q": data.exit_q[i].tolist(), "exit_v": data.exit_v[i].tolist(),
        "f_entry": float(data.f_entry[i]), "f_exit": float(data.f_exit[i]),
    }) + "\n" for i in range(len(data))]


@pytest.mark.parametrize("chart_dim", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 8193])
def test_jsonl_matches_json_dumps_and_round_trips(chart_dim, n, tmp_path):
    rng = np.random.default_rng(100 * chart_dim + n)

    def col(*shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        x.reshape(-1)[:4] = [-0.0, 1e-05, 1e16, 2.0][:x.size]
        return x

    data = ScatteringDataset(entry_q=col(n, chart_dim), entry_v=col(n, chart_dim),
                             exit_q=col(n, chart_dim), exit_v=col(n, chart_dim),
                             f_entry=col(n), f_exit=col(n), table_id="t", grid=(4, 8),
                             skipped=3)
    path = tmp_path / "scattering.jsonl"
    data.to_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    header = {"table_id": "t", "grid": (4, 8), "skipped": 3}
    assert lines == [json.dumps({"header": header}) + "\n"] + _old_jsonl_lines(data)
    back = ScatteringDataset.from_jsonl(path)
    for key in ("entry_q", "entry_v", "exit_q", "exit_v", "f_entry", "f_exit"):
        if n:
            assert _same_bits(getattr(back, key), getattr(data, key))
    assert (back.table_id, back.grid, back.skipped, len(back)) == ("t", (4, 8), 3, n)


def test_jsonl_rejects_non_finite_records(tmp_path):
    data = _random_records(Euclidean(2), np.random.default_rng(1), 3, 0, 0)
    data.f_exit[1] = np.nan
    with pytest.raises(ValueError):
        data.to_jsonl(tmp_path / "scattering.jsonl")


@pytest.mark.parametrize("dim", [2, 3])
def test_hyperbolic_coverage_equals_the_brute_force_minimum(dim):
    space = HyperbolicBall(dim)
    rng = np.random.default_rng(dim)
    cloud = _random_points(space, rng, 4000)
    # a shell near the ideal boundary, where Euclidean and hyperbolic nearness differ most
    rim = _random_points(space, rng, 500)
    cloud = np.concatenate([cloud, rim / np.linalg.norm(rim, axis=1, keepdims=True) * 0.995,
                            cloud[:50] + 1e-12])
    reference = np.concatenate([_random_points(space, rng, 300), cloud[:20]])
    brute = np.min(space.distance(reference[:, None, :], cloud[None, :, :]), axis=1)
    assert _same_bits(_nearest_distances(space, reference, cloud), brute)


@pytest.mark.parametrize("name", ["euclidean-2", "euclidean-3", "sphere-2", "sphere-3"])
def test_flat_and_sphere_coverage_equals_the_brute_force_minimum(name):
    space = SPACES[name]
    rng = np.random.default_rng(len(name))
    # repeated and nearly repeated points, where the tree's leaves decide among near-equals
    cloud = _random_points(space, rng, 3000)
    cloud = np.concatenate([cloud, cloud[:50], cloud[50:100] + 1e-12])
    reference = np.concatenate([_random_points(space, rng, 400), cloud[:20], cloud[60:70]])
    chord = np.sqrt(np.min(np.sum((reference[:, None, :] - cloud[None, :, :]) ** 2, -1), 1))
    brute = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)) if isinstance(space, Sphere) else chord
    assert _same_bits(_nearest_distances(space, reference, cloud), brute)


@pytest.mark.parametrize("name", ["torus-2", "torus-3"])
def test_torus_coverage_equals_the_fully_tiled_search(name):
    space = SPACES[name]
    rng = np.random.default_rng(len(name))
    # a sparse cloud, so that many nearest points are images across the box faces
    cloud = _random_points(space, rng, 40)
    reference = np.concatenate([_random_points(space, rng, 400), cloud[:10]])
    offs = [np.array(o) - 1 for o in np.ndindex(*([3] * space.dim))]
    tiled = np.concatenate([cloud + o * space.periods for o in offs])
    full = cKDTree(tiled).query(reference, k=1)[0]
    assert _same_bits(_nearest_distances(space, reference, cloud), full)
