import inspect
import re

import numpy as np
import pytest

from billiardlab import spaces
from billiardlab.config import table_from_dict
from billiardlab.errors import AmbiguousGeodesic, ConfigError
from billiardlab.spaces import Euclidean, FlatTorus, HyperbolicBall, ModelSpace, Sphere

ALL_SPACES = [Euclidean(2), Euclidean(3), FlatTorus((1.0, 1.0)),
              FlatTorus((1.0, 2.0, 0.5)), HyperbolicBall(2), HyperbolicBall(3),
              Sphere(2), Sphere(3)]


def random_phase(space, rng, count):
    """Valid unit phase points spread over the chart."""
    if isinstance(space, Sphere):
        q = rng.standard_normal((count, space.chart_dim))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        v = rng.standard_normal((count, space.chart_dim))
        v -= np.sum(v * q, axis=1, keepdims=True) * q
    elif isinstance(space, HyperbolicBall):
        q = rng.uniform(-0.5, 0.5, (count, space.dim))
        v = rng.standard_normal((count, space.dim))
    elif isinstance(space, FlatTorus):
        q = rng.uniform(0.0, 1.0, (count, space.dim)) * space.periods
        v = rng.standard_normal((count, space.dim))
    else:
        q = rng.uniform(-3.0, 3.0, (count, space.dim))
        v = rng.standard_normal((count, space.dim))
    return q, space.unit(q, v)


def hyperbolic_rk4(q0, v0, s, steps=6000):
    """Independent oracle: integrate the geodesic ODE of 4/(1-|q|^2)^2 dx^2."""
    q = np.array(q0, dtype=float)
    v = np.array(v0, dtype=float)

    def acc(q, v):
        grad = 2.0 * q / (1.0 - q @ q)   # gradient of log conformal factor
        return -2.0 * (grad @ v) * v + (v @ v) * grad

    h = s / steps
    for _ in range(steps):
        k1q, k1v = v, acc(q, v)
        k2q, k2v = v + 0.5 * h * k1v, acc(q + 0.5 * h * k1q, v + 0.5 * h * k1v)
        k3q, k3v = v + 0.5 * h * k2v, acc(q + 0.5 * h * k2q, v + 0.5 * h * k2v)
        k4q, k4v = v + h * k3v, acc(q + h * k3q, v + h * k3v)
        q = q + h / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        v = v + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return q, v


def test_euclidean_straight_line():
    q1, v1 = Euclidean(2).flow(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), [2.0])
    assert np.allclose(q1[0], [2.0, 0.0])
    assert np.allclose(v1[0], [1.0, 0.0])


def test_sphere_pole_to_antipode():
    q1, v1 = Sphere(2).flow(np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]]), [np.pi])
    assert np.allclose(q1[0], [0.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(v1[0], [-1.0, 0.0, 0.0], atol=1e-12)


def test_hyperbolic_radial_flow_closed_form():
    # unit g-speed at the origin has chart speed (1 - |q|^2)/2 = 1/2
    q1, _ = HyperbolicBall(2).flow(np.array([[0.0, 0.0]]), np.array([[0.5, 0.0]]), [1.0])
    assert abs(q1[0, 0] - np.tanh(0.5)) < 1e-12
    assert abs(q1[0, 0] - 0.46211715726000974) < 1e-12
    assert abs(q1[0, 1]) < 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hyperbolic_flow_matches_rk4_oracle(seed):
    rng = np.random.default_rng(seed)
    space = HyperbolicBall(2)
    q, v = random_phase(space, rng, 1)
    s = rng.uniform(0.2, 1.5)
    q1, v1 = space.flow(q, v, [s])
    q_ref, v_ref = hyperbolic_rk4(q[0], v[0], s)
    assert np.linalg.norm(q1[0] - q_ref) < 1e-8
    assert np.linalg.norm(v1[0] - v_ref) < 1e-7


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_unit_speed_preserved(space):
    rng = np.random.default_rng(42)
    q, v = random_phase(space, rng, 200)
    s = rng.uniform(-3.0, 3.0, 200)
    q2, v2 = space.flow(q, v, s)
    assert np.max(np.abs(space.norm(q2, v2) - 1.0)) < 1e-12


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_flow_composition(space):
    rng = np.random.default_rng(7)
    q, v = random_phase(space, rng, 100)
    # hyperbolic chart doubles cannot hold 1e-10 of position beyond radius
    # ~5 (conformal factor times eps, amplified exponentially on the way
    # back), so legs are kept at table scale there; single flows are exact
    leg = 2.5 if isinstance(space, HyperbolicBall) else 10.0
    s = rng.uniform(-leg, leg, 100)
    t = rng.uniform(-leg, leg, 100)
    qa, va = space.flow(q, v, s)
    qa, va = space.flow(qa, va, t)
    qb, vb = space.flow(q, v, s + t)
    assert np.max(space.chart_distance(qa, qb)) < 1e-10
    assert np.max(np.linalg.norm(va - vb, axis=1)) < 1e-10


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_flow_reversal(space):
    rng = np.random.default_rng(8)
    q, v = random_phase(space, rng, 100)
    leg = 2.5 if isinstance(space, HyperbolicBall) else 5.0
    s = rng.uniform(-leg, leg, 100)
    qa, va = space.flow(q, -v, s)
    qb, vb = space.flow(q, v, -s)
    assert np.max(space.chart_distance(qa, qb)) < 1e-10
    assert np.max(np.linalg.norm(-va - vb, axis=1)) < 1e-10


def test_torus_wrap_and_distance():
    space = FlatTorus((1.0, 2.0))
    assert np.allclose(space.wrap(np.array([1.25, -0.5])), [0.25, 1.5])
    d = space.distance(np.array([0.05, 0.1]), np.array([0.95, 1.9]))
    assert abs(d - np.hypot(0.1, 0.2)) < 1e-14


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: f"{s.kind}{s.dim}")
def test_tangent_frames_orthonormal(space):
    rng = np.random.default_rng(9)
    q, n = random_phase(space, rng, 50)
    frame = space.tangent_frame(q, n)
    assert frame.shape == (50, space.dim - 1, space.chart_dim)
    for j in range(space.dim - 1):
        assert np.max(np.abs(space.metric_dot(q, frame[:, j], n))) < 1e-10
        assert np.max(np.abs(space.metric_dot(q, frame[:, j], frame[:, j]) - 1.0)) < 1e-10
        for k in range(j + 1, space.dim - 1):
            assert np.max(np.abs(space.metric_dot(q, frame[:, j], frame[:, k]))) < 1e-10
        if isinstance(space, Sphere):
            assert np.max(np.abs(np.sum(frame[:, j] * q, axis=1))) < 1e-10


@pytest.mark.parametrize("space", [Euclidean(2), HyperbolicBall(2), Sphere(2)],
                         ids=lambda s: s.kind)
def test_geodesic_between_endpoints_and_length(space):
    rng = np.random.default_rng(11)
    qa, va = random_phase(space, rng, 1)
    qb, _ = space.flow(qa, va, np.array([0.8]))
    pts = space.geodesic_between(qa, qb, np.linspace(0.0, 1.0, 400))
    assert np.linalg.norm(pts[0] - qa[0]) < 1e-12
    assert np.linalg.norm(pts[-1] - qb[0]) < 1e-9
    # polyline length converges to the geodesic distance
    seg = np.array([space.distance(pts[i], pts[i + 1]) for i in range(len(pts) - 1)])
    assert abs(np.sum(seg) - 0.8) < 1e-4


def test_sphere_antipodal_ambiguous():
    with pytest.raises(AmbiguousGeodesic):
        Sphere(2).geodesic_between(np.array([[0.0, 0.0, 1.0]]), np.array([[0.0, 0.0, -1.0]]),
                                    np.linspace(0.0, 1.0, 8))


def test_torus_between_ambiguous():
    with pytest.raises(AmbiguousGeodesic):
        FlatTorus((1.0, 1.0)).geodesic_between(np.zeros((1, 2)), np.full((1, 2), 0.3),
                                                np.linspace(0.0, 1.0, 8))


def test_hyperbolic_validate_rejects_outside():
    with pytest.raises(ValueError):
        HyperbolicBall(2).validate_point(np.array([1.2, 0.0]))


def test_every_space_has_the_space_contract():
    # the methods the spaces module docstring lists, with the listed arguments
    listed = dict(re.findall(r"^    (\w+)\(([^)]*)\)", spaces.__doc__, re.M))
    assert list(listed)[:4] == ["flow", "distance", "tangent_frame", "geodesic_between"]
    kernels = {name for name in vars(Euclidean) if name.startswith("_sphere_")}
    assert kernels and kernels <= set(listed) and len(listed) == 11
    for name, args in listed.items():
        # listed once: the shared base defines none of them
        assert name not in vars(ModelSpace), name
        for cls in (Euclidean, FlatTorus, HyperbolicBall, Sphere):
            method = getattr(cls, name, None)
            assert inspect.isfunction(method), (cls.__name__, name)
            params = list(inspect.signature(method).parameters)
            assert params == ["self", *args.split(", ")], (cls.__name__, name)


@pytest.mark.parametrize("periods", [(1.0,), (1.0, 1.0, 1.0, 1.0), (1.0, 0.0), (1.0, -2.0)],
                         ids=["one-period", "four-periods", "period-0", "period-negative"])
def test_torus_periods_must_be_two_or_three_positive_numbers(periods):
    with pytest.raises(ValueError):
        FlatTorus(periods)
    conf = {"space": "flat-torus", "periods": list(periods), "pieces": [
        {"shape": "ball", "side": "obstacle", "center": [0.5] * len(periods), "radius": 0.1}]}
    with pytest.raises(ConfigError, match="periods"):
        table_from_dict(conf)
