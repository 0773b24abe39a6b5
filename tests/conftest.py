import numpy as np
import pytest
from hypothesis import settings

from billiardlab import presets

# property tests draw the same examples on every run
settings.register_profile("billiardlab", derandomize=True, deadline=None, database=None)
settings.load_profile("billiardlab")


@pytest.fixture(scope="session")
def disk():
    return presets.disk()


@pytest.fixture(scope="session")
def ball3():
    return presets.ball3()


@pytest.fixture(scope="session")
def ellipse():
    return presets.ellipse()


@pytest.fixture(scope="session")
def one_ball():
    return presets.torus_one_ball(0.25)


@pytest.fixture(scope="session")
def two_balls():
    return presets.torus_two_balls()


@pytest.fixture(scope="session")
def hyp_disk():
    return presets.hyperbolic_disk(1.0)


@pytest.fixture(scope="session")
def cap():
    return presets.spherical_cap(np.pi / 4.0)


@pytest.fixture(scope="session")
def disk_F(disk):
    from billiardlab.lyapunov import build_well_balanced_F

    return build_well_balanced_F(disk, seed=5)


@pytest.fixture(scope="session")
def entry_at():
    """Entry rows (q, v), shape (1, d): a point of the first piece at a boundary
    angle, with incidence angle theta to the inward normal."""

    def entry(table, boundary_angle, theta):
        piece = table.pieces[0]
        q = piece.point_at_param(table.space, np.array([boundary_angle]))
        n = piece.inward_normal(table.space, q)
        t = table.space.tangent_frame(q, n)[:, 0]
        return q, np.cos(theta) * n + np.sin(theta) * t

    return entry
