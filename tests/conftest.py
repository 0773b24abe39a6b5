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
