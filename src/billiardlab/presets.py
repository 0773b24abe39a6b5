"""Named table presets covering every geometry the experiments touch."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .spaces import Euclidean, FlatTorus, HyperbolicBall, Sphere
from .tables import Ball, RadialFourierCurve, Table

__all__ = [
    "disk", "ball3", "ellipse", "torus_one_ball", "torus_two_balls",
    "hyperbolic_disk", "spherical_cap", "preset_table", "PRESETS",
]


def disk():
    """Unit disk in the plane."""
    return Table(Euclidean(2), [Ball((0.0, 0.0), 1.0, side="outer")], name="disk")


def ball3():
    """Unit ball in 3-space."""
    return Table(Euclidean(3), [Ball((0.0, 0.0, 0.0), 1.0, side="outer")], name="ball3")


def ellipse():
    """Convex oval wall r(theta) = 1 + 0.15 cos(2 theta), a Fourier wall."""
    wall = RadialFourierCurve(1.0, cos_coeffs=(0.0, 0.15), side="outer")
    return Table(Euclidean(2), [wall], name="ellipse")


def torus_one_ball(radius=0.25):
    """Unit torus minus one ball; has unbounded free paths (trapping demo)."""
    piece = Ball((0.5, 0.5), radius, side="obstacle")
    return Table(FlatTorus((1.0, 1.0)), [piece], name=f"torus-one-ball-r{radius:g}")


def torus_two_balls(r1=0.38, r2=0.18):
    """Unit torus minus two balls placed to block every line (finite horizon).

    Centers (1/4, 1/4) and (3/4, 3/4): axis channels need r1 + r2 >= 1/2 and
    the diagonal channels, where the two center lattices coincide, need
    max(r1, r2) >= 1 / (2 sqrt 2).  The defaults clear both with margin while
    keeping all periodic images disjoint.
    """
    pieces = [Ball((0.25, 0.25), r1, side="obstacle"),
              Ball((0.75, 0.75), r2, side="obstacle")]
    return Table(FlatTorus((1.0, 1.0)), pieces, name="torus-two-balls")


def hyperbolic_disk(radius=1.0):
    """Hyperbolic disk of the given geodesic radius, Poincare chart."""
    if radius <= 0:
        raise ConfigError("radius must be positive")
    piece = Ball((0.0, 0.0), radius, side="outer")
    return Table(HyperbolicBall(2), [piece], name=f"hyperbolic-disk-{radius:g}")


def spherical_cap(rho=np.pi / 4.0):
    """Geodesic cap of angular radius rho about the north pole of S^2."""
    if not 0 < rho < np.pi / 2:
        raise ConfigError("cap radius must lie in (0, pi/2)")
    piece = Ball((0.0, 0.0, 1.0), rho, side="outer")
    return Table(Sphere(2), [piece], name=f"cap-{rho:g}")


PRESETS = {
    "disk": disk,
    "ball3": ball3,
    "ellipse": ellipse,
    "torus-one-ball": torus_one_ball,
    "torus-two-balls": torus_two_balls,
    "hyperbolic-disk-0.5": lambda: hyperbolic_disk(0.5),
    "hyperbolic-disk-1": lambda: hyperbolic_disk(1.0),
    "hyperbolic-disk-2": lambda: hyperbolic_disk(2.0),
    "cap-pi6": lambda: spherical_cap(np.pi / 6.0),
    "cap-pi4": lambda: spherical_cap(np.pi / 4.0),
}

def preset_table(name):
    try:
        factory = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}") from None
    return factory()
