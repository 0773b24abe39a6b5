"""Table construction from JSON config files.

Schema (all keys lowercase):

    {
      "name": "my-table",
      "space": "euclidean" | "flat-torus" | "hyperbolic-ball" | "sphere",
      "dimension": 2,
      "periods": [1.0, 1.0],            // flat-torus only
      "pieces": [
        {"shape": "ball", "side": "outer", "center": [0, 0], "radius": 1.0},
        {"shape": "half-space", "side": "outer",     // sphere only: the cap
         "pole": [0, 0, 1], "angle": 0.5},           // of radius angle about pole
        {"shape": "radial-fourier", "side": "outer", "base_radius": 1.0,
         "cos_coefficients": [0.0, 0.15], "sin_coefficients": []}
      ],
      "tolerances": {"hit_tol": 1e-10, "grazing_tol": 1e-7, "l_max": null}
    }

Unknown keys, mistyped numbers and NaN or infinite numbers raise
ConfigError, naming the key.
"""

from __future__ import annotations

import json

from .errors import ConfigError
from .spaces import Euclidean, FlatTorus, HyperbolicBall, Sphere
from .tables import Ball, HalfSpaceOrCap, RadialFourierCurve, Table, Tolerances

__all__ = ["load_table_config", "table_from_dict"]

_TOP_KEYS = {"name", "space", "dimension", "periods", "pieces", "tolerances"}
_PIECE_KEYS = {"shape", "side", "center", "radius", "pole", "angle", "base_radius",
               "cos_coefficients", "sin_coefficients"}
_TOL_KEYS = {"hit_tol", "grazing_tol", "l_max"}
_NUMBER_KEYS = {"radius", "angle", "base_radius"}  # `Tolerances` checks its own
_VECTOR_KEYS = {"periods", "center", "pole", "cos_coefficients", "sin_coefficients"}
_NOT_NUMBER = (str, bool, list, dict, type(None))  # the JSON values that are not numbers


def _bad_number(value):
    """True for JSON values that are not numbers, and for NaN and +-Infinity."""
    return isinstance(value, _NOT_NUMBER) or not abs(value) < float("inf")


def _check_keys(mapping, allowed, where):
    """Reject unknown keys, and non-numbers and non-finite numbers by their key."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in mapping.items():
        if key in _NUMBER_KEYS and _bad_number(value):
            raise ConfigError(f"{where} key {key!r} must be a finite number, got {value!r}")
        if key in _VECTOR_KEYS and (isinstance(value, (str, dict, int, float)) or value is None
                                    or any(_bad_number(v) for v in value)):
            raise ConfigError(f"{where} key {key!r} must be a list of finite numbers, "
                              f"got {value!r}")


def _build_space(conf):
    kind = conf.get("space")
    dim = conf.get("dimension", 2)
    if kind == "euclidean":
        return Euclidean(dim)
    if kind == "flat-torus":
        if "periods" not in conf:
            raise ConfigError("flat-torus needs 'periods'")
        return FlatTorus(conf["periods"])
    if kind == "hyperbolic-ball":
        return HyperbolicBall(dim)
    if kind == "sphere":
        return Sphere(dim)
    raise ConfigError(f"unknown space kind {kind!r}")


def _build_piece(conf, space):
    _check_keys(conf, _PIECE_KEYS, "piece")
    shape = conf.get("shape")
    side = conf.get("side", "outer")
    if shape == "ball":
        return Ball(conf["center"], conf["radius"], side=side)
    if shape == "half-space":
        if not isinstance(space, Sphere):
            raise ConfigError(f"half-spaces are sphere caps (pole, angle); on a {space.kind} "
                              "space use a 'ball' or 'radial-fourier' piece")
        return HalfSpaceOrCap(conf["pole"], conf["angle"], side=side)
    if shape == "radial-fourier":
        return RadialFourierCurve(conf["base_radius"],
                                  cos_coeffs=conf.get("cos_coefficients", ()),
                                  sin_coeffs=conf.get("sin_coefficients", ()),
                                  side=side)
    raise ConfigError(f"unknown piece shape {shape!r}")


def table_from_dict(conf):
    _check_keys(conf, _TOP_KEYS, "table config")
    if not isinstance(conf.get("pieces"), list) or not conf["pieces"]:
        raise ConfigError("table config needs a nonempty 'pieces' list of objects")
    tol_conf = conf.get("tolerances", {})
    _check_keys(tol_conf, _TOL_KEYS, "tolerances")
    # the space, piece and table constructors raise plain errors on bad values
    try:
        space = _build_space(conf)
        pieces = [_build_piece(p, space) for p in conf["pieces"]]
        return Table(space, pieces, Tolerances(**tol_conf), name=conf.get("name", "config-table"))
    except KeyError as exc:
        raise ConfigError(f"piece is missing key {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def load_table_config(path):
    """Build a table from a JSON config file."""
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return table_from_dict(conf)
