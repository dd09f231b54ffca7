"""Built-in scenarios and surface patches.

Every scenario is stored as a plain configuration dict, so the catalog
command can emit ready-to-edit configs and the fingerprint of a built-in
equals the fingerprint of its serialized form read back from disk. Every
patch is a SurfacePatch over a module-level jet.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import Box, SurfacePatch

# patch_grid samples PATCH_GRID_SIZE x PATCH_GRID_SIZE parameter points
PATCH_GRID_SIZE = 3


def _cube(half):
    return {"lo": [-half] * 4, "hi": [half] * 4}


def _mono(exponents, value):
    return {"exponents": list(exponents), "value": float(value)}


def _holo(*terms):
    return {"kind": "holomorphic",
            "coefficients": [{"i": i, "j": j, "re": float(re), "im": float(im)}
                             for i, j, re, im in terms]}


_SPHERE_BOX = {"lo": [0.35, -3.0, -1.0, -1.0],
               "hi": [float(np.pi) - 0.35, 3.0, 1.0, 1.0]}


def catalog_configs() -> dict:
    """Raw configuration dicts for the built-in scenarios."""
    shift = [
        [_mono((1, 0, 0, 0), 1.0), _mono((0, 2, 0, 0), 0.1)],
        [_mono((0, 1, 0, 0), 1.0)],
        [_mono((0, 0, 1, 0), 1.0)],
        [_mono((0, 0, 0, 1), 1.0), _mono((1, 0, 1, 0), 0.1)],
    ]
    return {
        "proj": {
            "name": "proj",
            "metric": {"kind": "flat", "box": _cube(3.0)},
            "map": _holo((1, 0, 1.0, 0.0)),
        },
        "z1z2": {
            "name": "z1z2",
            "metric": {"kind": "flat", "box": _cube(1.5)},
            "map": _holo((1, 1, 1.0, 0.0)),
            "critical_points": [[0.0, 0.0, 0.0, 0.0]],
        },
        "z1sq": {
            "name": "z1sq",
            "metric": {"kind": "flat", "box": _cube(1.5)},
            "map": _holo((2, 0, 1.0, 0.0)),
            "critical_points": [[0.0, 0.0, 0.0, 0.0]],
        },
        "z1z2_cubic": {
            "name": "z1z2_cubic",
            "metric": {"kind": "flat", "box": _cube(1.5)},
            "map": _holo((1, 1, 1.0, 0.0), (3, 0, 1.0, 0.0)),
            "critical_points": [[0.0, 0.0, 0.0, 0.0]],
            "analysis": {"radii": [0.1 * 2.0 ** (-i) for i in range(8)]},
        },
        "pullback_z1z2": {
            "name": "pullback_z1z2",
            "metric": {"kind": "flat", "box": _cube(1.5)},
            "map": _holo((1, 1, 1.0, 0.0)),
            "diffeo": {"components": shift, "box": _cube(0.8)},
            "critical_points": [[0.0, 0.0, 0.0, 0.0]],
        },
        "product_sphere": {
            "name": "product_sphere",
            "metric": {"kind": "product_sphere", "radius": 1.0,
                       "box": dict(_SPHERE_BOX)},
            "map": {"kind": "real",
                    "components": [[_mono((0, 0, 1, 0), 1.0)],
                                   [_mono((0, 0, 0, 1), 1.0)]]},
        },
    }


# ------------------------------------------------------------------ patches


def _plane_jet(s, t):
    return np.array([s, t, 0.0, 0.0]), np.eye(4, 2), np.zeros((4, 2, 2))


def _reciprocal_jet(s, t):
    # the graph of the holomorphic w = 1/z: d_s = w', d_t = i w', with
    # w' = -1 / z^2 and w'' = 2 / z^3
    z = complex(s, t)
    w, dw, d2w = 1.0 / z, -1.0 / z ** 2, 2.0 / z ** 3
    hessian = np.zeros((4, 2, 2))
    hessian[2] = [[d2w.real, -d2w.imag], [-d2w.imag, -d2w.real]]
    hessian[3] = [[d2w.imag, d2w.real], [d2w.real, -d2w.imag]]
    return (np.array([s, t, w.real, w.imag]),
            np.array([[1.0, 0.0], [0.0, 1.0], [dw.real, -dw.imag], [dw.imag, dw.real]]),
            hessian)


def _catenoid_jet(u, v):
    ch, sh, c, s = np.cosh(u), np.sinh(u), np.cos(v), np.sin(v)
    hessian = np.zeros((4, 2, 2))
    hessian[0] = [[ch * c, -sh * s], [-sh * s, -ch * c]]
    hessian[1] = [[ch * s, sh * c], [sh * c, -ch * s]]
    return (np.array([ch * c, ch * s, u, 0.0]),
            np.array([[sh * c, -ch * s], [sh * s, ch * c], [1.0, 0.0], [0.0, 0.0]]),
            hessian)


def _bowl_jet(s, t):
    # non-minimal control: graph of (s^2 + t^2)/2, the minimal graph
    # operator evaluates to 2 + s^2 + t^2 on it
    hessian = np.zeros((4, 2, 2))
    hessian[2] = np.eye(2)
    return (np.array([s, t, 0.5 * (s * s + t * t), 0.0]),
            np.array([[1.0, 0.0], [0.0, 1.0], [s, t], [0.0, 0.0]]), hessian)


def _sphere_factor_jet(s, t):
    return np.array([s, t, 0.1, -0.2]), np.eye(4, 2), np.zeros((4, 2, 2))


def _flat_factor_jet(s, t):
    return np.array([np.pi / 3, 0.2, s, t]), np.eye(4, 2, -2), np.zeros((4, 2, 2))


CATALOG_PATCHES = {
    "plane": {
        "patch": SurfacePatch(_plane_jet, Box((-1.0, -1.0), (1.0, 1.0)), "plane"),
        "classification": "minimal", "scenario": "proj", "orientation": 1,
        "omega": {"tangent_abs": 0.0, "normal_abs": 0.0},
    },
    "reciprocal": {
        "patch": SurfacePatch(_reciprocal_jet, Box((0.6, -0.6), (1.6, 0.6)), "reciprocal"),
        "classification": "minimal", "scenario": "proj", "orientation": 1, "omega": None,
    },
    "catenoid": {
        "patch": SurfacePatch(_catenoid_jet, Box((-0.6, -0.6), (0.6, 0.6)), "catenoid"),
        "classification": "minimal", "scenario": "proj", "orientation": 1, "omega": None,
    },
    "bowl": {
        "patch": SurfacePatch(_bowl_jet, Box((-1.0, -1.0), (1.0, 1.0)), "bowl"),
        "classification": "control", "scenario": "proj", "orientation": 1, "omega": None,
    },
    "sphere_factor": {
        "patch": SurfacePatch(_sphere_factor_jet, Box((0.6, -0.5), (1.5, 0.5)),
                              "sphere_factor"),
        "classification": "minimal", "scenario": "product_sphere", "orientation": 1,
        "omega": {"tangent_abs": 1.0, "normal_abs": 0.0},
    },
    "flat_factor": {
        "patch": SurfacePatch(_flat_factor_jet, Box((-0.8, -0.8), (0.8, 0.8)), "flat_factor"),
        "classification": "minimal", "scenario": "product_sphere", "orientation": 1,
        "omega": {"tangent_abs": 0.0, "normal_abs": 0.0},
    },
}


def catalog_patch(name: str) -> dict:
    """A copy of the named patch's spec: the patch, its classification, its
    scenario, its lift orientation and its expected curvature densities."""
    if name not in CATALOG_PATCHES:
        known = ", ".join(sorted(CATALOG_PATCHES))
        raise ConfigError(f"unknown patch {name!r}; known: {known}")
    return dict(CATALOG_PATCHES[name])


def patch_grid(patch: SurfacePatch) -> list:
    """Deterministic interior parameter grid, away from the box edges."""
    lo = np.asarray(patch.param_box.lo, dtype=float)
    hi = np.asarray(patch.param_box.hi, dtype=float)
    fracs = np.linspace(0.3, 0.7, PATCH_GRID_SIZE)
    return [lo + np.array([fs, ft]) * (hi - lo)
            for fs in fracs for ft in fracs]
