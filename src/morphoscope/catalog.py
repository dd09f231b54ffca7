"""Built-in scenarios and surface patches.

Every entry is stored as a plain configuration dict, so the catalog command
can emit ready-to-edit configs and the fingerprint of a built-in equals the
fingerprint of its serialized form read back from disk.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import Box, SurfacePatch

# patch_grid samples PATCH_GRID_SIZE x PATCH_GRID_SIZE parameter points
PATCH_GRID_SIZE = 3


def _flat_hessian(s, t):
    return np.zeros((4, 2, 2))


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


def _plane_patch():
    return SurfacePatch(
        psi=lambda s, t: np.array([s, t, 0.0, 0.0]),
        param_box=Box((-1.0, -1.0), (1.0, 1.0)),
        jacobian=lambda s, t: np.array([[1.0, 0.0], [0.0, 1.0],
                                        [0.0, 0.0], [0.0, 0.0]]),
        hessian=_flat_hessian, name="plane")


def _reciprocal_patch():
    def psi(s, t):
        w = 1.0 / complex(s, t)
        return np.array([s, t, w.real, w.imag])

    def jac(s, t):
        dw = -1.0 / complex(s, t) ** 2
        return np.array([[1.0, 0.0], [0.0, 1.0],
                         [dw.real, -dw.imag], [dw.imag, dw.real]])

    def hessian(s, t):
        # d_s = w', d_t = i w' on the holomorphic w = 1/z, w'' = 2 / z^3
        d2w = 2.0 / complex(s, t) ** 3
        out = np.zeros((4, 2, 2))
        out[2] = [[d2w.real, -d2w.imag], [-d2w.imag, -d2w.real]]
        out[3] = [[d2w.imag, d2w.real], [d2w.real, -d2w.imag]]
        return out

    return SurfacePatch(psi=psi, param_box=Box((0.6, -0.6), (1.6, 0.6)),
                        jacobian=jac, hessian=hessian, name="reciprocal")


def _catenoid_patch():
    def psi(u, v):
        return np.array([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), u, 0.0])

    def jac(u, v):
        return np.column_stack([
            [np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), 1.0, 0.0],
            [-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), 0.0, 0.0]])

    def hessian(u, v):
        out = np.zeros((4, 2, 2))
        out[0] = [[np.cosh(u) * np.cos(v), -np.sinh(u) * np.sin(v)],
                  [-np.sinh(u) * np.sin(v), -np.cosh(u) * np.cos(v)]]
        out[1] = [[np.cosh(u) * np.sin(v), np.sinh(u) * np.cos(v)],
                  [np.sinh(u) * np.cos(v), -np.cosh(u) * np.sin(v)]]
        return out

    return SurfacePatch(psi=psi, param_box=Box((-0.6, -0.6), (0.6, 0.6)),
                        jacobian=jac, hessian=hessian, name="catenoid")


def _bowl_patch():
    # non-minimal control: graph of (s^2 + t^2)/2, the minimal graph
    # operator evaluates to 2 + s^2 + t^2 on it
    def psi(s, t):
        return np.array([s, t, 0.5 * (s * s + t * t), 0.0])

    def jac(s, t):
        return np.array([[1.0, 0.0], [0.0, 1.0], [s, t], [0.0, 0.0]])

    def hessian(s, t):
        out = np.zeros((4, 2, 2))
        out[2] = np.eye(2)
        return out

    return SurfacePatch(psi=psi, param_box=Box((-1.0, -1.0), (1.0, 1.0)),
                        jacobian=jac, hessian=hessian, name="bowl")


def _sphere_factor_patch():
    return SurfacePatch(
        psi=lambda s, t: np.array([s, t, 0.1, -0.2]),
        param_box=Box((0.6, -0.5), (1.5, 0.5)),
        jacobian=lambda s, t: np.array([[1.0, 0.0], [0.0, 1.0],
                                        [0.0, 0.0], [0.0, 0.0]]),
        hessian=_flat_hessian, name="sphere_factor")


def _flat_factor_patch():
    return SurfacePatch(
        psi=lambda s, t: np.array([np.pi / 3, 0.2, s, t]),
        param_box=Box((-0.8, -0.8), (0.8, 0.8)),
        jacobian=lambda s, t: np.array([[0.0, 0.0], [0.0, 0.0],
                                        [1.0, 0.0], [0.0, 1.0]]),
        hessian=_flat_hessian, name="flat_factor")


CATALOG_PATCHES = {
    "plane": {
        "factory": _plane_patch, "classification": "minimal",
        "scenario": "proj", "orientation": 1,
        "omega": {"tangent_abs": 0.0, "normal_abs": 0.0},
    },
    "reciprocal": {
        "factory": _reciprocal_patch, "classification": "minimal",
        "scenario": "proj", "orientation": 1, "omega": None,
    },
    "catenoid": {
        "factory": _catenoid_patch, "classification": "minimal",
        "scenario": "proj", "orientation": 1, "omega": None,
    },
    "bowl": {
        "factory": _bowl_patch, "classification": "control",
        "scenario": "proj", "orientation": 1, "omega": None,
    },
    "sphere_factor": {
        "factory": _sphere_factor_patch, "classification": "minimal",
        "scenario": "product_sphere", "orientation": 1,
        "omega": {"tangent_abs": 1.0, "normal_abs": 0.0},
    },
    "flat_factor": {
        "factory": _flat_factor_patch, "classification": "minimal",
        "scenario": "product_sphere", "orientation": 1,
        "omega": {"tangent_abs": 0.0, "normal_abs": 0.0},
    },
}


def catalog_patch(name: str) -> dict:
    if name not in CATALOG_PATCHES:
        known = ", ".join(sorted(CATALOG_PATCHES))
        raise ConfigError(f"unknown patch {name!r}; known: {known}")
    spec = dict(CATALOG_PATCHES[name])
    spec["patch"] = spec.pop("factory")()
    return spec


def patch_grid(patch: SurfacePatch) -> list:
    """Deterministic interior parameter grid, away from the box edges."""
    lo = np.asarray(patch.param_box.lo, dtype=float)
    hi = np.asarray(patch.param_box.hi, dtype=float)
    fracs = np.linspace(0.3, 0.7, PATCH_GRID_SIZE)
    return [lo + np.array([fs, ft]) * (hi - lo)
            for fs in fracs for ft in fracs]
