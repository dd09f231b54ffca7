"""Unit structure bundle over the chart: surface lifts and their residuals.

A surface patch lifts pointwise to the compatible structure that turns its
oriented tangent plane into a complex line. The bundle's almost complex
structure acts on horizontal vectors through the structure at the point and
on vertical (fiber tangent) endomorphisms by composition with it; the global
sign of the fiber action is a convention, fixed here by the constant below
and pinned experimentally by the minimal catenoid regression test, which
fails with the opposite sign.

Fiber tangent norms carry a factor 1/2 relative to the gauged Frobenius norm
so that vertical speeds agree with the speed of the fiber-coordinate curve
on the unit 2-sphere.

One `LiftGeometry` per parameter point holds everything the residual, the
vertical energy and the curvature densities read, the chart metric at the
point included; `surface_lift` is its lift alone, taken at the stencil nodes
of the vertical derivatives, which take the covariant-difference rule of
`geometry` along the chart images d X of parameter-plane directions X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._linalg import surface_complex_structure
from .calculus import MorphismScenario
from .errors import DegenerateFrameError, DomainError, GeometryError
from .geometry import (Box, central_difference, central_nodes, covariant_difference,
                       metric_point, named_at, orientation_sign, oriented_frame,
                       orthonormalize)
from .structures import K_MINUS, K_PLUS, fiber_from_structure

VERTICAL_ROTATION_SIGN = -1
LIFT_FD_STEP = 1e-4
PATCH_FD_STEP = 1e-5
PATCH_RANK_TOL = 1e-8


@dataclass
class SurfacePatch:
    """Parametrized surface in the chart with derivative access."""

    psi: Callable
    param_box: Box
    jacobian: Callable | None = None
    name: str = "patch"

    def point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if not self.param_box.contains(p):
            raise DomainError(f"parameter {p.tolist()} leaves the patch box")
        return np.asarray(self.psi(p[0], p[1]), dtype=float)

    def dpsi(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(p[0], p[1]), dtype=float)
        h = PATCH_FD_STEP
        return np.column_stack([
            central_difference([self.point(q) for q in central_nodes(p, e, h)], h)
            for e in np.eye(2)])


@dataclass
class VerticalEnergy:
    """Vertical speed data of a lift at a parameter point."""

    value: float
    gram: np.ndarray
    area_element: float


def fiber_coordinates(g: np.ndarray, J: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Unit coordinates of a structure over the deterministic frame of g.

    The orientation tag selects which three-dimensional component family is
    extracted; a structure of the opposite class has vanishing components
    there, which is reported as an error rather than a zero vector.
    """
    J = np.asarray(J, dtype=float)
    if np.max(np.abs(J @ J + np.eye(4))) > 1e-9:
        raise GeometryError("structure squared is not minus the identity")
    if np.max(np.abs(J.T @ g @ J - g)) > 1e-9 * max(1.0, float(np.max(np.abs(g)))):
        raise GeometryError("structure does not preserve the metric")
    B = oriented_frame(g).T
    u = fiber_from_structure(np.linalg.solve(B, J @ B), orientation)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-6:
        raise GeometryError(
            f"structure is not in the orientation {orientation:+d} class "
            f"(component norm {norm:.3e})")
    return u / norm


def _lift_frames(scenario: MorphismScenario, patch: SurfacePatch, p):
    m = patch.point(p)
    d = patch.dpsi(p)
    sv = np.linalg.svd(d, compute_uv=False)
    if sv[-1] <= PATCH_RANK_TOL:
        raise DegenerateFrameError(
            f"patch differential is rank deficient at {np.asarray(p).tolist()}")
    mp = metric_point(scenario.metric, m)
    with named_at(mp.point):
        frame = orthonormalize(mp.g, [d[:, 0], d[:, 1]], complete=True)
        t1, t2, n1, n2 = frame
        if orientation_sign(frame, reference=scenario.orientation) < 0:
            n2 = -n2
    return mp, d, t1, t2, n1, n2


class LiftGeometry:
    """The lift of a surface patch at one parameter point, built once.

    The metric point at psi(p), the patch differential d, the adapted frame
    (t1, t2, n1, n2), the lift J and its fiber coordinates are computed when
    the geometry is built; the properties below are derived from them on
    first use.
    """

    def __init__(self, scenario: MorphismScenario, patch: SurfacePatch, p,
                 orientation: int = 1, step: float | None = None):
        self.scenario = scenario
        self.patch = patch
        self.parameter = np.asarray(p, dtype=float)
        self.orientation = orientation
        self.step = step
        self.metric_point, self.d, self.t1, self.t2, self.n1, self.n2 = _lift_frames(
            scenario, patch, self.parameter)
        self.point = self.metric_point.point
        B = np.column_stack([self.t1, self.t2, self.n1, self.n2])
        K = K_PLUS if orientation == 1 else K_MINUS
        self.J = B @ K @ np.linalg.inv(B)
        self.fiber = fiber_coordinates(self.metric_point.g, self.J,
                                       orientation * scenario.orientation)

    @cached_property
    def tangent_coordinates(self) -> tuple:
        """Parameter-plane vectors x1, x2 mapping to the orthonormal tangent pair."""
        x1, *_ = np.linalg.lstsq(self.d, self.t1, rcond=None)
        x2, *_ = np.linalg.lstsq(self.d, self.t2, rcond=None)
        return x1, x2

    @cached_property
    def vertical(self) -> tuple:
        """Covariant derivatives of the lift field along x1 and x2, each the
        covariant difference along d X of the node lifts of one central
        stencil in the parameter plane."""
        out = []
        for X in self.tangent_coordinates:
            h = (self.step or LIFT_FD_STEP) / max(1.0, float(np.max(np.abs(X))))
            lifts = [surface_lift(self.scenario, self.patch, q, self.orientation)
                     for q in central_nodes(self.parameter, X, h)]
            out.append(covariant_difference(lifts, self.J, self.metric_point.gamma,
                                            self.d @ X, h))
        return tuple(out)


def surface_lift(scenario: MorphismScenario, patch: SurfacePatch, p,
                 orientation: int = 1) -> np.ndarray:
    """The structure of the tagged class whose complex lines contain T_pS."""
    return LiftGeometry(scenario, patch, p, orientation).J


def _fiber_inner(A: np.ndarray, B: np.ndarray, gs: np.ndarray, gis: np.ndarray) -> float:
    """Inner product on fiber tangents, a quarter of the gauged trace pairing."""
    ga = gs @ A @ gis
    gb = gs @ B @ gis
    return 0.25 * float(np.sum(ga * gb))


def script_J_residual(geo: LiftGeometry) -> float:
    """Holomorphicity defect of the lift at p.

    Compares the lift differential applied to the rotated tangent directions
    against the bundle structure applied to the unrotated images, horizontal
    parts in the chart metric and vertical parts in the fiber norm. Vanishes
    exactly when the lift is a holomorphic curve of the bundle structure.
    """
    J = geo.J
    g = geo.metric_point.g
    gs, gis = geo.metric_point.sqrt_pair
    d = geo.d
    x1, x2 = geo.tangent_coordinates
    # positive rotation of the parameter plane in the induced metric
    j_s = surface_complex_structure(d.T @ g @ d, 1)
    v1, v2 = geo.vertical
    basis = np.column_stack([x1, x2])
    total = 0.0
    for x, vx in ((x1, v1), (x2, v2)):
        jx = j_s @ x
        h_err = d @ jx - J @ (d @ x)
        total += float(h_err @ g @ h_err)
        c = np.linalg.solve(basis, jx)
        v_rot = c[0] * v1 + c[1] * v2
        v_err = v_rot - VERTICAL_ROTATION_SIGN * (J @ vx)
        total += _fiber_inner(v_err, v_err, gs, gis)
    return float(np.sqrt(total))


def vertical_energy_density(geo: LiftGeometry) -> VerticalEnergy:
    """Squared vertical speed of the lift over an orthonormal tangent pair.

    The Gram matrix of the vertical derivatives and the induced area element
    of the lifted surface are returned alongside for diagnostics.
    """
    gs, gis = geo.metric_point.sqrt_pair
    v1, v2 = geo.vertical
    q = np.array([[_fiber_inner(v1, v1, gs, gis), _fiber_inner(v1, v2, gs, gis)],
                  [_fiber_inner(v2, v1, gs, gis), _fiber_inner(v2, v2, gs, gis)]])
    value = float(q[0, 0] + q[1, 1])
    area = float(np.sqrt(max(0.0, np.linalg.det(np.eye(2) + q))))
    return VerticalEnergy(value=value, gram=q, area_element=area)


def curvature_densities(geo: LiftGeometry):
    """Tangent and normal curvature pairings of the surface at psi(p)."""
    mp = geo.metric_point
    omega_t = mp.pairing(geo.t1, geo.t2, geo.t1, geo.t2)
    omega_n = mp.pairing(geo.t1, geo.t2, geo.n1, geo.n2)
    return float(omega_t), float(omega_n)
