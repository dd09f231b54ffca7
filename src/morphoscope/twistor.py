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

A `LiftGeometry` holds everything the residual, the vertical energy and
the curvature densities read at one parameter point, the chart metric at
the point included. Lifts are built over stacks of parameter points
(`lift_stack`): the patch is evaluated point by point, and the rank test,
the chart metric, the adapted frames, J and its checks run once per stack.
The vertical derivatives, the covariant derivatives of the lift field along
the chart images d X of parameter-plane directions X, are exact: the lift
is J = -g^{-1} (w + s *w) for the unit tangent 2-form w of the patch, so
its jet along the parameter axes is `structures.structure_jets` of the
rows d^T g, taken once per stack from the patch Hessians. `map_lifts`
evaluates a parameter grid as one stack; when it raises, the grid is run
again one point at a time, each geometry a stack of one, so the error is
the one a loop over the points gives. A `LiftGeometry` built on its own,
and `surface_lift`, its lift alone, are the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._linalg import surface_complex_structure
from .calculus import MorphismScenario
from .errors import DegenerateFrameError, DomainError, GeometryError
from .geometry import (Box, MetricPoint, frame_orientations, metric_point,
                       orthonormal_stack, oriented_frame)
from .parallel import ordered_map
from .structures import K_MINUS, K_PLUS, fiber_from_structure, structure_jets

VERTICAL_ROTATION_SIGN = -1
PATCH_RANK_TOL = 1e-8


@dataclass
class SurfacePatch:
    """Parametrized surface in the chart with its exact (4, 2) Jacobian and
    its exact (4, 2, 2) Hessian, hessian[i, a, b] = d_a d_b psi_i."""

    psi: Callable
    param_box: Box
    jacobian: Callable
    hessian: Callable
    name: str = "patch"

    def point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if not self.param_box.contains(p):
            raise DomainError(f"parameter {p.tolist()} leaves the patch box")
        return np.asarray(self.psi(p[0], p[1]), dtype=float)

    def dpsi(self, p) -> np.ndarray:
        return np.asarray(self.jacobian(*np.asarray(p, dtype=float)), dtype=float)

    def d2psi(self, p) -> np.ndarray:
        return np.asarray(self.hessian(*np.asarray(p, dtype=float)), dtype=float)


@dataclass
class VerticalEnergy:
    """Vertical speed data of a lift at a parameter point."""

    value: float
    gram: np.ndarray
    area_element: float


def _check_structure(g: np.ndarray, J: np.ndarray) -> None:
    """Raise GeometryError unless J squares to minus the identity and
    preserves g, each row of a stack J against its own g and scale; a
    stack raises the failure of its first failing row."""
    squared = np.atleast_1d(np.max(np.abs(J @ J + np.eye(4)), axis=(-2, -1)) > 1e-9)
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    metric = np.max(np.abs(J.swapaxes(-1, -2) @ g @ J - g), axis=(-2, -1)) > 1e-9 * scale
    failed = np.flatnonzero(squared | metric)
    if len(failed):
        raise GeometryError("structure squared is not minus the identity" if squared[failed[0]]
                            else "structure does not preserve the metric")


def fiber_coordinates(g: np.ndarray, J: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Unit coordinates of a structure over the deterministic frame of g.

    The orientation tag selects which three-dimensional component family is
    extracted; a structure of the opposite class has vanishing components
    there, which is reported as an error rather than a zero vector.
    """
    J = np.asarray(J, dtype=float)
    _check_structure(g, J)
    B = oriented_frame(g).T
    u = fiber_from_structure(np.linalg.solve(B, J @ B), orientation)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-6:
        raise GeometryError(
            f"structure is not in the orientation {orientation:+d} class "
            f"(component norm {norm:.3e})")
    return u / norm


@dataclass(eq=False)
class LiftStack:
    """The lifts of one patch at an (n, 2) stack of parameter points, built
    in one pass (see lift_stack)."""

    scenario: MorphismScenario
    patch: SurfacePatch
    orientation: int
    parameters: np.ndarray
    metric: MetricPoint      # at the (n, 4) stack of chart points psi(p)
    d: np.ndarray            # (n, 4, 2) patch differentials
    frames: np.ndarray       # (n, 4, 4) rows t1, t2, n1, n2 of each adapted frame
    J: np.ndarray            # (n, 4, 4)

    @cached_property
    def vertical_jet(self) -> np.ndarray:
        """nabla_{d e_j} J along the parameter axes j, (n, 2, 4, 4) with j
        second, exact: structure_jets of the rows A = d^T g, whose
        derivatives d_j A = (d_j d)^T g + d^T (d_{d e_j} g) come from the
        patch Hessians, with the sign of the tag times the scenario
        orientation. Its J equals the lift J = B K B^{-1} to rounding."""
        mp, dT = self.metric, self.d.swapaxes(-1, -2)
        n = len(dT)

        def along_d(field):
            # sum_k d[k, j] field[k] for a chart field with its index k first
            return (dT @ field.reshape(n, 4, 16)).reshape(n, 2, 4, 4)

        dg = along_d(mp.dg)
        hessians = np.array([self.patch.d2psi(p) for p in self.parameters])
        dA = np.moveaxis(hessians, -1, 1).swapaxes(-1, -2) @ mp.g[:, None] + dT[:, None] @ dg
        [(_, jet)] = structure_jets(dT @ mp.g, dA, mp.g, dg,
                                    along_d(np.moveaxis(mp.gamma, -1, 1)), mp.inverse,
                                    (self.orientation * self.scenario.orientation,))
        return jet


def lift_stack(scenario: MorphismScenario, patch: SurfacePatch, params,
               orientation: int = 1) -> LiftStack:
    """The lifts at a stack of parameter points, in order, built in one pass.

    The patch is evaluated one parameter point at a time; every other step
    runs once over the whole stack: the rank test of the differentials, the
    chart metric and its checks, the adapted frames (orthonormal_stack, then
    the orientation flip of n2), the lifts J = B K B^{-1} and their checks.
    Each row equals, bit for bit, what the same steps give for its point
    alone. When a step fails, each point of the stack is passed again on its
    own, so the error raised is that of the first failing point and of its
    first failing step, as in a loop over the points.
    """
    params = np.array(params, dtype=float).reshape(-1, 2)
    try:
        return _lift_pass(scenario, patch, params, orientation)
    except Exception:
        for i in range(len(params)):
            _lift_pass(scenario, patch, params[i:i + 1], orientation)
        raise


def _lift_pass(scenario: MorphismScenario, patch: SurfacePatch, params: np.ndarray,
               orientation: int) -> LiftStack:
    points = np.array([patch.point(p) for p in params])
    d = np.array([patch.dpsi(p) for p in params])
    deficient = np.flatnonzero(np.linalg.svd(d, compute_uv=False)[:, -1] <= PATCH_RANK_TOL)
    if len(deficient):
        raise DegenerateFrameError(
            f"patch differential is rank deficient at {params[deficient[0]].tolist()}")
    mp = metric_point(scenario.metric, points)
    g = mp.g
    # the two differential columns, then the coordinate basis, each seed's
    # residual measured against the seed's own g-norm
    seeds = np.concatenate([d.swapaxes(-1, -2), np.broadcast_to(np.eye(4), (len(g), 4, 4))],
                           axis=1)
    sizes = np.sqrt(np.maximum(0.0, np.einsum("nki,nij,nkj->nk", seeds, g, seeds)))
    frames, count = orthonormal_stack(g, seeds, 4, sizes)
    incomplete = np.flatnonzero(count < 4)
    if len(incomplete):
        raise DegenerateFrameError(
            f"could not complete an orthonormal frame at {points[incomplete[0]].tolist()}")
    signs, failures = frame_orientations(frames)
    for m, reason in zip(points, failures):
        if reason is not None:
            raise DegenerateFrameError(f"{reason} at {m.tolist()}")
    frames[signs * scenario.orientation < 0, 3] *= -1.0
    # columns t1, t2, n1, n2, contiguous as for one point
    B = np.ascontiguousarray(frames.swapaxes(-1, -2))
    J = B @ (K_PLUS if orientation == 1 else K_MINUS) @ np.linalg.inv(B)
    _check_structure(g, J)
    return LiftStack(scenario=scenario, patch=patch, orientation=orientation,
                     parameters=params, metric=mp, d=d, frames=frames, J=J)


class LiftGeometry:
    """The lift of a surface patch at one parameter point, built once.

    A geometry is row `index` of a LiftStack: the metric point at psi(p),
    the patch differential d, the adapted frame (t1, t2, n1, n2) and the
    checked lift J. Built on its own, it is the stack of one; map_lifts
    builds the geometries of many points as one stack. The properties below,
    the fiber coordinates and the vertical derivatives among them, are
    derived on first use.
    """

    def __init__(self, scenario: MorphismScenario, patch: SurfacePatch, p,
                 orientation: int = 1):
        self._bind(lift_stack(scenario, patch, [p], orientation), 0)

    @classmethod
    def row(cls, stack: LiftStack, index: int) -> "LiftGeometry":
        """The geometry of row `index` of a built stack."""
        geo = cls.__new__(cls)
        geo._bind(stack, index)
        return geo

    def _bind(self, stack: LiftStack, index: int) -> None:
        self.stack, self.index = stack, index
        self.scenario, self.patch = stack.scenario, stack.patch
        self.orientation = stack.orientation
        self.parameter = stack.parameters[index]
        self.point = stack.metric.point[index]
        self.d = stack.d[index]
        self.t1, self.t2, self.n1, self.n2 = stack.frames[index]
        self.J = stack.J[index]

    @cached_property
    def metric_point(self) -> MetricPoint:
        """The chart metric at psi(p), with its rows of the stack's record."""
        return self.stack.metric.at(self.index)

    @cached_property
    def fiber(self) -> np.ndarray:
        """Fiber coordinates of the lift, see fiber_coordinates."""
        return fiber_coordinates(self.metric_point.g, self.J,
                                 self.orientation * self.scenario.orientation)

    @cached_property
    def tangent_coordinates(self) -> tuple:
        """Parameter-plane vectors x1, x2 mapping to the orthonormal tangent pair."""
        x1, *_ = np.linalg.lstsq(self.d, self.t1, rcond=None)
        x2, *_ = np.linalg.lstsq(self.d, self.t2, rcond=None)
        return x1, x2

    @cached_property
    def vertical(self) -> tuple:
        """Covariant derivatives of the lift field along x1 and x2: the sum
        of X_j nabla_j J over the row of the stack's vertical jet."""
        jet = self.stack.vertical_jet[self.index].reshape(2, 16)
        return tuple((X @ jet).reshape(4, 4) for X in self.tangent_coordinates)


def map_lifts(read: Callable, scenario: MorphismScenario, patch: SurfacePatch, params,
              orientation: int = 1) -> list:
    """read(geometry) at each parameter point, in order.

    The geometries of all the points are built as one stack, and
    ordered_map maps read over them. When anything raises, each point is
    run again on its own, its geometry a stack of one, so the error raised
    is that of the first failing point at its first failed step, as in a
    loop over the points.
    """
    try:
        stack = lift_stack(scenario, patch, params, orientation)
        return ordered_map(read, [LiftGeometry.row(stack, i)
                                  for i in range(len(stack.parameters))])
    except Exception:
        for p in params:
            read(LiftGeometry(scenario, patch, p, orientation))
        raise


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
    j_s = surface_complex_structure(d.T @ g @ d)
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
