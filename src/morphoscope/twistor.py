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

Lifts are built over stacks of parameter points (`lift_stack`): the patch
is evaluated point by point, and the rank test, the chart metric, the
adapted frames, the lift and its checks run once per stack. The lift is
J = -g^{-1} (w + s *w) for the unit tangent 2-form w of the patch, taken
with its jet along the parameter axes from `structures.structure_jets` of
the rows d^T g and the patch Hessians, so the vertical derivatives, the
covariant derivatives of the lift field along the chart images d X of
parameter-plane directions X, are exact. The readers (lift residual,
vertical energy, curvature densities, fiber coordinates) take a stack and
return one value per row. `surface_lift`, the lift at one point, is the
stack of one.
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
                       orthonormal_stack, oriented_frames)
from .structures import fiber_from_structure, structure_jets

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
    """Vertical speed data of the lifts of a stack, one entry per row."""

    value: np.ndarray          # (n,)
    gram: np.ndarray           # (n, 2, 2)
    area_element: np.ndarray   # (n,)


def _check_structure(g: np.ndarray, J: np.ndarray) -> None:
    """Raise GeometryError unless J squares to minus the identity and
    preserves g, each row of a stack J against its own g and scale; a
    non-finite row fails, and a stack raises the failure of its first
    failing row."""
    squared = ~(np.max(np.abs(J @ J + np.eye(4)), axis=(-2, -1)) <= 1e-9)
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    metric = ~(np.max(np.abs(J.swapaxes(-1, -2) @ g @ J - g), axis=(-2, -1)) <= 1e-9 * scale)
    failed = np.flatnonzero(squared | metric)
    if len(failed):
        raise GeometryError("structure squared is not minus the identity" if squared[failed[0]]
                            else "structure does not preserve the metric")


def fiber_coordinates(g: np.ndarray, J: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Unit coordinates of a stack of structures J, each over the
    deterministic frame of its g (geometry.oriented_frames), (n, 3).

    The orientation tag selects which three-dimensional component family is
    extracted; a structure of the opposite class has vanishing components
    there, which is reported as an error naming its row rather than a zero
    vector.
    """
    B = oriented_frames(g).swapaxes(-1, -2)
    u = fiber_from_structure(np.linalg.solve(B, J @ B), orientation)
    norm = np.linalg.norm(u, axis=-1)
    off = np.flatnonzero(~(np.abs(norm - 1.0) <= 1e-6))
    if len(off):
        raise GeometryError(
            f"structure is not in the orientation {orientation:+d} class "
            f"(component norm {norm[off[0]]:.3e}) in row {off[0]}")
    return u / norm[:, None]


@dataclass(eq=False)
class LiftStack:
    """The lifts of one patch at an (n, 2) stack of parameter points, built
    in one pass (see lift_stack); the properties below are columns, one
    row per parameter point, derived on first use."""

    parameters: np.ndarray
    sign: int                # of the lift class: the tag times the scenario orientation
    metric: MetricPoint      # at the (n, 4) stack of chart points psi(p)
    d: np.ndarray            # (n, 4, 2) patch differentials
    frames: np.ndarray       # (n, 4, 4) rows t1, t2, n1, n2 of each adapted frame
    J: np.ndarray            # (n, 4, 4)
    jet: np.ndarray          # (n, 2, 4, 4): nabla_{d e_j} J along the parameter axes j

    @cached_property
    def fiber(self) -> np.ndarray:
        """Fiber coordinates of the lifts, see fiber_coordinates."""
        return fiber_coordinates(self.metric.g, self.J, self.sign)

    @cached_property
    def tangent_coordinates(self) -> np.ndarray:
        """(n, 2, 2) with rows x1, x2, the parameter-plane vectors that d
        maps to the orthonormal tangent pair t1, t2: X = R^{-T} for the
        Gram-Schmidt coefficients R_ab = <t_a, d e_b>_g, since d = (t1 t2) R."""
        R = self.frames[:, :2] @ self.metric.g @ self.d
        return np.linalg.inv(R).swapaxes(-1, -2)

    @cached_property
    def vertical(self) -> np.ndarray:
        """(n, 2, 4, 4): the covariant derivatives of the lift field along
        x1 and x2, sum_j X_j nabla_j J over the rows of the jet."""
        n = len(self.J)
        return (self.tangent_coordinates @ self.jet.reshape(n, 2, 16)).reshape(n, 2, 4, 4)


def lift_stack(scenario: MorphismScenario, patch: SurfacePatch, params,
               orientation: int = 1) -> LiftStack:
    """The lifts at a stack of parameter points, in order, built in one pass.

    The patch, its differential and its Hessian are evaluated one parameter
    point at a time; every other step runs once over the whole stack: the
    rank test of the differentials, the chart metric and its checks, the
    adapted frames (orthonormal_stack, then the orientation flip of n2), the
    lift J with its jet, the checks of J and the square roots of the metric.
    These checks exclude the reader failures known; a reader that still
    fails on a returned stack names its first failing row. Each row equals,
    bit for bit, what the same steps give for its point alone. When a step fails, each point of the stack is
    passed again on its own, so the error raised is that of the first
    failing point and of its first failing step, as in a loop over the
    points.
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
    hessians = np.array([patch.d2psi(p) for p in params])
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
    # the lift and its jet from the rows A = d^T g, whose derivatives
    # d_j A = (d_j d)^T g + d^T (d_{d e_j} g) come from the patch Hessians
    dT, n = d.swapaxes(-1, -2), len(d)

    def along_d(field):
        # sum_k d[k, j] field[k] for a chart field with its index k first
        return (dT @ field.reshape(n, 4, 16)).reshape(n, 2, 4, 4)

    dg = along_d(mp.dg)
    dA = np.moveaxis(hessians, -1, 1).swapaxes(-1, -2) @ g[:, None] + dT[:, None] @ dg
    sign = orientation * scenario.orientation
    [(J, jet)] = structure_jets(dT @ g, dA, g, dg, along_d(np.moveaxis(mp.gamma, -1, 1)),
                                mp.inverse, (sign,))
    _check_structure(g, J)
    mp.sqrt_pair  # the readers' square roots, checked here with the pass
    return LiftStack(parameters=params, sign=sign, metric=mp, d=d, frames=frames, J=J, jet=jet)


def surface_lift(scenario: MorphismScenario, patch: SurfacePatch, p,
                 orientation: int = 1) -> np.ndarray:
    """The structure of the tagged class whose complex lines contain T_pS:
    the lift of the stack of one."""
    return lift_stack(scenario, patch, [p], orientation).J[0]


def _gauged(stack: LiftStack, V: np.ndarray) -> np.ndarray:
    """g^{1/2} V g^{-1/2} for fiber tangents V, (n, k, 4, 4), against the
    rows of the stack's metric: the inner product on fiber tangents is a
    quarter of the trace pairing of their gauged forms."""
    gs, gis = (root[:, None] for root in stack.metric.sqrt_pair)
    return gs @ V @ gis


def script_J_residual(stack: LiftStack) -> np.ndarray:
    """Holomorphicity defect of each lift of a stack, (n,).

    Compares the lift differential applied to the rotated tangent directions
    against the bundle structure applied to the unrotated images, horizontal
    parts in the chart metric and vertical parts in the fiber norm. Vanishes
    exactly when the lift is a holomorphic curve of the bundle structure.
    """
    J, g, d, X, V = stack.J, stack.metric.g, stack.d, stack.tangent_coordinates, stack.vertical
    dT = d.swapaxes(-1, -2)
    # positive rotation of the parameter plane in the induced metric
    j_s = surface_complex_structure(dT @ g @ d)
    # rows j_s x1, j_s x2; the horizontal error d j_s x_a - J d x_a
    jX = X @ j_s.swapaxes(-1, -2)
    h_err = jX @ dT - X @ dT @ J.swapaxes(-1, -2)
    horizontal = np.einsum("nai,nij,naj->na", h_err, g, h_err)
    # j_s x_a in the basis x1, x2, and the vertical derivative along it
    c = np.linalg.solve(X.swapaxes(-1, -2), jX.swapaxes(-1, -2)).swapaxes(-1, -2)
    v_rot = (c @ V.reshape(len(J), 2, 16)).reshape(V.shape)
    v_err = v_rot - VERTICAL_ROTATION_SIGN * (J[:, None] @ V)
    e = _gauged(stack, v_err)
    vertical = 0.25 * np.sum(e * e, axis=(-2, -1))
    # summed in the order x1 horizontal, x1 vertical, x2 horizontal, x2 vertical
    return np.sqrt(horizontal[:, 0] + vertical[:, 0] + horizontal[:, 1] + vertical[:, 1])


def vertical_energy_density(stack: LiftStack) -> VerticalEnergy:
    """Squared vertical speed of each lift of a stack over an orthonormal
    tangent pair.

    The Gram matrices of the vertical derivatives and the induced area
    elements of the lifted surface are returned alongside for diagnostics.
    """
    W = _gauged(stack, stack.vertical)
    q = 0.25 * np.sum(W[:, :, None] * W[:, None], axis=(-2, -1))
    value = q[:, 0, 0] + q[:, 1, 1]
    area = np.sqrt(np.maximum(0.0, np.linalg.det(np.eye(2) + q)))
    return VerticalEnergy(value=value, gram=q, area_element=area)


def curvature_densities(stack: LiftStack) -> tuple:
    """Tangent and normal curvature pairings <R(t1, t2) t1, t2> and
    <R(t1, t2) n1, n2> of the surface at each psi(p) of a stack, two (n,)
    arrays."""
    t1, t2, n1, n2 = np.moveaxis(stack.frames, 1, 0)
    R = stack.metric.lowered
    pairing = "nijkp,ni,nj,nk,np->n"
    return np.einsum(pairing, R, t1, t2, t1, t2), np.einsum(pairing, R, t1, t2, n1, n2)
