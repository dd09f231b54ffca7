"""Unit structure bundle over the chart: surface lifts and their residuals.

A surface patch lifts pointwise to the compatible structure that turns its
oriented tangent plane into a complex line. The bundle's almost complex
structure acts on horizontal vectors through the structure at the point and
on vertical (fiber tangent) endomorphisms by composition with it; the global
sign of the fiber action is a convention, fixed by
`structures.VERTICAL_ROTATION_SIGN` and pinned experimentally by the minimal
catenoid regression test, which fails with the opposite sign.

Fiber tangent norms carry a factor 1/2 relative to the gauged Frobenius norm
so that vertical speeds agree with the speed of the fiber-coordinate curve
on the unit 2-sphere; the squared norm 1/4 tr(V^T g V g^{-1}) is that of
the gauged form g^{1/2} V g^{-1/2}, with no square root taken.

Lifts are built over stacks of parameter points (`lift_stack`): the
patch's jet (the point, its Jacobian and its Hessian) is read once per
parameter point, and the rank test, the chart metric, the tangent
coordinates, the lift and its checks run once per stack, keeping each row's
first failure in a failure column; no frame is built. The lift is
J = -g^{-1} (w + s *w) for the unit tangent 2-form w of the patch, taken
with its jet along the parameter axes from `structures.structure_jets` of
the rows d^T g and the patch Hessians, so the vertical derivatives, the
covariant derivatives of the lift field along the chart images d X of
parameter-plane directions X, are exact. The tangent coordinates come from
the Cholesky factor of the induced metric d^T g d, the fiber coordinates
from that of g, and the curvature densities from the unit tangent bivector
and its Hodge dual. The readers (lift residual, vertical energy, curvature
densities, fiber coordinates) take a stack and return one value per row.
`surface_lift`, the lift at one point, is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import MorphismScenario
from .errors import DegenerateFrameError, DomainError, GeometryError
from .geometry import FRAME_RANK_TOL, FailureColumn, MetricPoint, SurfacePatch, metric_rows
from .structures import (LEVI_CIVITA, VERTICAL_ROTATION_SIGN, fiber_from_structure,
                         structure_jets)

PATCH_RANK_TOL = 1e-8


@dataclass
class VerticalEnergy:
    """Vertical speed data of the lifts of a stack, one entry per row."""

    value: np.ndarray          # (n,)
    gram: np.ndarray           # (n, 2, 2)
    area_element: np.ndarray   # (n,)


def _check_structure(g: np.ndarray, J: np.ndarray) -> tuple:
    """(rows, reason) of each check of a stack of structures J against its
    metrics g, in order: the rows whose J does not square to minus the
    identity, and the rows whose J does not preserve g, each against its
    own scale; a non-finite row fails."""
    scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
    return ((~(np.max(np.abs(J @ J + np.eye(4)), axis=(-2, -1)) <= 1e-9),
             "structure squared is not minus the identity"),
            (~(np.max(np.abs(J.swapaxes(-1, -2) @ g @ J - g), axis=(-2, -1)) <= 1e-9 * scale),
             "structure does not preserve the metric"))


def fiber_coordinates(g: np.ndarray, J: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Unit coordinates of a stack of structures J, each over the
    deterministic frame of its g, (n, 3): the coordinate axes orthonormalized
    in index order, the rows of L^{-1} for the Cholesky factor g = L L^T, in
    which J reads L^T J L^{-T}.

    The orientation tag selects which three-dimensional component family is
    extracted; a structure of the opposite class has vanishing components
    there, which is reported as an error naming its row rather than a zero
    vector.
    """
    LT = np.linalg.cholesky(g).swapaxes(-1, -2)
    u = fiber_from_structure(LT @ J @ np.linalg.inv(LT), orientation)
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
    orientation: int         # of the scenario, which the normal pair of the surface follows
    metric: MetricPoint      # at the (n, 4) stack of chart points psi(p)
    d: np.ndarray            # (n, 4, 2) patch differentials
    tangent_coordinates: np.ndarray  # (n, 2, 2), see _tangent_coordinates
    J: np.ndarray            # (n, 4, 4)
    jet: np.ndarray          # (n, 2, 4, 4): nabla_{d e_j} J along the parameter axes j

    @cached_property
    def fiber(self) -> np.ndarray:
        """Fiber coordinates of the lifts, see fiber_coordinates."""
        return fiber_coordinates(self.metric.g, self.J, self.sign)

    @cached_property
    def tangent(self) -> np.ndarray:
        """(n, 2, 4) rows t1 = d x1 and t2 = d x2."""
        return self.tangent_coordinates @ self.d.swapaxes(-1, -2)

    @cached_property
    def vertical(self) -> np.ndarray:
        """(n, 2, 4, 4): the covariant derivatives of the lift field along
        x1 and x2, sum_j X_j nabla_j J over the rows of the jet."""
        n = len(self.J)
        return (self.tangent_coordinates @ self.jet.reshape(n, 2, 16)).reshape(n, 2, 4, 4)


def lift_stack(scenario: MorphismScenario, patch: SurfacePatch, params,
               orientation: int = 1) -> LiftStack:
    """The lifts at a stack of parameter points, in order, built in one pass.

    The patch's jet, the point with its differential and its Hessian, is
    read once at each parameter point; every other step runs once over the
    whole stack: the box and rank tests, the chart metric with its checks
    and inverse (metric_rows), the tangent coordinates
    (_tangent_coordinates), the lift J with its jet and the checks of J.
    No frame is built. These checks exclude the reader failures known; a
    reader that still fails on a returned stack names its first failing
    row. Each row equals, bit for bit, what the same steps give for its
    point alone. A point that fails a step keeps its first failure in a
    failure column and reads neutral values from then on; the stack raises
    the first point's failure.
    """
    params = np.array(params, dtype=float).reshape(-1, 2)
    failures = FailureColumn(np.zeros(len(params), dtype=bool))
    inside = patch.param_box.contains(params)
    failures.reject(~inside, DomainError,
                    lambda i: f"parameter {params[i].tolist()} leaves the patch box")
    # a parameter point outside the box is taken at its nearest point of the box
    inside = params if inside.all() else np.clip(params, patch.param_box.lo, patch.param_box.hi)
    # the box test is done: the jet is read once at each checked or clipped point
    points, d, hessians = (np.array(column, dtype=float)
                           for column in zip(*(patch.jet(s, t) for s, t in inside)))
    failures.reject(np.linalg.svd(d, compute_uv=False)[:, -1] <= PATCH_RANK_TOL,
                    DegenerateFrameError,
                    lambda i: f"patch differential is rank deficient at {params[i].tolist()}")
    mp = metric_rows(scenario.metric, points, failures)
    mp.dg = failures.neutral(mp.dg, 0.0)
    # the lift and its jet from the rows A = d^T g, whose derivatives
    # d_j A = (d_j d)^T g + d^T (d_{d e_j} g) come from the patch Hessians
    g, n = mp.g, len(d)
    A = d.swapaxes(-1, -2) @ g
    X = _tangent_coordinates(A @ d, points, failures)
    d, A = failures.neutral(d, np.eye(4, 2)), failures.neutral(A, np.eye(2, 4))
    dT = d.swapaxes(-1, -2)

    def along_d(field):
        # sum_k d[k, j] field[k] for a chart field with its index k first
        return (dT @ field.reshape(n, 4, 16)).reshape(n, 2, 4, 4)

    dg = along_d(mp.dg)
    dA = np.moveaxis(hessians, -1, 1).swapaxes(-1, -2) @ g[:, None] + dT[:, None] @ dg
    sign = orientation * scenario.orientation
    [(J, jet)] = structure_jets(A, g, mp.inverse, (sign,),
                                (dA, dg, along_d(np.moveaxis(mp.gamma, -1, 1))))
    for rows, reason in _check_structure(g, J):
        failures.reject(rows, GeometryError, lambda i: f"{reason} at {points[i].tolist()}")
    failures.raise_first()
    return LiftStack(parameters=params, sign=sign, orientation=scenario.orientation,
                     metric=mp, d=d, tangent_coordinates=X, J=J, jet=jet)


def _tangent_coordinates(h: np.ndarray, points: np.ndarray,
                         failures: FailureColumn) -> np.ndarray:
    """Rows x1, x2 that d maps to the g-orthonormal pair t1, t2 Gram-Schmidt
    gives from the columns of d: L^{-1} for the Cholesky factor L L^T of each
    induced metric h = d^T g d of a stack, (n, 2, 2), in closed form. Under
    geometry.orthonormalize's rank rule, the second pivot, the squared
    g-norm of the residual of d e2, must be at least FRAME_RANK_TOL^2 h_22,
    so the rule does not depend on the scale of the metric; a row failing
    it records DegenerateFrameError naming its point among `points`, and
    every failed row reads the identity.
    """
    a, b, c = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l11 = np.sqrt(a)
        l21 = b / l11
        pivot = c - l21 * l21
        failures.reject(~((a > 0) & (pivot > 0) & (pivot >= FRAME_RANK_TOL ** 2 * c)),
                        DegenerateFrameError,
                        lambda i: f"induced metric is numerically degenerate at "
                                  f"{points[i].tolist()}")
        l22 = np.sqrt(pivot)
        X = np.zeros_like(h)
        X[:, 0, 0], X[:, 1, 0], X[:, 1, 1] = 1.0 / l11, -l21 / (l11 * l22), 1.0 / l22
    return failures.neutral(X, np.eye(2))


def surface_lift(scenario: MorphismScenario, patch: SurfacePatch, p,
                 orientation: int = 1) -> np.ndarray:
    """The structure of the tagged class whose complex lines contain T_pS:
    the lift of the stack of one."""
    return lift_stack(scenario, patch, [p], orientation).J[0]


def _fiber_gram(stack: LiftStack, V: np.ndarray) -> np.ndarray:
    """(n, k, k) fiber inner products 1/4 tr(V_a^T g V_b g^{-1}) of fiber
    tangents V, (n, k, 4, 4), against the rows of the stack's metric."""
    n, k = V.shape[:2]
    gVG = stack.metric.g[:, None] @ V @ stack.metric.inverse[:, None]
    return 0.25 * (V.reshape(n, k, 16) @ gVG.reshape(n, k, 16).swapaxes(-1, -2))


def script_J_residual(stack: LiftStack) -> np.ndarray:
    """Holomorphicity defect of each lift of a stack, (n,).

    Compares the lift differential applied to the rotated tangent directions
    against the bundle structure applied to the unrotated images, horizontal
    parts in the chart metric and vertical parts in the fiber norm. Vanishes
    exactly when the lift is a holomorphic curve of the bundle structure.
    """
    J, g, T, V = stack.J, stack.metric.g, stack.tangent, stack.vertical
    # x1, x2 are orthonormal and positively oriented in the induced metric,
    # so its positive rotation j_s takes them to x2 and -x1: the horizontal
    # error d j_s x_a - J d x_a, and the vertical derivative along j_s x_a
    h_err = np.stack([T[:, 1], -T[:, 0]], axis=1) - T @ J.swapaxes(-1, -2)
    horizontal = np.einsum("nai,nij,naj->na", h_err, g, h_err)
    v_err = np.stack([V[:, 1], -V[:, 0]], axis=1) - VERTICAL_ROTATION_SIGN * (J[:, None] @ V)
    vertical = np.diagonal(_fiber_gram(stack, v_err), axis1=-2, axis2=-1)
    # summed in the order x1 horizontal, x1 vertical, x2 horizontal, x2 vertical
    return np.sqrt(horizontal[:, 0] + vertical[:, 0] + horizontal[:, 1] + vertical[:, 1])


def vertical_energy_density(stack: LiftStack) -> VerticalEnergy:
    """Squared vertical speed of each lift of a stack over an orthonormal
    tangent pair.

    The Gram matrices of the vertical derivatives and the induced area
    elements of the lifted surface are returned alongside for diagnostics.
    """
    q = _fiber_gram(stack, stack.vertical)
    value = q[:, 0, 0] + q[:, 1, 1]
    area = np.sqrt(np.maximum(0.0, np.linalg.det(np.eye(2) + q)))
    return VerticalEnergy(value=value, gram=q, area_element=area)


def curvature_densities(stack: LiftStack) -> tuple:
    """Tangent and normal curvature pairings <R(t1, t2) t1, t2> and
    <R(t1, t2) n1, n2> of the surface at each psi(p) of a stack, two (n,)
    arrays.

    These are R(W, W)/4 and e R(W, *W)/4 for the unit tangent bivector W =
    t1 ^ t2, since an orthonormal normal pair that makes (t1, t2, n1, n2) of
    the scenario orientation e has n1 ^ n2 = e *W.
    """
    n, g = len(stack.J), stack.metric.g
    outer = stack.tangent[:, 0, :, None] * stack.tangent[:, 1, None, :]
    W = outer - outer.swapaxes(-1, -2)
    # (*W)^{kl} = eps_{ijkl} (g W g)_{ij} / (2 sqrt(det g)), eps the Levi-Civita symbol
    star = ((g @ W @ g).reshape(n, 1, 16) @ LEVI_CIVITA).reshape(n, 16, 1)
    star /= 2.0 * np.sqrt(np.linalg.det(g))[:, None, None]
    RW = 0.25 * W.reshape(n, 1, 16) @ stack.metric.lowered.reshape(n, 16, 16)
    return (RW @ W.reshape(n, 16, 1))[:, 0, 0], stack.orientation * (RW @ star)[:, 0, 0]
