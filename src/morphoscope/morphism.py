"""Pointwise analysis of maps to a surface: conformality, frames, tension.

The target is the Euclidean plane, so the gauge-normalized differential
M = dF g^{-1/2} drives everything: its singular values give the pointwise
dilation, its rows test horizontal conformality, and its kernel is the
vertical space. Frames are constructed deterministically so repeated runs
and neighbouring points agree.

All of it comes from one record per point, `PointGeometry`.
`point_geometries` builds the records of a stack of points in one pass over
the stack, and `point_geometry` is its stack of one. The splitting, the
structures J+ and J- and the node geometries of its derivative stencils are
derived per point on first use and then kept on the geometry, which lives
only as long as the evaluation that built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .calculus import MorphismScenario
from .errors import ClassificationError, DegenerateFrameError, DomainError, GeometryError
from .geometry import (MetricPoint, covariant_difference, metric_point, named_at,
                       orientation_sign, orthonormalize, point_name, stencil)
from .structures import K_MINUS, K_PLUS

EPS_CRITICAL = 1e-9


@dataclass(eq=False)
class GeometryStack:
    """What the geometries of one stack of points share: the chart metric
    record of the whole (n, 4) stack, whose derivatives and Christoffel
    symbols it derives for every point at once, and the tension, computed
    over the stack when a geometry of the stack first reads it."""

    scenario: MorphismScenario
    metric: MetricPoint
    jac: np.ndarray
    ginv: np.ndarray         # g^{-1/2} g^{-1/2}

    @cached_property
    def tension(self) -> np.ndarray:
        """Tension of the map at each point, exact from polynomial jets.

        Target Christoffel symbols vanish because the target is Euclidean,
        so the tension is the metric trace of the chart Hessians corrected
        by the domain connection.
        """
        ginv, jac = self.ginv, self.jac
        contracted = np.einsum("...ij,...kij->...k", ginv, self.metric.gamma)
        return (np.einsum("...ij,...aij->...a", ginv, self.scenario.hessians(self.metric.point))
                - (contracted[:, None, None, :] @ jac[..., None])[..., 0, 0])

    @cached_property
    def tension_norm(self) -> np.ndarray:
        tau = self.tension
        # a NaN tension stays NaN, so validate_morphism rejects it
        return np.sqrt((tau[:, None, :] @ tau[..., None])[:, 0, 0])


@dataclass(eq=False)
class PointGeometry:
    """The map's pointwise geometry at one chart point, built once.

    The fields are computed when the geometry is built, with the other
    points of its stack (see point_geometries); the Christoffel symbols and
    the tension are read from the stack, and the properties below are
    derived from them on first use and then kept. The splitting
    (`horizontal`, `vertical` and the two projectors) and the structures J+
    and J- need a regular point and raise ClassificationError otherwise.
    """

    scenario: MorphismScenario
    stack: GeometryStack
    index: int               # of the point in the stack
    point: np.ndarray
    g: np.ndarray
    ginv: np.ndarray         # g^{-1/2} g^{-1/2}
    ginvsqrt: np.ndarray
    jac: np.ndarray
    singular_values: np.ndarray  # of the gauge matrix dF g^{-1/2}
    right_vectors: np.ndarray  # rows of V^T from its full SVD
    conformal: np.ndarray    # Gram matrix of the gauge matrix
    squared_dilation: float  # half the trace of `conformal`
    defect: float            # Frobenius distance of `conformal` to its conformal part
    # (direction, step) -> (t, node geometries) of each derivative stencil
    _stencils: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def metric_point(self) -> MetricPoint:
        """The chart metric at the point, with its rows of the stack's record."""
        return self.stack.metric.at(self.index)

    @property
    def gamma(self) -> np.ndarray:
        """Christoffel symbols Gamma[k, i, j] of the chart metric."""
        return self.stack.metric.gamma[self.index]

    @property
    def tension(self) -> np.ndarray:
        return self.stack.tension[self.index]

    @property
    def tension_norm(self) -> float:
        return float(self.stack.tension_norm[self.index])

    @property
    def dilation_sup(self) -> float:
        """Largest singular value of the gauge matrix."""
        return float(self.singular_values[0])

    @property
    def is_regular(self) -> bool:
        return bool(self.singular_values[0] >= EPS_CRITICAL)

    @property
    def status(self) -> str:
        return "regular" if self.is_regular else "critical"

    @property
    def dilation(self) -> float:
        return float(np.sqrt(max(0.0, self.squared_dilation)))

    @cached_property
    def _splitting(self) -> tuple:
        """(horizontal, vertical, vertical projector, horizontal projector).

        Horizontal rows (e1, e2) map to the target frame (1, i) under the
        differential scaled by the dilation; vertical rows (v1, v2) span the
        kernel, oriented so (e1, e2, v1, v2) is positive with respect to the
        scenario orientation.
        """
        if not self.is_regular:
            raise ClassificationError(
                f"splitting needs a regular point; dilation "
                f"{self.singular_values[0]:.3e} at {self.point.tolist()}")
        lam = self.dilation
        eps1, eps2 = np.eye(2)
        graw = self.jac @ self.ginv @ self.jac.T
        with named_at(self.point):
            try:
                c1 = np.linalg.solve(graw, lam * eps1)
                c2 = np.linalg.solve(graw, lam * eps2)
            except np.linalg.LinAlgError:
                raise DegenerateFrameError("horizontal Gram matrix is singular") from None
            e1 = self.ginv @ self.jac.T @ c1
            e2 = self.ginv @ self.jac.T @ c2

            # kernel of the gauge matrix: the two bottom right-singular directions
            k1 = self.ginvsqrt @ self.right_vectors[2]
            k2 = self.ginvsqrt @ self.right_vectors[3]
            p_vert = (np.outer(k1, k1) + np.outer(k2, k2)) @ self.g
            p_hor = np.eye(4) - p_vert

            seeds = [p_vert @ basis for basis in np.eye(4)]
            vectors = orthonormalize(self.g, seeds)
            if vectors.shape[0] < 2:
                raise DegenerateFrameError("vertical frame construction lost rank")
            v1, v2 = vectors[0], vectors[1]
            frame = np.array([e1, e2, v1, v2])
            if orientation_sign(frame, reference=self.scenario.orientation) < 0:
                v2 = -v2
        if not np.isfinite(self.defect):
            raise GeometryError(f"conformality defect overflows at {self.point.tolist()}")
        return np.array([e1, e2]), np.array([v1, v2]), p_vert, p_hor

    @property
    def horizontal(self) -> np.ndarray:
        """(2, 4) rows e1, e2."""
        return self._splitting[0]

    @property
    def vertical(self) -> np.ndarray:
        """(2, 4) rows v1, v2."""
        return self._splitting[1]

    @property
    def vertical_projector(self) -> np.ndarray:
        return self._splitting[2]

    @property
    def horizontal_projector(self) -> np.ndarray:
        return self._splitting[3]

    @cached_property
    def _adapted_basis(self) -> tuple:
        """(B, B^{-1}) for the columns (e1, e2, v1, v2)."""
        B = np.column_stack([*self.horizontal, *self.vertical])
        return B, np.linalg.inv(B)

    @cached_property
    def j_plus(self) -> np.ndarray:
        """The standard structure K+ carried by the frame (e1, e2, v1, v2)."""
        B, Binv = self._adapted_basis
        return B @ K_PLUS @ Binv

    @cached_property
    def j_minus(self) -> np.ndarray:
        """The standard structure K- carried by the frame (e1, e2, v1, v2)."""
        B, Binv = self._adapted_basis
        return B @ K_MINUS @ Binv

    def structure(self, orientation: int) -> np.ndarray:
        return self.j_plus if orientation == 1 else self.j_minus

    def derivative(self, field: Callable[[PointGeometry], np.ndarray], direction,
                   step: float | None = None) -> np.ndarray:
        """Covariant derivative along direction of a vector or (1,1)-tensor
        field read off each geometry.

        The node geometries of a (direction, step) stencil are built on
        first use, as one stack, and kept, so every field differentiated
        along an equal direction with the same step reads the same nodes.
        """
        X = np.asarray(direction, dtype=float)
        key = (tuple(X.tolist()), step)
        if key not in self._stencils:
            t, nodes = stencil(self.scenario.metric, self.point, X, step)
            self._stencils[key] = t, point_geometries(self.scenario, nodes)
        t, nodes = self._stencils[key]
        return covariant_difference([field(n) for n in nodes], field(self), self.gamma,
                                    X, t)


def point_geometries(scenario: MorphismScenario, points) -> list:
    """The geometries at a stack of points, in order, built in one pass.

    Each step below runs once over the whole (n, 4) stack: the domain
    check, the metric and its check, the differential, the square roots of
    the metric, the gauge matrix and its SVD, the inverse metric and the
    conformality data; the Christoffel symbols and the tension follow, for
    the whole stack, when a geometry first reads them (see GeometryStack).
    Each geometry reads its row of every result; a row equals, bit for bit,
    what the same steps give for its point alone.

    A point outside the domain raises DomainError; non-finite metric or
    differential entries and failed checks or decompositions raise
    GeometryError, so no input reaches the callers as a bare numerical
    failure. When a step fails, each point of the stack is passed again on
    its own, so the error raised is that of the first failing point and of
    its first failing step, as in a loop over the points.
    """
    points = np.array(points, dtype=float, order="C").reshape(-1, 4)
    try:
        return _geometry_pass(scenario, points)
    except (DomainError, GeometryError):
        for i in range(len(points)):
            _geometry_pass(scenario, points[i:i + 1])
        raise


def _geometry_pass(scenario: MorphismScenario, points: np.ndarray) -> list:
    metric = metric_point(scenario.metric, points)
    jac = scenario.jacobian(points)
    try:
        ginvsqrt = metric.sqrt_pair[1]
        gauge = jac @ ginvsqrt
        if not np.all(np.isfinite(gauge)):
            raise GeometryError(f"differential is not finite at {point_name(points)}")
        _, sv, vt = np.linalg.svd(gauge, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(
            f"gauge decomposition failed at {point_name(points)}: {exc}") from None
    metric.inverse  # derived here, so a singular metric fails in the pass
    ginv = ginvsqrt @ ginvsqrt

    conformal = gauge @ gauge.swapaxes(-1, -2)
    squared_dilation = 0.5 * conformal.trace(axis1=-2, axis2=-1)
    offset = (conformal - squared_dilation[:, None, None] * np.eye(2)).reshape(-1, 1, 4)
    # the Frobenius norm as np.linalg.norm takes it: a dot product of the
    # flattened matrix with itself
    defect = np.sqrt((offset @ offset.swapaxes(-1, -2))[:, 0, 0])

    stack = GeometryStack(scenario=scenario, metric=metric, jac=jac, ginv=ginv)
    return [PointGeometry(
        scenario=scenario, stack=stack, index=i, point=m, g=metric.g[i], ginv=ginv[i],
        ginvsqrt=ginvsqrt[i], jac=jac[i], singular_values=sv[i], right_vectors=vt[i],
        conformal=conformal[i], squared_dilation=float(squared_dilation[i]),
        defect=float(defect[i]))
        for i, m in enumerate(points)]


def point_geometry(scenario: MorphismScenario, m) -> PointGeometry:
    """The geometry at m: the stack of one point of point_geometries."""
    return point_geometries(scenario, [m])[0]


def hwc_residual(scenario: MorphismScenario, m) -> PointGeometry:
    """The geometry at m, read for its conformality defect."""
    return point_geometry(scenario, m)


def classify_point(scenario: MorphismScenario, m) -> PointGeometry:
    """The geometry at m, read for its status."""
    return point_geometry(scenario, m)


def splitting(scenario: MorphismScenario, m) -> PointGeometry:
    """The geometry at m, read for its splitting."""
    return point_geometry(scenario, m)


def tension_norm(scenario: MorphismScenario, m) -> float:
    return point_geometry(scenario, m).tension_norm


def fiber_mean_curvature(geometry: PointGeometry,
                         step: float | None = None) -> np.ndarray:
    """Mean curvature vector of the fiber through a regular point.

    Sums horizontal projections of covariant derivatives of the deterministic
    vertical frame fields along themselves, each on the geometry's stencil
    along that field. The result is frame independent because the vertical
    frame is orthonormal.
    """
    total = np.zeros(4)
    for i in range(2):
        d = geometry.derivative(lambda geo: geo.vertical[i], geometry.vertical[i], step)
        total = total + geometry.horizontal_projector @ d
    return total


def validate_morphism(scenario: MorphismScenario, points: Sequence[np.ndarray]) -> tuple:
    """The geometries at the points, built as one stack, with the largest
    conformality defect and the largest tension norm over the regular ones.

    A defect or tension norm that is not finite raises GeometryError naming
    the first such point in order. Returns (geometries, max_defect, max_tension).
    """
    geometries = point_geometries(scenario, points)
    for geo in geometries:
        if not (math.isfinite(geo.defect) and math.isfinite(geo.tension_norm)):
            raise GeometryError(
                f"conformality defect or tension is not finite at {geo.point.tolist()}")
    regular = [geo for geo in geometries if geo.is_regular]
    max_defect = max([0.0] + [geo.defect for geo in regular])
    max_tension = max([0.0] + [geo.tension_norm for geo in regular])
    return geometries, max_defect, max_tension
