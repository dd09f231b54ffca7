"""Pointwise analysis of maps to a surface: conformality, frames, tension.

The target is the Euclidean plane, so the gauge-normalized differential
M = dF g^{-1/2} drives everything: its singular values give the pointwise
dilation, its rows test horizontal conformality, and its kernel is the
vertical space. Frames are constructed deterministically so repeated runs
and neighbouring points agree.

All of it comes from one record per point, `PointGeometry`.
`point_geometries` builds the records of a stack of points in one pass over
the stack, and `point_geometry` is its stack of one. The tension, the
splitting and the structures J+ and J- are derived over the whole stack
(`GeometryStack`) when one of its geometries first reads them, and each
geometry reads its rows; a point where the splitting fails raises its own
failure, and only when it is read. The node geometries of a derivative
stencil are built on first use, as one stack, and kept on the geometry,
which lives only as long as the evaluation that built it;
`build_stencils` builds the stencils of many geometries as one stack, and
`frame_rows` reads the frames and J+ of many geometries at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .calculus import MorphismScenario
from .errors import ClassificationError, DegenerateFrameError, DomainError, GeometryError
from .geometry import (MetricPoint, covariant_difference, frame_orientations, metric_point,
                       orthonormal_stack, point_name, stencil)
from .structures import K_MINUS, K_PLUS

EPS_CRITICAL = 1e-9


@dataclass(eq=False)
class GeometryStack:
    """What the geometries of one stack of points share: the chart metric
    record of the whole (n, 4) stack, whose derivatives and Christoffel
    symbols it derives for every point at once, the differential and the
    gauge decomposition of every point, and what is derived from them over
    the stack when a geometry of the stack first reads it: the tension, the
    splitting and the structures J+ and J-."""

    scenario: MorphismScenario
    metric: MetricPoint
    jac: np.ndarray
    ginv: np.ndarray         # g^{-1/2} g^{-1/2}
    ginvsqrt: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    squared_dilation: np.ndarray
    defect: np.ndarray

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

    @cached_property
    def splitting(self) -> tuple:
        """(horizontal, vertical, vertical projector, horizontal projector,
        failures) of every point, see PointGeometry._splitting.

        Each step runs once over the stack: one solve for e1 and e2, the
        kernel from the rows of the gauge SVD, a Gram-Schmidt of the
        projected coordinate axes (orthonormal_stack) and the orientation
        flip. A point that fails a step does not stop the others:
        failures[i] is None, or the error type and the message, naming the
        point, of point i's first failed step, and its rows hold no frame.
        """
        points, g = self.metric.point, self.metric.g
        failures = [None] * len(points)

        def fail(rows, error, reason):
            for i in rows:
                if failures[i] is None:
                    failures[i] = error, f"{reason} at {points[i].tolist()}"

        for i in np.flatnonzero(~(self.singular_values[:, 0] >= EPS_CRITICAL)):
            fail([i], ClassificationError, f"splitting needs a regular point; dilation "
                                           f"{self.singular_values[i, 0]:.3e}")
        jac_t = self.jac.swapaxes(-1, -2)
        graw = self.jac @ self.ginv @ jac_t
        # sign 0: the LU factorization that solve runs has a zero pivot
        fail(np.flatnonzero(np.linalg.slogdet(graw)[0] == 0), DegenerateFrameError,
             "horizontal Gram matrix is singular")
        graw[[f is not None for f in failures]] = np.eye(2)
        # e1 and e2 map to the target frame (1, 0) and (0, 1) under the
        # differential scaled by the dilation; every product below takes
        # one vector at a time, as for a point alone
        lam = np.sqrt(np.maximum(self.squared_dilation, 0.0))
        coeffs = np.linalg.solve(graw[:, None], lam[:, None, None, None] * np.eye(2)[:, :, None])
        horizontal = ((self.ginv @ jac_t)[:, None] @ coeffs)[..., 0]

        # kernel of the gauge matrix: the two bottom right-singular directions
        kernel = (self.ginvsqrt[:, None] @ self.right_vectors[:, 2:, :, None])[..., 0]
        k1, k2 = kernel[:, 0], kernel[:, 1]
        p_vert = (k1[:, :, None] * k1[:, None, :] + k2[:, :, None] * k2[:, None, :]) @ g
        p_hor = np.eye(4) - p_vert
        # the vertical parts of the coordinate axes, each measured against
        # the axis's own g-norm, so the rank test does not depend on the
        # scale of the metric
        axes = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
        vertical, count = orthonormal_stack(g, p_vert.swapaxes(-1, -2), 2, axes)
        fail(np.flatnonzero(count < 2), DegenerateFrameError,
             "vertical frame construction lost rank")
        signs, reasons = frame_orientations(np.concatenate([horizontal, vertical], axis=1))
        for i, reason in enumerate(reasons):
            if reason is not None:
                fail([i], DegenerateFrameError, reason)
        vertical[signs * self.scenario.orientation < 0, 1] *= -1.0
        fail(np.flatnonzero(~np.isfinite(self.defect)), GeometryError,
             "conformality defect overflows")
        return horizontal, vertical, p_vert, p_hor, failures

    @cached_property
    def structures(self) -> tuple:
        """(J+, J-) of every point: the standard structures K+ and K-
        carried by the frames (e1, e2, v1, v2), from one inverse of the
        stack of adapted bases. The basis of a point whose splitting failed
        is replaced by the identity, so it cannot fail the inverse."""
        horizontal, vertical, _, _, failures = self.splitting
        B = np.concatenate([horizontal, vertical], axis=1).swapaxes(-1, -2)
        B[[f is not None for f in failures]] = np.eye(4)
        Binv = np.linalg.inv(B)
        return B @ K_PLUS @ Binv, B @ K_MINUS @ Binv

    def check(self, index: int) -> None:
        """Raise the failure of point `index`'s splitting, if it failed."""
        failure = self.splitting[-1][index]
        if failure is not None:
            error, message = failure
            raise error(message)


@dataclass(eq=False)
class PointGeometry:
    """The map's pointwise geometry at one chart point, built once.

    The fields are computed when the geometry is built, with the other
    points of its stack (see point_geometries). The Christoffel symbols,
    the tension, the splitting (`horizontal`, `vertical` and the two
    projectors) and the structures J+ and J- are the point's rows of what
    its GeometryStack derives for all its points at once, on first use,
    and the properties below are then kept. The splitting and the
    structures need a regular point and raise ClassificationError
    otherwise; where a later step of the splitting fails they raise
    DegenerateFrameError or GeometryError, named at the point, as the same
    steps for the point alone would.
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
        scenario orientation. They are the point's rows of its stack's
        splitting; a point where it failed raises its own failure there.
        """
        self.stack.check(self.index)
        return tuple(row[self.index] for row in self.stack.splitting[:-1])

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
    def j_plus(self) -> np.ndarray:
        """The standard structure K+ carried by the frame (e1, e2, v1, v2)."""
        self._splitting  # raises where the splitting failed
        return self.stack.structures[0][self.index]

    @cached_property
    def j_minus(self) -> np.ndarray:
        """The standard structure K- carried by the frame (e1, e2, v1, v2)."""
        self._splitting  # raises where the splitting failed
        return self.stack.structures[1][self.index]

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
        (t, nodes), = build_stencils(self.scenario, [self], [X], [step])
        return covariant_difference([field(n) for n in nodes], field(self), self.gamma,
                                    X, t)


def _stencil_key(direction: np.ndarray, step: float | None) -> tuple:
    return tuple(direction.tolist()), step


def build_stencils(scenario: MorphismScenario, geometries: Sequence[PointGeometry],
                   directions, steps: Sequence[float | None]) -> list:
    """(t, node geometries) of the derivative stencil of each geometry along
    its own direction with its own step (None: the default step, see
    geometry.stencil), in order.

    A geometry that holds that stencil already keeps it; the others are
    given theirs, with one stencil over the stack of their points and the
    node geometries of all of them built as one stack. A stencil node
    outside the chart domain raises DomainError before any node geometry
    is built.
    """
    directions = np.asarray(directions, dtype=float).reshape(-1, 4)
    keys = [_stencil_key(X, step) for X, step in zip(directions, steps)]
    pending = [i for i, (geo, key) in enumerate(zip(geometries, keys))
               if key not in geo._stencils]
    if pending:
        t, nodes = stencil(scenario.metric, [geometries[i].point for i in pending],
                           directions[pending], [steps[i] for i in pending])
        built = point_geometries(scenario, nodes)
        for k, i in enumerate(pending):
            geometries[i]._stencils[keys[i]] = t[k], built[4 * k:4 * k + 4]
    return [geo._stencils[key] for geo, key in zip(geometries, keys)]


def frame_rows(geometries: Sequence[PointGeometry]) -> tuple:
    """(horizontal, vertical, J+) of the geometries, (n, 2, 4), (n, 2, 4) and
    (n, 4, 4), each the geometry's rows of its stack's splitting and
    structures, read once per run of geometries of one stack. The first
    geometry in order whose splitting failed raises its failure."""
    parts = []
    for stack, run in itertools.groupby(geometries, key=lambda geo: geo.stack):
        index = [geo.index for geo in run]
        for i in index:
            stack.check(i)
        index = np.array(index)
        horizontal, vertical, *_ = stack.splitting
        parts.append((horizontal[index], vertical[index], stack.structures[0][index]))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(rows) for rows in zip(*parts))


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

    stack = GeometryStack(scenario=scenario, metric=metric, jac=jac, ginv=ginv,
                          ginvsqrt=ginvsqrt, singular_values=sv, right_vectors=vt,
                          squared_dilation=squared_dilation, defect=defect)
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
