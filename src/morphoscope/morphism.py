"""Pointwise analysis of maps to a surface: conformality, frames, tension.

The gauge-normalized differential M = h^{1/2} dF g^{-1/2} drives everything:
its singular values give the pointwise dilation, its rows test horizontal
conformality, and its kernel is the vertical space. Frames are constructed
deterministically so repeated runs and neighbouring points agree.

All of it comes from one record per point, `PointGeometry`, built by
`point_geometry` on the point's `MetricPoint`. The conformality data, the
splitting, the structures J+ and J- and the node geometries of its
derivative stencils are derived on first use and then kept on the geometry,
which lives only as long as the evaluation that built it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .calculus import MorphismScenario
from .errors import ClassificationError, DegenerateFrameError, GeometryError
from .geometry import (MetricPoint, covariant_difference, metric_point, named_at,
                       orientation_sign, orthonormalize, stencil)
from .structures import K_MINUS, K_PLUS

EPS_CRITICAL = 1e-9


@dataclass(eq=False)
class PointGeometry:
    """The map's pointwise geometry at one chart point, built once.

    The metric point, the differential and the SVD of the gauge matrix are
    computed when the geometry is built; the properties below are derived
    from them on first use and then kept. The splitting (`horizontal`,
    `vertical` and the two projectors) and the structures J+ and J- need a
    regular point and raise ClassificationError otherwise.
    """

    scenario: MorphismScenario
    metric_point: MetricPoint
    ginv: np.ndarray         # g^{-1/2} g^{-1/2}
    ginvsqrt: np.ndarray
    jac: np.ndarray
    gauge: np.ndarray        # h^{1/2} dF g^{-1/2}
    singular_values: np.ndarray
    right_vectors: np.ndarray  # rows of V^T from the full SVD
    # (direction, step) -> (t, node geometries) of each derivative stencil
    _stencils: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def point(self) -> np.ndarray:
        return self.metric_point.point

    @property
    def g(self) -> np.ndarray:
        return self.metric_point.g

    @property
    def gamma(self) -> np.ndarray:
        """Christoffel symbols Gamma[k, i, j] of the chart metric."""
        return self.metric_point.gamma

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

    @cached_property
    def conformal(self) -> np.ndarray:
        """h-gauge Gram matrix of the differential."""
        return self.gauge @ self.gauge.T

    @cached_property
    def squared_dilation(self) -> float:
        """Half the trace of `conformal`."""
        return 0.5 * float(np.trace(self.conformal))

    @property
    def dilation(self) -> float:
        return float(np.sqrt(max(0.0, self.squared_dilation)))

    @cached_property
    def defect(self) -> float:
        """Frobenius distance of `conformal` to its conformal part."""
        return float(np.linalg.norm(self.conformal - self.squared_dilation * np.eye(2),
                                    ord="fro"))

    @cached_property
    def tension(self) -> np.ndarray:
        """Tension of the map, exact from polynomial jets.

        Target Christoffel symbols vanish because target metrics are
        constant, so the tension is the metric trace of the chart Hessian
        corrected by the domain connection.
        """
        hess = self.scenario.hessians(self.point)
        contracted = np.einsum("ij,kij->k", self.ginv, self.gamma)
        tau = np.empty(2)
        for a in range(2):
            tau[a] = float(np.einsum("ij,ij->", self.ginv, hess[a])
                           - contracted @ self.jac[a])
        return tau

    @cached_property
    def tension_norm(self) -> float:
        tau = self.tension
        return float(np.sqrt(max(0.0, tau @ self.scenario.target.matrix @ tau)))

    @cached_property
    def _splitting(self) -> tuple:
        """(horizontal, vertical, vertical projector, horizontal projector).

        Horizontal rows (e1, e2) map to the target frame (eps1, eps2) under
        the differential scaled by the dilation; vertical rows (v1, v2) span
        the kernel, oriented so (e1, e2, v1, v2) is positive with respect to
        the scenario orientation.
        """
        if not self.is_regular:
            raise ClassificationError(
                f"splitting needs a regular point; dilation "
                f"{self.singular_values[0]:.3e} at {self.point.tolist()}")
        lam = self.dilation
        eps1, eps2 = self.scenario.target.frame
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
        first use and kept, so every field differentiated along an equal
        direction with the same step reads the same nodes.
        """
        X = np.asarray(direction, dtype=float)
        key = (tuple(X.tolist()), step)
        if key not in self._stencils:
            t, nodes = stencil(self.scenario.metric, self.point, X, step)
            self._stencils[key] = t, tuple(point_geometry(self.scenario, x) for x in nodes)
        t, nodes = self._stencils[key]
        return covariant_difference([field(n) for n in nodes], field(self), self.gamma,
                                    X, t)


def point_geometry(scenario: MorphismScenario, m) -> PointGeometry:
    """Build the geometry at m, checking the domain, the metric and the gauge.

    Non-finite metric or differential entries and failed decompositions
    raise GeometryError, so no input reaches the callers as a bare
    numerical failure.
    """
    mp = metric_point(scenario.metric, m)
    m = mp.point
    jac = scenario.jacobian(m)
    try:
        ginvsqrt = mp.sqrt_pair[1]
        gauge = scenario.target.sqrt @ jac @ ginvsqrt
        if not np.all(np.isfinite(gauge)):
            raise GeometryError(f"differential is not finite at {m.tolist()}")
        _, s, vt = np.linalg.svd(gauge, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise GeometryError(f"gauge decomposition failed at {m.tolist()}: {exc}") from None
    return PointGeometry(
        scenario=scenario, metric_point=mp, ginv=ginvsqrt @ ginvsqrt,
        ginvsqrt=ginvsqrt, jac=jac, gauge=gauge, singular_values=s, right_vectors=vt)


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
    """The geometries at the points, with the largest conformality defect
    and the largest tension norm over the regular ones.

    Returns (geometries, max_defect, max_tension).
    """
    geometries = []
    max_defect = 0.0
    max_tension = 0.0
    for p in points:
        geo = point_geometry(scenario, p)
        geometries.append(geo)
        # the records report the tension at every point, so it is derived
        # here in sample order
        tension = geo.tension_norm
        if geo.is_regular:
            max_defect = max(max_defect, geo.defect)
            max_tension = max(max_tension, tension)
    return geometries, max_defect, max_tension
