"""Pointwise analysis of maps to a surface: conformality, frames, tension.

The gauge-normalized differential M = h^{1/2} dF g^{-1/2} drives everything:
its singular values give the pointwise dilation, its rows test horizontal
conformality, and its kernel is the vertical space. Frames are constructed
deterministically so repeated runs and neighbouring points agree.

All of it comes from one construction per point, `PointGeometry`, built by
`point_geometry` on the point's `MetricPoint`. The splitting and the
structure pair are derived on first use and then kept on the geometry, which
lives only as long as the evaluation that built it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .calculus import MorphismScenario
from .errors import ClassificationError, DegenerateFrameError, GeometryError
from .geometry import (MetricPoint, Stencil, metric_point, orientation_sign,
                       orthonormalize, stencil)
from .structures import K_MINUS, K_PLUS

EPS_CRITICAL = 1e-9


@dataclass
class HwcData:
    """Horizontal conformality data at a point."""

    point: np.ndarray
    conformal: np.ndarray     # h-gauge Gram matrix of the differential
    squared_dilation: float   # half trace of `conformal`
    defect: float             # Frobenius distance to the conformal part

    @property
    def dilation(self) -> float:
        return float(np.sqrt(max(0.0, self.squared_dilation)))


@dataclass
class Classification:
    point: np.ndarray
    status: str               # "regular" or "critical"
    dilation_sup: float

    @property
    def is_regular(self) -> bool:
        return self.status == "regular"


@dataclass
class PointSplit:
    """Vertical/horizontal splitting with adapted frames at a regular point.

    horizontal rows (e1, e2) map to the conformal target frame (eps1, eps2)
    under the differential scaled by the dilation; vertical rows (v1, v2)
    span the kernel, oriented so (e1, e2, v1, v2) is positive with respect
    to the scenario orientation.
    """

    point: np.ndarray
    dilation: float
    squared_dilation: float
    defect: float
    horizontal: np.ndarray      # (2, 4) rows e1, e2
    vertical: np.ndarray        # (2, 4) rows v1, v2
    target_frame: np.ndarray    # (2, 2) rows eps1, eps2
    vertical_projector: np.ndarray
    horizontal_projector: np.ndarray


@dataclass
class HermitianPair:
    """The two adapted structures at a regular point."""

    point: np.ndarray
    j_plus: np.ndarray
    j_minus: np.ndarray
    split: PointSplit

    def structure(self, orientation: int) -> np.ndarray:
        return self.j_plus if orientation == 1 else self.j_minus


@dataclass(eq=False)
class PointGeometry:
    """The map's pointwise geometry at one chart point, built once.

    The metric point, the differential and the SVD of the gauge matrix are
    computed when the geometry is built; the properties below are derived
    from them on first use. `split` and `pair` need a regular point and
    raise ClassificationError otherwise.
    """

    scenario: MorphismScenario
    metric_point: MetricPoint
    ginv: np.ndarray         # g^{-1/2} g^{-1/2}
    ginvsqrt: np.ndarray
    jac: np.ndarray
    gauge: np.ndarray        # h^{1/2} dF g^{-1/2}
    singular_values: np.ndarray
    right_vectors: np.ndarray  # rows of V^T from the full SVD
    classification: Classification

    @cached_property
    def hwc(self) -> HwcData:
        conf = self.gauge @ self.gauge.T
        lam2 = 0.5 * float(np.trace(conf))
        defect = float(np.linalg.norm(conf - lam2 * np.eye(2), ord="fro"))
        return HwcData(point=self.point, conformal=conf, squared_dilation=lam2,
                       defect=defect)

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
    def split(self) -> PointSplit:
        if not self.classification.is_regular:
            raise ClassificationError(
                f"splitting needs a regular point; dilation "
                f"{self.singular_values[0]:.3e} at {self.point.tolist()}")
        sc = self.scenario
        hwc = self.hwc
        lam2 = hwc.squared_dilation
        lam = float(np.sqrt(max(0.0, lam2)))

        h = sc.target.matrix
        eps1 = np.array([1.0, 0.0]) / np.sqrt(h[0, 0])
        eps2 = sc.target.complex_structure() @ eps1
        graw = self.jac @ self.ginv @ self.jac.T
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
        if orientation_sign(frame, reference=sc.orientation) < 0:
            v2 = -v2
        if not np.isfinite(hwc.defect):
            raise GeometryError(f"conformality defect overflows at {self.point.tolist()}")

        return PointSplit(point=self.point, dilation=lam, squared_dilation=lam2,
                          defect=hwc.defect, horizontal=np.array([e1, e2]),
                          vertical=np.array([v1, v2]),
                          target_frame=np.array([eps1, eps2]),
                          vertical_projector=p_vert, horizontal_projector=p_hor)

    @cached_property
    def pair(self) -> HermitianPair:
        """J+ and J-: the standard structures K+ and K- carried by the frame
        (e1, e2, v1, v2)."""
        sp = self.split
        B = np.column_stack([sp.horizontal[0], sp.horizontal[1],
                             sp.vertical[0], sp.vertical[1]])
        Binv = np.linalg.inv(B)
        return HermitianPair(point=self.point, j_plus=B @ K_PLUS @ Binv,
                             j_minus=B @ K_MINUS @ Binv, split=sp)


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
    status = "regular" if s[0] >= EPS_CRITICAL else "critical"
    return PointGeometry(
        scenario=scenario, metric_point=mp, ginv=ginvsqrt @ ginvsqrt,
        ginvsqrt=ginvsqrt, jac=jac, gauge=gauge, singular_values=s, right_vectors=vt,
        classification=Classification(point=m, status=status,
                                      dilation_sup=float(s[0])))


@dataclass
class GeometryStencil:
    """Point geometries at the nodes of a derivative stencil through a point."""

    center: PointGeometry
    stencil: Stencil
    nodes: tuple

    def derivative(self, field: Callable[[PointGeometry], np.ndarray]) -> np.ndarray:
        """Covariant derivative of a vector or (1,1)-tensor field read off
        each geometry."""
        return self.stencil.derivative([field(n) for n in self.nodes],
                                       field(self.center), self.center.gamma)


def geometry_stencil(center: PointGeometry, direction,
                     step: float | None = None) -> GeometryStencil:
    st = stencil(center.scenario.metric, center.point, direction, step)
    return GeometryStencil(center=center, stencil=st,
                           nodes=tuple(point_geometry(center.scenario, x)
                                       for x in st.nodes))


def hwc_residual(scenario: MorphismScenario, m) -> HwcData:
    return point_geometry(scenario, m).hwc


def classify_point(scenario: MorphismScenario, m) -> Classification:
    return point_geometry(scenario, m).classification


def splitting(scenario: MorphismScenario, m) -> PointSplit:
    return point_geometry(scenario, m).split


def tension_norm(scenario: MorphismScenario, m) -> float:
    return point_geometry(scenario, m).tension_norm


def fiber_mean_curvature(scenario: MorphismScenario, m,
                         step: float | None = None) -> np.ndarray:
    """Mean curvature vector of the fiber through a regular point.

    Sums horizontal projections of covariant derivatives of the deterministic
    vertical frame fields along themselves. The result is frame independent
    because the vertical frame is orthonormal.
    """
    base = point_geometry(scenario, m)
    sp = base.split
    total = np.zeros(4)
    for i in range(2):
        nodes = geometry_stencil(base, sp.vertical[i], step)
        d = nodes.derivative(lambda geo: geo.split.vertical[i])
        total = total + sp.horizontal_projector @ d
    return total


@dataclass
class ValidationRecord:
    point: np.ndarray
    status: str
    dilation_sup: float
    squared_dilation: float
    defect: float
    tension: float


@dataclass
class ValidationReport:
    scenario: str
    tolerance: float
    records: list
    max_defect: float
    max_tension: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def validate_morphism(scenario: MorphismScenario, points: Sequence[np.ndarray],
                      tol: float = 1e-6) -> ValidationReport:
    """Check horizontal conformality and harmonicity over a point sample.

    The verdict is PASS when both the largest conformality defect and the
    largest tension norm over the regular sample points stay below tol.
    """
    records = []
    max_defect = 0.0
    max_tension = 0.0
    for p in points:
        geo = point_geometry(scenario, p)
        cls = geo.classification
        hwc = geo.hwc
        tnorm = geo.tension_norm
        records.append(ValidationRecord(
            point=geo.point, status=cls.status,
            dilation_sup=cls.dilation_sup, squared_dilation=hwc.squared_dilation,
            defect=hwc.defect, tension=tnorm))
        if cls.is_regular:
            max_defect = max(max_defect, hwc.defect)
            max_tension = max(max_tension, tnorm)
    verdict = "PASS" if (max_defect <= tol and max_tension <= tol) else "FAIL"
    return ValidationReport(scenario=scenario.name, tolerance=tol, records=records,
                            max_defect=max_defect, max_tension=max_tension,
                            verdict=verdict)
