"""Fiber shape coefficients and the derivative norms of the structure pair.

Frame convention in this module: (e1, e2) spans the vertical plane with
e1 = T the chosen unit vertical vector and e2 the positive rotation of T,
while (e3, e4) spans the horizontal plane with e4 the positive rotation of
e3. The four shape coefficients a, b, c, d are horizontal components of
vertical covariant derivatives; every closed form below is a polynomial in
them, so the pure functions are kept separate from the frame machinery for
direct algebraic testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .calculus import MorphismScenario
from .morphism import PointGeometry, geometry_stencil, point_geometry
from .ratefit import seeded_directions, shell_samples

PRODUCT_FLOOR = 1e-8
SCAN_STEP_FRACTION = 1e-3


# ------------------------------------------------------------ closed forms


def closed_norm_pair(a: float, b: float, c: float, d: float) -> Tuple[float, float]:
    """Squared derivative norms of the two structures along T."""
    return (4.0 * ((a - d) ** 2 + (b + c) ** 2),
            4.0 * ((a + d) ** 2 + (b - c) ** 2))


def commutator_matrix(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Commutator of the squared shape map with the vertical rotation."""
    p = 2.0 * (a * b + c * d)
    q = b * b + d * d - (a * a + c * c)
    return np.array([[p, q], [q, -p]])


def product_identity(a: float, b: float, c: float, d: float) -> float:
    """Product of the two squared norms, expanded form.

    Algebraically equal to the product of the closed_norm_pair entries, but
    the subtraction cancels catastrophically when the product nearly
    vanishes; scans therefore multiply the stable factored norms and keep
    this form as an identity diagnostic on its own magnitude scale.
    """
    s = a * a + b * b + c * c + d * d
    return 16.0 * (s * s - 4.0 * (a * d - b * c) ** 2)


def identity_scale(a: float, b: float, c: float, d: float) -> float:
    """Natural magnitude of the product identity terms, for relative gaps."""
    s = a * a + b * b + c * c + d * d
    return 16.0 * max(1.0, s * s)


def polar_form(a: float, b: float, c: float, d: float) -> Tuple[float, float, float, float]:
    """(r1, r2, theta, alpha) with a = r1 cos(theta), c = r1 sin(theta),
    b = r2 cos(alpha), d = r2 sin(alpha)."""
    return (math.hypot(a, c), math.hypot(b, d),
            math.atan2(c, a), math.atan2(d, b))


def product_polar(r1: float, r2: float, theta: float, alpha: float) -> float:
    """Product of the two squared norms in polar coefficients."""
    return 16.0 * ((r1 ** 2 - r2 ** 2) ** 2
                   + 4.0 * r1 ** 2 * r2 ** 2 * math.cos(theta - alpha) ** 2)


# -------------------------------------------------------------- coefficients


class _FiberShape:
    """One evaluation of the fiber shape at a regular point.

    Holds the adapted frame (T, e2, e3, e4) at the point and the geometries
    on the stencil along T. Every derivative of the evaluation (of T, of the
    rotated field J+ T and of both structures) reads the same node
    geometries, and the shape coefficients are computed once.
    """

    def __init__(self, geometry: PointGeometry, angle: float, step: float | None):
        sp = geometry.split
        self.ca, self.sa = math.cos(angle), math.sin(angle)
        self.T = self.t_field(geometry)
        e2 = self.ca * sp.vertical[1] - self.sa * sp.vertical[0]  # positive vertical rotation
        e3, e4 = sp.horizontal                                   # e4: positive rotation of e3
        self.frame = np.array([self.T, e2, e3, e4])
        self.g = g = geometry.g
        self.nodes = geometry_stencil(geometry, self.T, step)
        dT = self.nodes.derivative(self.t_field)
        dE2 = self.nodes.derivative(lambda geo: geo.pair.j_plus @ self.t_field(geo))
        self.coefficients = (-float(dT @ g @ e3), -float(dT @ g @ e4),
                             -float(dE2 @ g @ e3), -float(dE2 @ g @ e4))

    def t_field(self, geo: PointGeometry) -> np.ndarray:
        return self.ca * geo.split.vertical[0] + self.sa * geo.split.vertical[1]

    def direct_norms(self) -> Tuple[float, float]:
        """Full squared frame component sums of the derivatives of J+ and J-."""
        full = []
        for orientation in (1, -1):
            dJ = self.nodes.derivative(lambda geo: geo.pair.structure(orientation))
            full.append(frame_component_sums(dJ, self.g, self.frame)[0])
        return full[0], full[1]


def weingarten_matrix(scenario: MorphismScenario, m, angle: float = 0.0,
                      step: float | None = None) -> Tuple[float, float, float, float]:
    """Shape coefficients (a, b, c, d) of the fiber at a regular point.

    a, b are the horizontal components of the covariant derivative of the
    unit vertical field T along itself; c, d are those of the rotated field.
    The vertical fields come from the canonical splitting, so the numbers
    are reproducible; `angle` rotates T inside the vertical plane.
    """
    return _FiberShape(point_geometry(scenario, m), angle, step).coefficients


def commutator_defect(scenario: MorphismScenario, m, angle: float = 0.0,
                      step: float | None = None) -> np.ndarray:
    """Commutator entries from the measured shape coefficients.

    Vanishes when the ambient metric is Einstein, so its Frobenius norm is
    the Einstein-defect diagnostic of the report.
    """
    return commutator_matrix(*weingarten_matrix(scenario, m, angle, step))


def structure_derivative(scenario: MorphismScenario, m, orientation: int,
                         direction, step: float | None = None) -> np.ndarray:
    """Covariant derivative of the structure field along a direction."""
    nodes = geometry_stencil(point_geometry(scenario, m), direction, step)
    return nodes.derivative(lambda geo: geo.pair.structure(orientation))


def frame_component_sums(dJ: np.ndarray, g: np.ndarray,
                         frame_rows: np.ndarray) -> Tuple[float, float]:
    """(full, mixed) squared component sums of a derivative tensor.

    full runs over all frame index pairs; mixed only over vertical rows
    against horizontal columns, frame order (T, e2, e3, e4).
    """
    comp = np.array([[float((dJ @ frame_rows[i]) @ g @ frame_rows[j])
                      for j in range(4)] for i in range(4)])
    full = float(np.sum(comp ** 2))
    mixed = float(np.sum(comp[:2, 2:] ** 2))
    return full, mixed


@dataclass
class NablaJNorms:
    """Squared derivative norms along T, closed form and measured."""

    closed: Tuple[float, float]
    direct: Tuple[float, float]


def nabla_J_norms(scenario: MorphismScenario, m, angle: float = 0.0,
                  step: float | None = None) -> NablaJNorms:
    """Closed-form norms from (a,b,c,d) next to direct derivative norms.

    The direct route differentiates the structure fields themselves and sums
    squared frame components; it stacks two finite difference layers, so
    agreement is expected at the 1e-3 relative level, not machine precision.
    """
    shape = _FiberShape(point_geometry(scenario, m), angle, step)
    return NablaJNorms(closed=closed_norm_pair(*shape.coefficients),
                       direct=shape.direct_norms())


# ------------------------------------------------------------------ reports


@dataclass
class WeingartenReport:
    """Everything the shape coefficients determine at one point."""

    geometry: PointGeometry
    vertical_unit: np.ndarray
    a: float
    b: float
    c: float
    d: float
    r1: float
    r2: float
    theta: float
    alpha: float
    commutator: np.ndarray
    norm_plus_closed: float
    norm_minus_closed: float
    norm_plus_direct: float | None
    norm_minus_direct: float | None
    product: float            # stable: product of the factored norms
    product_expanded: float   # identity form, for diagnostics only
    product_polar: float


def _shape_report(shape: _FiberShape, include_direct: bool) -> WeingartenReport:
    a, b, c, d = shape.coefficients
    r1, r2, theta, alpha = polar_form(a, b, c, d)
    np_closed, nm_closed = closed_norm_pair(a, b, c, d)
    np_direct = nm_direct = None
    if include_direct:
        np_direct, nm_direct = shape.direct_norms()
    return WeingartenReport(
        geometry=shape.nodes.center, vertical_unit=shape.T, a=a, b=b, c=c, d=d,
        r1=r1, r2=r2, theta=theta, alpha=alpha,
        commutator=commutator_matrix(a, b, c, d),
        norm_plus_closed=np_closed, norm_minus_closed=nm_closed,
        norm_plus_direct=np_direct, norm_minus_direct=nm_direct,
        product=np_closed * nm_closed,
        product_expanded=product_identity(a, b, c, d),
        product_polar=product_polar(r1, r2, theta, alpha))


def weingarten_report(scenario: MorphismScenario, m, angle: float = 0.0,
                      step: float | None = None,
                      include_direct: bool = True) -> WeingartenReport:
    shape = _FiberShape(point_geometry(scenario, m), angle, step)
    return _shape_report(shape, include_direct)


@dataclass
class ProductScan:
    """Annulus maxima of the norm product around a center."""

    center: np.ndarray
    radii: tuple
    annulus_max: tuple
    skipped: tuple            # per annulus: samples skipped as critical/outside
    plateau: float
    bound: float
    identity_gap: float       # worst |product - product_polar| over the scan
    verdict: str


def product_bound_scan(scenario: MorphismScenario, center,
                       radii: Sequence[float] | None = None,
                       n_directions: int = 8, seed: int = 0,
                       angle: float = 0.0) -> ProductScan:
    """Scan the norm product over shrinking annuli around a center.

    The product stays bounded near an isolated critical point even when one
    factor blows up, so the verdict compares the maxima on small annuli to
    the plateau of the three coarsest ones; an absolute floor keeps noise on
    identically vanishing products from failing the verdict. Derivative
    steps shrink with the annulus radius because the frame fields vary on
    that scale.
    """
    center = np.asarray(center, dtype=float)
    if radii is None:
        reach = scenario.domain.boundary_distance(center)
        r0 = min(0.1, 0.5 * reach)
        radii = tuple(r0 * 0.5 ** i for i in range(7))
    radii, points = shell_samples(seeded_directions(n_directions, seed), radii,
                                  center=center)
    annulus_max = []
    skipped = []
    identity_gap = 0.0
    for r, shell in zip(radii, points):
        worst = 0.0
        miss = 0
        for y in shell:
            if not scenario.domain.contains(y):
                miss += 1
                continue
            geo = point_geometry(scenario, y)
            if not geo.classification.is_regular:
                miss += 1
                continue
            rep = _shape_report(_FiberShape(geo, angle, SCAN_STEP_FRACTION * r),
                                include_direct=False)
            scale = identity_scale(rep.a, rep.b, rep.c, rep.d)
            identity_gap = max(identity_gap,
                               abs(rep.product_expanded - rep.product_polar) / scale)
            worst = max(worst, rep.product)
        annulus_max.append(worst)
        skipped.append(miss)
    plateau = max(annulus_max[:3])
    bound = max(1.5 * plateau, PRODUCT_FLOOR)
    ok = all(v <= bound for v in annulus_max)
    return ProductScan(center=center, radii=radii, annulus_max=tuple(annulus_max),
                       skipped=tuple(skipped), plateau=plateau, bound=bound,
                       identity_gap=identity_gap,
                       verdict="PASS" if ok else "FAIL")
