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
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .calculus import MorphismScenario
from .errors import DomainError
from .morphism import PointGeometry, point_geometry
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


class FiberShape:
    """One evaluation of the fiber shape at a regular point.

    Holds the point's geometry and the adapted frame (T, e2, e3, e4) there.
    Every derivative of the evaluation (of T, of the rotated field J+ T and
    of both structures) is taken on the geometry's stencil along T, and the
    shape coefficients are computed when the shape is built. The polar
    form, the commutator and the closed and direct norms are derived on
    first use and then kept; the products and the identity gap are read
    from them.
    """

    def __init__(self, geometry: PointGeometry, angle: float, step: float | None):
        self.geometry = geometry
        self.step = step
        self.ca, self.sa = math.cos(angle), math.sin(angle)
        self.T = self.t_field(geometry)
        v1, v2 = geometry.vertical
        e2 = self.ca * v2 - self.sa * v1   # positive vertical rotation
        e3, e4 = geometry.horizontal       # e4: positive rotation of e3
        self.frame = np.array([self.T, e2, e3, e4])
        g = geometry.g
        dT = geometry.derivative(self.t_field, self.T, step)
        dE2 = geometry.derivative(lambda geo: geo.j_plus @ self.t_field(geo), self.T, step)
        self.coefficients = (-float(dT @ g @ e3), -float(dT @ g @ e4),
                             -float(dE2 @ g @ e3), -float(dE2 @ g @ e4))

    def t_field(self, geo: PointGeometry) -> np.ndarray:
        return self.ca * geo.vertical[0] + self.sa * geo.vertical[1]

    @cached_property
    def polar(self) -> Tuple[float, float, float, float]:
        """(r1, r2, theta, alpha), see polar_form."""
        return polar_form(*self.coefficients)

    @cached_property
    def commutator(self) -> np.ndarray:
        """Vanishes when the ambient metric is Einstein, so its Frobenius
        norm is the Einstein-defect diagnostic of the report."""
        return commutator_matrix(*self.coefficients)

    @cached_property
    def closed(self) -> Tuple[float, float]:
        """Squared norms of the derivatives of J+ and J- along T, closed form."""
        return closed_norm_pair(*self.coefficients)

    @cached_property
    def direct(self) -> Tuple[float, float]:
        """Full squared frame component sums of the derivatives of J+ and J-.

        The direct route differentiates the structure fields themselves; it
        stacks two finite difference layers, so agreement with `closed` is
        expected at the 1e-3 relative level, not machine precision.
        """
        full = []
        for orientation in (1, -1):
            dJ = self.geometry.derivative(lambda geo: geo.structure(orientation),
                                          self.T, self.step)
            full.append(frame_component_sums(dJ, self.geometry.g, self.frame)[0])
        return full[0], full[1]

    @property
    def product(self) -> float:
        """Product of the two squared norms, stable: the factored closed norms."""
        return self.closed[0] * self.closed[1]

    @property
    def product_expanded(self) -> float:
        """The identity form of the product, for diagnostics only."""
        return product_identity(*self.coefficients)

    @property
    def product_polar(self) -> float:
        return product_polar(*self.polar)

    @property
    def identity_gap(self) -> float:
        """|product_expanded - product_polar| relative to identity_scale."""
        return (abs(self.product_expanded - self.product_polar)
                / identity_scale(*self.coefficients))


def fiber_shape(scenario: MorphismScenario, m, angle: float = 0.0,
                step: float | None = None) -> FiberShape:
    """The fiber shape at a regular point m; `angle` rotates T inside the
    vertical plane."""
    return FiberShape(point_geometry(scenario, m), angle, step)


def weingarten_matrix(scenario: MorphismScenario, m, angle: float = 0.0,
                      step: float | None = None) -> Tuple[float, float, float, float]:
    """Shape coefficients (a, b, c, d) of the fiber at a regular point.

    a, b are the horizontal components of the covariant derivative of the
    unit vertical field T along itself; c, d are those of the rotated field.
    The vertical fields come from the canonical splitting, so the numbers
    are reproducible; `angle` rotates T inside the vertical plane.
    """
    return fiber_shape(scenario, m, angle, step).coefficients


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


def nabla_J_norms(scenario: MorphismScenario, m, angle: float = 0.0,
                  step: float | None = None) -> FiberShape:
    """The fiber shape, read for its closed-form norms from (a, b, c, d)
    next to the direct derivative norms (`closed` and `direct`)."""
    return fiber_shape(scenario, m, angle, step)


# ------------------------------------------------------------------- scan


@dataclass
class ProductScan:
    """Annulus maxima of the norm product around a center."""

    center: np.ndarray
    radii: tuple
    annulus_max: tuple
    skipped: tuple            # per annulus: samples skipped as critical/outside
    empty: tuple              # radii of the annuli with no certified sample
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
    identically vanishing products from failing the verdict. An annulus
    that certifies no sample bounds nothing, so it fails the verdict too.
    Derivative steps shrink with the annulus radius because the frame
    fields vary on that scale. The center must lie strictly inside the
    chart domain.
    """
    center = np.asarray(center, dtype=float)
    reach = scenario.domain.boundary_distance(center)
    if not reach > 0:
        raise DomainError(
            f"scan center {center.tolist()} is not strictly inside the chart domain")
    if radii is None:
        r0 = min(0.1, 0.5 * reach)
        radii = tuple(r0 * 0.5 ** i for i in range(7))
    directions = seeded_directions(n_directions, seed)
    radii, points = shell_samples(directions, radii, center=center)
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
            if not geo.is_regular:
                miss += 1
                continue
            shape = FiberShape(geo, angle, SCAN_STEP_FRACTION * r)
            identity_gap = max(identity_gap, shape.identity_gap)
            worst = max(worst, shape.product)
        annulus_max.append(worst)
        skipped.append(miss)
    plateau = max(annulus_max[:3])
    bound = max(1.5 * plateau, PRODUCT_FLOOR)
    empty = tuple(r for r, miss in zip(radii, skipped) if miss == len(directions))
    ok = all(v <= bound for v in annulus_max) and not empty
    return ProductScan(center=center, radii=radii, annulus_max=tuple(annulus_max),
                       skipped=tuple(skipped), empty=empty, plateau=plateau,
                       bound=bound, identity_gap=identity_gap,
                       verdict="PASS" if ok else "FAIL")
