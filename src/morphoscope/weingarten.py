"""Fiber shape coefficients and the derivative norms of the structure pair.

Frame convention in this module: (e1, e2) spans the vertical plane with
e1 = T the chosen unit vertical vector and e2 the positive rotation of T,
while (e3, e4) spans the horizontal plane with e4 the positive rotation of
e3. The four shape coefficients a, b, c, d are horizontal components of
vertical covariant derivatives; every closed form below is a polynomial in
them, so the pure functions are kept separate from the frame machinery for
direct algebraic testing.

The shapes are taken over regular rows of a geometry stack (`shape_stack`),
and a `FiberShape` is a row of a shape stack; a point alone is the stack of
one. A scan builds no FiberShape: it reads the norm products and identity
gaps of its samples as columns of the shape stack's coefficients. Every
derivative is read from the exact first jets of the geometry
stack, so a shape needs no geometry at any other point: a scan builds one
geometry stack of its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .calculus import MorphismScenario
from .errors import DomainError
from .geometry import g_products
from .morphism import GeometryStack, along, geometry_stack, stack_pass
from .ratefit import seeded_directions, shell_samples

PRODUCT_FLOOR = 1e-8


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


@dataclass(eq=False)
class ShapeStack:
    """The fiber shapes at regular rows of one geometry stack, built in one
    pass (see shape_stack)."""

    stack: GeometryStack
    index: np.ndarray        # the rows of the geometry stack, in order
    frames: np.ndarray       # (n, 4, 4) rows T, e2, e3, e4 of each adapted frame
    coefficients: list       # (a, b, c, d) of each row


def shape_stack(stack: GeometryStack, index, angle: float) -> ShapeStack:
    """The fiber shapes at regular rows `index` of a geometry stack, in
    order, built in one pass over those rows.

    Row i's shape is taken along its unit vertical T = cos(angle) v1 +
    sin(angle) v2: a, b = -g((nabla_T P_V) T, e3 or e4) and c, d =
    -g((nabla_T P_V) e2, e3 or e4), the horizontal parts of nabla_T T and
    nabla_T e2, from the stack's exact projector jet. Each row equals, bit
    for bit, the shape of its point alone. The first row in order that
    failed the pass or its splitting raises its failure.
    """
    ca, sa = math.cos(angle), math.sin(angle)
    index = np.asarray(index, dtype=int)
    stack.splitting[-1].raise_first(index)
    horizontal, vertical = (rows[index] for rows in stack.splitting[:2])
    T = ca * vertical[:, 0] + sa * vertical[:, 1]
    e2 = ca * vertical[:, 1] - sa * vertical[:, 0]   # positive vertical rotation
    e3, e4 = horizontal[:, 0], horizontal[:, 1]      # e4: positive rotation of e3
    dP = along(stack.projector_jet[index], T)
    dT, dE2 = ((dP @ v[..., None])[..., 0] for v in (T, e2))
    g = stack.metric.g[index]
    coefficients = -np.stack([g_products(dT, g, e3), g_products(dT, g, e4),
                              g_products(dE2, g, e3), g_products(dE2, g, e4)], axis=1)
    return ShapeStack(stack=stack, index=index, frames=np.stack([T, e2, e3, e4], axis=1),
                      coefficients=[tuple(row) for row in coefficients.tolist()])


class FiberShape:
    """The fiber shape at a regular point, along its unit vertical T: row
    `row` of a ShapeStack, with the point's geometry stack and its row
    there (`stack`, `index`), the adapted frame (T, e2, e3, e4) and the
    shape coefficients. The polar form, the commutator and the closed and
    direct norms are derived on first use and then kept, each for its row
    alone; the products and the identity gap are read from them.
    """

    def __init__(self, shapes: ShapeStack, row: int):
        self.stack = shapes.stack
        self.index = int(shapes.index[row])
        self.frame = shapes.frames[row]
        self.T = self.frame[0]
        self.coefficients = shapes.coefficients[row]

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

        The direct route differentiates the structure fields themselves, by
        their exact jets (morphism.GeometryStack.structure_jets), where
        `closed` reads the shape coefficients; both are exact, so they
        agree to rounding.
        """
        i, g = self.index, self.stack.metric.g[self.index]
        return tuple(frame_component_sums(along(jet[[i]], self.T[None])[0], g, self.frame)[0]
                     for _, jet in self.stack.structure_jets)

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


def fiber_shape(scenario: MorphismScenario, m, angle: float = 0.0) -> FiberShape:
    """The fiber shape at a regular point m; `angle` rotates T inside the
    vertical plane."""
    return FiberShape(shape_stack(geometry_stack(scenario, [m]), [0], angle), 0)


def weingarten_matrix(scenario: MorphismScenario, m,
                      angle: float = 0.0) -> Tuple[float, float, float, float]:
    """Shape coefficients (a, b, c, d) of the fiber at a regular point.

    a, b are the horizontal components of the covariant derivative of the
    unit vertical field T along itself; c, d are those of the rotated field.
    The vertical fields come from the canonical splitting, so the numbers
    are reproducible; `angle` rotates T inside the vertical plane.
    """
    return fiber_shape(scenario, m, angle).coefficients


def frame_component_sums(dJ: np.ndarray, g: np.ndarray,
                         frame_rows: np.ndarray) -> Tuple[float, float]:
    """(full, mixed) squared component sums of a derivative tensor.

    full runs over all frame index pairs; mixed only over vertical rows
    against horizontal columns, frame order (T, e2, e3, e4).
    """
    # comp[i, j] = ((dJ f_i) g) f_j, as (4, 1), (1, 4) and (4, 1) matrix
    # products over the frame rows f_i and f_j
    rows = frame_rows[:, :, None]
    comp = (((dJ @ rows).swapaxes(-1, -2) @ g)[:, None] @ rows)[..., 0, 0]
    full = float(np.sum(comp ** 2))
    mixed = float(np.sum(comp[:2, 2:] ** 2))
    return full, mixed


def nabla_J_norms(scenario: MorphismScenario, m, angle: float = 0.0) -> FiberShape:
    """The fiber shape, read for its closed-form norms from (a, b, c, d)
    next to the direct derivative norms (`closed` and `direct`)."""
    return fiber_shape(scenario, m, angle)


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
    The center must lie strictly inside the chart domain.

    The samples inside the domain are one stack of one pass, whose products
    and identity gaps are read row by row from the coefficients of its shape
    stack; a critical sample is skipped, and the first sample, radius-major,
    that failed the pass or its splitting raises its failure.
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
    inside = scenario.domain.contains(points)
    # the shell of each inside sample, radius-major as the samples
    shell_of = np.repeat(np.arange(len(radii)), points.shape[1])[inside.ravel()]
    regular, products, identity_gap = np.zeros(0, dtype=int), [], 0.0
    if inside.any():
        stack = stack_pass(scenario, points[inside])
        # a sample that failed the pass is regular, so the shape stack
        # raises it in order
        regular = np.flatnonzero(stack.regular)
    if regular.size:
        for coefficients in shape_stack(stack, regular, angle).coefficients:
            plus, minus = closed_norm_pair(*coefficients)
            products.append(plus * minus)
            identity_gap = max(identity_gap, abs(product_identity(*coefficients)
                                                 - product_polar(*polar_form(*coefficients)))
                               / identity_scale(*coefficients))
    shells = shell_of[regular].tolist()
    annulus_max = [max([0.0] + [v for v, k in zip(products, shells) if k == shell])
                   for shell in range(len(radii))]
    skipped = [points.shape[1] - shells.count(shell) for shell in range(len(radii))]
    plateau = max(annulus_max[:3])
    bound = max(1.5 * plateau, PRODUCT_FLOOR)
    empty = tuple(r for r, miss in zip(radii, skipped) if miss == len(directions))
    ok = all(v <= bound for v in annulus_max) and not empty
    return ProductScan(center=center, radii=radii, annulus_max=tuple(annulus_max),
                       skipped=tuple(skipped), empty=empty, plateau=plateau,
                       bound=bound, identity_gap=identity_gap,
                       verdict="PASS" if ok else "FAIL")
