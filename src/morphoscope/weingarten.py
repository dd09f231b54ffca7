"""Fiber shape coefficients and the derivative norms of the structure pair.

Frame convention in this module: (e1, e2) spans the vertical plane with
e1 = T the chosen unit vertical vector and e2 = J+ T, while (e3, e4) spans
the horizontal plane with e4 the positive rotation of e3. The four shape
coefficients a, b, c, d are horizontal components of vertical covariant
derivatives, and every closed form is a polynomial in them.

The shapes are taken over regular rows of a geometry stack (`shape_stack`),
which keeps their coefficients as one (n, 4) array. Each closed form is a
column of that array, derived over all rows the first time it is read; a
point alone is the stack of one, and its report reads row 0 of the columns.
A scan runs no loop over its samples: it reads the products and identity
gaps as columns and takes the annulus maxima with Python's max. Every
derivative is read from the exact first jets of the geometry stack, so a
shape needs no geometry at any other point: a scan builds one geometry
stack of its samples.
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


def _squared(x: np.ndarray) -> np.ndarray:
    """x ** 2 by libm's pow, as Python's float power takes it: x * x
    differs from it in the last bit for some x."""
    return np.float_power(x, 2)


def frame_components(dJ: np.ndarray, g: np.ndarray, frame_rows: np.ndarray) -> np.ndarray:
    """comp[..., i, j] = g(dJ f_i, f_j) of a derivative tensor over the rows
    f_i of a frame, for stacks of tensors, metrics and frames alike."""
    # (4, 1), (1, 4) and (4, 1) matrix products over the frame rows f_i and f_j
    rows = frame_rows[..., None]
    left = (dJ[..., None, :, :] @ rows).swapaxes(-1, -2) @ g[..., None, :, :]
    return (left[..., :, None, :, :] @ rows[..., None, :, :, :])[..., 0, 0]


# -------------------------------------------------------------- coefficients


@dataclass(eq=False)
class ShapeStack:
    """The fiber shapes at regular rows of one geometry stack, built in one
    pass (see shape_stack), and their closed forms as columns.

    Each column is derived over all rows the first time it is read and then
    kept. Row i of each equals, bit for bit, that of the shape of its point
    alone: squares are libm's pow (`_squared`), and hypot, atan2 and cos
    are Python's own, mapped over the rows.
    """

    stack: GeometryStack
    index: np.ndarray        # the rows of the geometry stack, in order
    frames: np.ndarray       # (n, 4, 4) rows T, e2, e3, e4 of each adapted frame
    coefficient_array: np.ndarray   # (n, 4) a, b, c, d of each row

    @cached_property
    def closed(self) -> np.ndarray:
        """(n, 2) squared norms of the derivatives of J+ and J- along T,
        closed form: 4((a - d)^2 + (b + c)^2) and 4((a + d)^2 + (b - c)^2)."""
        a, b, c, d = self.coefficient_array.T
        return np.array([4.0 * (_squared(a - d) + _squared(b + c)),
                         4.0 * (_squared(a + d) + _squared(b - c))]).T

    @cached_property
    def product(self) -> np.ndarray:
        """Product of the two squared norms, stable: the factored closed norms."""
        return self.closed[:, 0] * self.closed[:, 1]

    @cached_property
    def product_expanded(self) -> np.ndarray:
        """The product in expanded form, 16 (s^2 - 4 (ad - bc)^2) with s =
        a^2 + b^2 + c^2 + d^2: algebraically the product, but the
        subtraction cancels catastrophically when the product nearly
        vanishes, so it serves only as an identity diagnostic on its own
        magnitude scale."""
        a, b, c, d = self.coefficient_array.T
        return 16.0 * (self._s_squared - 4.0 * _squared(a * d - b * c))

    @cached_property
    def polar(self) -> np.ndarray:
        """(n, 4) polar form (r1, r2, theta, alpha) with a = r1 cos(theta),
        c = r1 sin(theta), b = r2 cos(alpha), d = r2 sin(alpha)."""
        a, b, c, d = self.coefficient_array.T.tolist()
        return np.array([list(map(math.hypot, a, c)), list(map(math.hypot, b, d)),
                         list(map(math.atan2, c, a)), list(map(math.atan2, d, b))]).T

    @cached_property
    def product_polar(self) -> np.ndarray:
        """Product of the two squared norms in the polar form."""
        r1, r2, theta, alpha = self.polar.T
        r1_sq, r2_sq = _squared(r1), _squared(r2)
        cosines = np.array(list(map(math.cos, (theta - alpha).tolist())))
        return 16.0 * (_squared(r1_sq - r2_sq) + 4.0 * r1_sq * r2_sq * _squared(cosines))

    @cached_property
    def identity_scale(self) -> np.ndarray:
        """Natural magnitude of the product identity terms, 16 max(1, s^2)."""
        return 16.0 * np.maximum(1.0, self._s_squared)

    @cached_property
    def _s_squared(self) -> np.ndarray:
        """s^2 with s = a^2 + b^2 + c^2 + d^2, shared by the expanded
        product and the identity scale."""
        a, b, c, d = self.coefficient_array.T
        s = a * a + b * b + c * c + d * d
        return s * s

    @cached_property
    def identity_gap(self) -> np.ndarray:
        """|product_expanded - product_polar| relative to identity_scale."""
        return np.abs(self.product_expanded - self.product_polar) / self.identity_scale

    @cached_property
    def commutator(self) -> np.ndarray:
        """(n, 2, 2) commutator of the squared shape map with the vertical
        rotation, [[p, q], [q, -p]] with p = 2(ab + cd) and q = b^2 + d^2 -
        (a^2 + c^2). It vanishes when the ambient metric is Einstein, so its
        Frobenius norm is the Einstein-defect diagnostic of the report."""
        a, b, c, d = self.coefficient_array.T
        p = 2.0 * (a * b + c * d)
        q = b * b + d * d - (a * a + c * c)
        return np.array([p, q, q, -p]).T.reshape(-1, 2, 2)

    @cached_property
    def direct(self) -> np.ndarray:
        """(n, 2) full squared frame component sums of the derivatives of J+
        and J- along T.

        The direct route differentiates the structure fields themselves, by
        their exact jets (morphism.GeometryStack.structure_jets), where
        `closed` reads the shape coefficients; both are exact, so they
        agree to rounding.
        """
        dJ = np.stack([along(jet[self.index], self.frames[:, 0])
                       for _, jet in self.stack.structure_jets], axis=1)
        g = self.stack.metric.g[self.index]
        comp = frame_components(dJ, g[:, None], self.frames[:, None])
        # one sum over the 16 components of a row, as np.sum takes a 4 x 4 matrix
        return np.sum((comp ** 2).reshape(comp.shape[:-2] + (16,)), axis=-1)


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
    e2 = ca * vertical[:, 1] - sa * vertical[:, 0]   # J+ T, as v2 = J+ v1
    e3, e4 = horizontal[:, 0], horizontal[:, 1]      # e4: positive rotation of e3
    dP = along(stack.projector_jet[index], T)
    dT, dE2 = ((dP @ v[..., None])[..., 0] for v in (T, e2))
    g = stack.metric.g[index]
    coefficients = -np.stack([g_products(dT, g, e3), g_products(dT, g, e4),
                              g_products(dE2, g, e3), g_products(dE2, g, e4)], axis=1)
    return ShapeStack(stack=stack, index=index, frames=np.stack([T, e2, e3, e4], axis=1),
                      coefficient_array=coefficients)


def weingarten_matrix(scenario: MorphismScenario, m,
                      angle: float = 0.0) -> Tuple[float, float, float, float]:
    """Shape coefficients (a, b, c, d) of the fiber at a regular point.

    a, b are the horizontal components of the covariant derivative of the
    unit vertical field T along itself; c, d are those of the rotated field.
    The vertical fields come from the canonical splitting, so the numbers
    are reproducible; `angle` rotates T inside the vertical plane.
    """
    return tuple(shape_stack(geometry_stack(scenario, [m]), [0], angle)
                 .coefficient_array[0].tolist())


def nabla_J_norms(scenario: MorphismScenario, m, angle: float = 0.0) -> ShapeStack:
    """The shape stack of one regular point, read for its closed-form norms
    from (a, b, c, d) next to the direct derivative norms (`closed` and
    `direct`); `angle` rotates T inside the vertical plane."""
    return shape_stack(geometry_stack(scenario, [m]), [0], angle)


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
    passed: bool


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
    and identity gaps are read as columns of its shape stack; a critical
    sample is skipped, and the first sample, radius-major, that failed the
    pass or its splitting raises its failure.
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
    regular, products, gaps = np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
    if inside.any():
        stack = stack_pass(scenario, points[inside])
        # a sample that failed the pass is regular, so the shape stack
        # raises it in order
        regular = np.flatnonzero(stack.regular)
    if regular.size:
        shapes = shape_stack(stack, regular, angle)
        products, gaps = shapes.product, shapes.identity_gap
    shells = shell_of[regular]
    # Python's max from 0.0, as a running maximum over the samples: a NaN
    # never wins
    annulus_max = [max([0.0, *products[shells == shell].tolist()])
                   for shell in range(len(radii))]
    identity_gap = max([0.0, *gaps.tolist()])
    skipped = (points.shape[1] - np.bincount(shells, minlength=len(radii))).tolist()
    plateau = max(annulus_max[:3])
    bound = max(1.5 * plateau, PRODUCT_FLOOR)
    empty = tuple(r for r, miss in zip(radii, skipped) if miss == len(directions))
    ok = all(v <= bound for v in annulus_max) and not empty
    return ProductScan(center=center, radii=radii, annulus_max=tuple(annulus_max),
                       skipped=tuple(skipped), empty=empty, plateau=plateau,
                       bound=bound, identity_gap=identity_gap, passed=ok)
