"""Morphism scenarios: polynomial maps from a chart to a surface.

A scenario bundles a chart metric, the map to the target surface stored as a
single complex-coefficient polynomial (first target coordinate plus i times
the second), and a chart orientation flag. Because the map is polynomial,
Jacobians and Hessians are exact. The target is C with its Euclidean metric
and standard orientation: for a surface target only the conformal class
matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import DomainError, GeometryError
from .geometry import Box, ChartMetric, PullbackMetric, metric_point
from .polynomials import Jet, Poly, evaluate, from_complex_pair, mirrored


# multiplication by i on the target plane
TARGET_ROTATION = np.array([[-0.0, -1.0], [1.0, 0.0]])


@dataclass
class MorphismScenario:
    """A polynomial map scenario on a metric chart."""

    name: str
    metric: ChartMetric
    component: Poly
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @cached_property
    def jet(self) -> Jet:
        """The map's jet, through the second derivatives."""
        return Jet([self.component], range(1, 3))

    @property
    def domain(self) -> Box:
        return self.metric.domain

    def jacobian(self, m) -> np.ndarray:
        """(..., 2, 4) differential at a point or over a stack of points."""
        return _components(evaluate(self.jet, m, 1)[..., 0, :], -2)

    def hessians(self, m) -> np.ndarray:
        """(..., 2, 4, 4) Hessians of the two components, d_k d_l read from k <= l."""
        return _components(mirrored(evaluate(self.jet, m, 2)[..., 0, :, :]), -3)


def _components(c: np.ndarray, axis: int) -> np.ndarray:
    """The real and the imaginary part of c, a complex array whose last axis
    is contiguous, stacked on a new axis at `axis`."""
    parts = c.view(float).reshape(c.shape + (2,))
    for k in range(-1, axis, -1):
        parts = parts.swapaxes(k, k - 1)
    return np.ascontiguousarray(parts)


# ----------------------------------------------------------- constructors


def holomorphic_scenario(name: str, w_coeffs: Dict[Tuple[int, int], complex],
                         metric: ChartMetric, orientation: int = 1) -> MorphismScenario:
    """Scenario from a polynomial in the two complex chart coordinates."""
    return MorphismScenario(
        name=name, metric=metric, component=from_complex_pair(w_coeffs),
        orientation=orientation)


def real_scenario(name: str, first: Poly, second: Poly, metric: ChartMetric,
                  orientation: int = 1) -> MorphismScenario:
    """Scenario from two real polynomial components."""
    return MorphismScenario(name=name, metric=metric,
                            component=first.real_poly() + 1j * second.real_poly(),
                            orientation=orientation)


def pullback_scenario(base: MorphismScenario, diffeo: Sequence[Poly], domain: Box,
                      name: str) -> MorphismScenario:
    """Precompose a scenario with a polynomial chart change.

    diffeo maps the new chart into the base chart; the metric is pulled back
    alongside the map so all invariants transport.
    """
    comps = [p.real_poly() for p in diffeo]
    return MorphismScenario(
        name=name, metric=PullbackMetric(base.metric, comps, domain),
        component=base.component.compose(comps), orientation=base.orientation)


# ------------------------------------------------------------ normal chart


@dataclass
class NormalChart:
    """Second order normal chart at a center, with the rewritten scenario.

    In the new coordinates the metric is the identity at the origin and the
    Christoffel symbols vanish there, so constant-matrix structures are
    parallel at the center to second order. `chart_map` sends new
    coordinates to original ones; it is the identity marker when the input
    chart already has both properties at the center.
    """

    center: np.ndarray
    chart_map: Jet
    scenario: MorphismScenario
    identity: bool

    def to_original(self, y: Sequence[float]) -> np.ndarray:
        return evaluate(self.chart_map, y).real


def normalized_scenario(scenario: MorphismScenario, m0) -> NormalChart:
    """Rewrite a scenario in second order normal coordinates at m0."""
    mp = metric_point(scenario.metric, m0)
    m0, g0, gamma0 = mp.point, mp.g, mp.gamma
    ident = (np.allclose(m0, 0.0, atol=1e-300)
             and np.max(np.abs(g0 - np.eye(4))) < 1e-15
             and np.max(np.abs(gamma0)) < 1e-15)
    if ident:
        chart_map = Jet((Poly.variable(k) for k in range(4)), range(1))
        return NormalChart(center=m0, chart_map=chart_map,
                           scenario=scenario, identity=True)
    A, Ainv = mp.sqrt_pair
    # Christoffel symbols after the linear change y = A (x - m0)
    gamma_z = np.einsum("ck,ia,jb,kij->cab", A, Ainv, Ainv, gamma0)
    y = [Poly.variable(k) for k in range(4)]
    quad = []
    for c in range(4):
        q = Poly.zero()
        for a in range(4):
            for b in range(4):
                coeff = gamma_z[c, a, b]
                if coeff != 0.0:
                    q = q + (0.5 * coeff) * y[a] * y[b]
        quad.append(q)
    chart_map = []
    for i in range(4):
        comp = Poly.constant(m0[i])
        for c in range(4):
            comp = comp + Ainv[i, c] * (y[c] - quad[c])
        chart_map.append(comp.real_poly())

    # safe cube in the new coordinates: image must stay inside the old box
    reach = scenario.metric.domain.boundary_distance(m0)
    if reach <= 0:
        raise DomainError("normal chart center sits on the domain boundary")
    ainv_norm = float(np.max(np.sum(np.abs(Ainv), axis=1)))
    gmax = float(np.max(np.sum(np.abs(gamma_z), axis=(1, 2))))
    rho = 0.9 * reach / ainv_norm
    for _ in range(200):
        # ||y - q(y)||_inf <= rho + gmax rho^2 / 2 on the cube of half-width rho
        try:
            spread = ainv_norm * (rho + 0.5 * gmax * rho ** 2)
        except OverflowError:
            raise GeometryError(f"normal chart at {m0.tolist()} overflows") from None
        if spread <= 0.95 * reach:
            break
        rho *= 0.9
    normal = pullback_scenario(scenario, chart_map, Box.cube(rho), f"{scenario.name}#normal")
    # the chart map is the pulled-back metric's jet, compiled once
    return NormalChart(center=m0, chart_map=normal.metric.diffeo,
                       scenario=normal, identity=False)
