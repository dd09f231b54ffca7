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
from typing import Dict, Sequence, Tuple

import numpy as np

from ._linalg import surface_complex_structure
from .errors import DomainError, GeometryError
from .geometry import Box, ChartMetric, metric_point, pullback_metric
from .polynomials import UPPER, Poly, Table, evaluate, from_complex_pair, symmetric


# multiplication by i on the target plane
TARGET_ROTATION = surface_complex_structure(np.eye(2))


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
        self._d1 = Table(self.component.diff(k) for k in range(4))
        self._d2 = Table(self._d1[k].diff(l) for k, l in UPPER)

    @property
    def domain(self) -> Box:
        return self.metric.domain

    def value(self, m: Sequence[float]) -> complex:
        return self.component.eval(m)

    def jacobian(self, m) -> np.ndarray:
        """(..., 2, 4) differential at a point or over a stack of points."""
        c = evaluate(self._d1, m)
        return np.stack((c.real, c.imag), axis=-2)

    def hessians(self, m) -> np.ndarray:
        """(..., 2, 4, 4) Hessians of the two components."""
        c = evaluate(self._d2, m)
        return symmetric(np.stack((c.real, c.imag), axis=-2))


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
    component = first.real_poly() + Poly({e: 1j * c for e, c in second.real_poly().coeffs.items()})
    return MorphismScenario(name=name, metric=metric, component=component,
                            orientation=orientation)


def pullback_scenario(base: MorphismScenario, diffeo: Sequence[Poly], domain: Box,
                      name: str) -> MorphismScenario:
    """Precompose a scenario with a polynomial chart change.

    diffeo maps the new chart into the base chart; the metric is pulled back
    alongside the map so all invariants transport.
    """
    comps = [p.real_poly() for p in diffeo]
    return MorphismScenario(
        name=name, metric=pullback_metric(base.metric, comps, domain),
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
    chart_map: Table
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
        chart_map = Table(Poly.variable(k) for k in range(4))
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
    chart_map = Table(chart_map)

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
    domain = Box.cube(rho)
    new_metric = pullback_metric(scenario.metric, chart_map, domain)
    new_component = scenario.component.compose(chart_map)
    new_scenario = MorphismScenario(
        name=f"{scenario.name}#normal", metric=new_metric, component=new_component,
        orientation=scenario.orientation)
    return NormalChart(center=m0, chart_map=chart_map,
                       scenario=new_scenario, identity=False)
