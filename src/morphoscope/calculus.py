"""Morphism scenarios: polynomial maps from a chart to a surface, with jets.

A scenario bundles a chart metric, the map to the target surface stored as a
single complex-coefficient polynomial (first target coordinate plus i times
the second), the constant target metric, and an orientation flag. Because
the map is polynomial, differentials, Hessians and recentered jets are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from ._linalg import check_spd, spd_sqrt_pair, surface_complex_structure
from .errors import DomainError, GeometryError, UnsupportedOrderError
from .geometry import Box, ChartMetric, metric_point, pullback_metric
from .polynomials import Exponents, Poly, from_complex_pair

MAX_JET_ORDER = 6

_UNIT_EXPONENTS: Tuple[Exponents, ...] = (
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class TargetSurface:
    """Target surface chart with a constant coefficient metric."""

    def __init__(self, matrix: np.ndarray | None = None, orientation: int = 1):
        h = np.eye(2) if matrix is None else np.asarray(matrix, dtype=float)
        check_spd(h, "target metric")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.matrix = h
        self.orientation = int(orientation)
        self.sqrt, self.inv_sqrt = spd_sqrt_pair(h)
        self._j = surface_complex_structure(h, orientation)

    def complex_structure(self, u: Sequence[float] | None = None) -> np.ndarray:
        return self._j


@dataclass
class MapJet:
    """Exact Taylor data of the map at a center, up to a total order."""

    center: np.ndarray
    order: int
    coefficients: Dict[Exponents, complex]

    def value(self) -> complex:
        return self.coefficients.get((0, 0, 0, 0), 0j)

    def jacobian(self) -> np.ndarray:
        out = np.zeros((2, 4))
        for k, e in enumerate(_UNIT_EXPONENTS):
            c = self.coefficients.get(e, 0j)
            out[0, k] = c.real
            out[1, k] = c.imag
        return out

    def as_poly(self) -> Poly:
        return Poly(self.coefficients)


@dataclass
class MorphismScenario:
    """A polynomial map scenario on a metric chart."""

    name: str
    metric: ChartMetric
    component: Poly
    kind: str
    target: TargetSurface = field(default_factory=TargetSurface)
    orientation: int = 1
    critical_hints: tuple = ()

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self._d1 = [self.component.diff(k) for k in range(4)]
        self._d2 = [[self._d1[k].diff(l) for l in range(4)] for k in range(4)]

    @property
    def domain(self) -> Box:
        return self.metric.domain

    def value(self, m: Sequence[float]) -> complex:
        return self.component.eval(m)

    def jacobian(self, m: Sequence[float]) -> np.ndarray:
        out = np.zeros((2, 4))
        for k in range(4):
            c = self._d1[k].eval(m)
            out[0, k] = c.real
            out[1, k] = c.imag
        return out

    def hessians(self, m: Sequence[float]) -> np.ndarray:
        out = np.zeros((2, 4, 4))
        for k in range(4):
            for l in range(k, 4):
                c = self._d2[k][l].eval(m)
                out[0, k, l] = out[0, l, k] = c.real
                out[1, k, l] = out[1, l, k] = c.imag
        return out

    def jet(self, m: Sequence[float], order: int) -> MapJet:
        if not 0 <= order <= MAX_JET_ORDER:
            raise UnsupportedOrderError(
                f"jet order {order} outside supported range 0..{MAX_JET_ORDER}")
        m = np.asarray(m, dtype=float)
        self.metric.require_inside(m)
        shifted = self.component.shift(m).truncate_above(order)
        return MapJet(center=m, order=order, coefficients=dict(shifted.coeffs))


def differential(scenario: MorphismScenario, m) -> np.ndarray:
    """Differential of the map at m as a real 2x4 matrix."""
    scenario.metric.require_inside(m)
    return scenario.jacobian(m)


# ----------------------------------------------------------- constructors


def holomorphic_scenario(name: str, w_coeffs: Dict[Tuple[int, int], complex],
                         metric: ChartMetric, target: TargetSurface | None = None,
                         orientation: int = 1, critical_hints: tuple = ()) -> MorphismScenario:
    """Scenario from a polynomial in the two complex chart coordinates."""
    return MorphismScenario(
        name=name, metric=metric, component=from_complex_pair(w_coeffs),
        kind="holomorphic_poly", target=target or TargetSurface(),
        orientation=orientation, critical_hints=critical_hints)


def real_scenario(name: str, first: Poly, second: Poly, metric: ChartMetric,
                  target: TargetSurface | None = None, orientation: int = 1,
                  critical_hints: tuple = ()) -> MorphismScenario:
    """Scenario from two real polynomial components."""
    component = first.real_poly() + Poly({e: 1j * c for e, c in second.real_poly().coeffs.items()})
    return MorphismScenario(
        name=name, metric=metric, component=component, kind="real_poly",
        target=target or TargetSurface(), orientation=orientation,
        critical_hints=critical_hints)


def pullback_scenario(base: MorphismScenario, diffeo: Sequence[Poly], domain: Box,
                      name: str, critical_hints: tuple = ()) -> MorphismScenario:
    """Precompose a scenario with a polynomial chart change.

    diffeo maps the new chart into the base chart; the metric is pulled back
    alongside the map so all invariants transport.
    """
    comps = [p.real_poly() for p in diffeo]
    return MorphismScenario(
        name=name, metric=pullback_metric(base.metric, comps, domain),
        component=base.component.compose(comps), kind="pullback_composed",
        target=base.target, orientation=base.orientation,
        critical_hints=critical_hints)


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
    linear: np.ndarray
    chart_map: Sequence[Poly]
    scenario: MorphismScenario
    identity: bool

    def to_original(self, y: Sequence[float]) -> np.ndarray:
        return np.array([p.eval_real(y) for p in self.chart_map])


def normalized_scenario(scenario: MorphismScenario, m0) -> NormalChart:
    """Rewrite a scenario in second order normal coordinates at m0."""
    mp = metric_point(scenario.metric, m0)
    m0, g0, gamma0 = mp.point, mp.g, mp.gamma
    ident = (np.allclose(m0, 0.0, atol=1e-300)
             and np.max(np.abs(g0 - np.eye(4))) < 1e-15
             and np.max(np.abs(gamma0)) < 1e-15)
    if ident:
        chart_map = [Poly.variable(k) for k in range(4)]
        return NormalChart(center=m0, linear=np.eye(4), chart_map=chart_map,
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
    domain = Box.cube(rho)
    new_metric = pullback_metric(scenario.metric, chart_map, domain)
    new_component = scenario.component.compose(chart_map)
    new_scenario = MorphismScenario(
        name=f"{scenario.name}#normal", metric=new_metric, component=new_component,
        kind="pullback_composed", target=scenario.target,
        orientation=scenario.orientation)
    return NormalChart(center=m0, linear=A, chart_map=chart_map,
                       scenario=new_scenario, identity=False)
