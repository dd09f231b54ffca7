"""Leading symbol of a scenario at a center and the estimates it controls.

All work happens in the second order normal chart at the center, where the
metric is the identity with vanishing Christoffel symbols, so constant
matrices are honest candidate structures and Euclidean radii are comparable
to distance. The leading symbol is the lowest order homogeneous part of the
recentred map; candidate structures making it holomorphic are found per
orientation by constrained least squares over the unit sphere of fiber
coordinates (the holomorphy condition is affine in those coordinates), then
certified by coefficient vanishing in adapted complex coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from ._linalg import minimize_affine_on_sphere
from .calculus import MorphismScenario, NormalChart, normalized_scenario
from .errors import SymbolError, UnsupportedOrderError
from .morphism import EPS_CRITICAL, GeometryStack, geometry_stack
from .polynomials import Poly, Table, evaluate
from .ratefit import N_AXES, RateFit, fit_rate, seeded_directions, shell_samples
from .structures import structure_basis

COEFF_CHOP_REL = 1e-12
CANDIDATE_RESIDUAL_REL = 1e-8
ANTIHOLO_REL = 1e-10
MAX_JET_ORDER = 6


def _recentred_difference(scenario: MorphismScenario) -> Poly:
    """The map minus its value at the chart origin, small coefficients chopped."""
    component = scenario.component
    diff = component - Poly.constant(component.eval(np.zeros(4)))
    scale = diff.max_abs_coeff()
    if scale == 0.0:
        raise SymbolError("map is constant near the center")
    return diff.chop(COEFF_CHOP_REL * scale)


def _wirtinger_pair(p: Poly, axis: int) -> Tuple[Poly, Poly]:
    """(holomorphic, antiholomorphic) derivative in complex pair `axis`."""
    a, b = (0, 1) if axis == 0 else (2, 3)
    d_re, d_im = p.diff(a), p.diff(b)
    return 0.5 * (d_re - 1j * d_im), 0.5 * (d_re + 1j * d_im)


def _adapted_frame(J: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal columns (f1, J f1, f3, J f3), deterministic."""
    f1 = np.array([1.0, 0.0, 0.0, 0.0])
    f2 = J @ f1
    for k in range(4):
        cand = np.zeros(4)
        cand[k] = 1.0
        w = cand - (cand @ f1) * f1 - (cand @ f2) * f2
        n = np.linalg.norm(w)
        if n > 0.3:
            f3 = w / n
            break
    else:  # pragma: no cover - orthogonal complement always contains an axis part
        raise SymbolError("failed to build an adapted frame")
    f4 = J @ f3
    return np.column_stack([f1, f2, f3, f4])


@dataclass
class SymbolCandidate:
    """A constant structure making the leading symbol holomorphic."""

    orientation: int
    fiber: np.ndarray            # unit coordinates over the structure basis
    matrix: np.ndarray           # the structure in normalized chart coordinates
    residual: float              # relative holomorphy residual of the symbol
    coefficients: Dict[Tuple[int, int], complex]
    antiholomorphic_max: float   # largest stray conjugate coefficient, relative


@dataclass
class SymbolData:
    """Leading symbol at a center together with its candidate structures."""

    center: np.ndarray
    order: int
    chart: NormalChart
    homogeneous: Poly            # order-k part in normalized coordinates
    remainder: Poly              # centred map minus the leading symbol
    candidates: Tuple[SymbolCandidate, ...]


def _holomorphy_system(p_diffs: Sequence[Poly], basis) -> Tuple[np.ndarray, np.ndarray, float]:
    """Vectorize dP(J(u) X) - i dP(X) = 0 as rho0 + R u over real coefficients."""
    monomials = sorted({e for p in p_diffs for e in p.coeffs})
    index = {e: i for i, e in enumerate(monomials)}
    width = len(monomials)

    def vectorize(covector_polys) -> np.ndarray:
        out = np.zeros(2 * 4 * width)
        for j, poly in enumerate(covector_polys):
            for e, c in poly.coeffs.items():
                i = index[e]
                out[2 * (j * width + i)] = c.real
                out[2 * (j * width + i) + 1] = c.imag
        return out

    rho0 = vectorize([-1j * p_diffs[j] for j in range(4)])
    cols = []
    for Ja in basis:
        cols.append(vectorize([
            sum((p_diffs[k] * Ja[k, j] for k in range(4)), Poly.zero())
            for j in range(4)]))
    R = np.column_stack(cols)
    scale = float(np.linalg.norm(vectorize(p_diffs)))
    return rho0, R, scale


def _certify_candidate(P0: Poly, J: np.ndarray, orientation: int, order: int,
                       fiber: np.ndarray, residual: float) -> SymbolCandidate:
    frame = _adapted_frame(J)
    y = [Poly.variable(k) for k in range(4)]
    rows = [sum((frame[i, c] * y[c] for c in range(4)), Poly.zero()) for i in range(4)]
    tilted = P0.compose(rows)
    scale = max(tilted.max_abs_coeff(), 1e-300)
    anti = 0.0
    for axis in (0, 1):
        _, dbar = _wirtinger_pair(tilted, axis)
        anti = max(anti, dbar.max_abs_coeff() / scale)
    coeffs: Dict[Tuple[int, int], complex] = {}
    for a in range(order + 1):
        b = order - a
        work = tilted
        for _ in range(a):
            work, _ = _wirtinger_pair(work, 0)
        for _ in range(b):
            work, _ = _wirtinger_pair(work, 1)
        c = work.eval(np.zeros(4))
        c /= float(math.factorial(a) * math.factorial(b))
        if abs(c) > 1e-12 * max(1.0, scale):
            coeffs[(a, b)] = c
    return SymbolCandidate(orientation=orientation, fiber=fiber, matrix=J,
                           residual=residual, coefficients=coeffs,
                           antiholomorphic_max=anti)


def symbol_polynomial(scenario: MorphismScenario, m0) -> SymbolData:
    """Extract the leading symbol and its compatible constant structures."""
    m0 = np.asarray(m0, dtype=float)
    chart = normalized_scenario(scenario, m0)
    diff = _recentred_difference(chart.scenario)
    k = diff.lowest_order()
    if k > MAX_JET_ORDER:
        raise UnsupportedOrderError(
            f"vanishing order {k} exceeds the supported jet order {MAX_JET_ORDER}")
    P0 = diff.homogeneous_part(k)
    remainder = diff - P0
    p_diffs = [P0.diff(j) for j in range(4)]

    candidates = []
    for orientation in (1, -1):
        # labels are relative to the scenario's declared chart orientation
        basis = structure_basis(orientation * chart.scenario.orientation)
        rho0, R, scale = _holomorphy_system(p_diffs, basis)
        u, res = minimize_affine_on_sphere(rho0, R)
        if res > CANDIDATE_RESIDUAL_REL * max(scale, 1e-300):
            continue
        sols = [u]
        # a rank-deficient system may admit a second sphere solution along
        # the null direction of R; a larger null space means a continuum
        sv = np.linalg.svd(R, compute_uv=False)
        null_dim = int(np.sum(sv < 1e-10 * max(sv[0], 1e-300)))
        if null_dim >= 2:
            raise SymbolError("continuum of compatible structures for the symbol")
        if null_dim == 1:
            _, _, vt = np.linalg.svd(R)
            w = vt[-1]
            shift = -2.0 * float(u @ w)
            if abs(shift) > 1e-8:
                u2 = u + shift * w
                u2 /= np.linalg.norm(u2)
                res2 = float(np.linalg.norm(rho0 + R @ u2))
                if res2 <= CANDIDATE_RESIDUAL_REL * max(scale, 1e-300):
                    sols.append(u2)
        for usol in sols:
            J = sum(usol[a] * basis[a] for a in range(3))
            cand = _certify_candidate(P0, J, orientation, k, usol,
                                      res / max(scale, 1e-300))
            if cand.antiholomorphic_max <= ANTIHOLO_REL:
                candidates.append(cand)
    return SymbolData(center=m0, order=k, chart=chart, homogeneous=P0,
                      remainder=remainder, candidates=tuple(candidates))


# ------------------------------------------------------------------- rates


@dataclass(eq=False)
class CenterSample:
    """What the rate fits read at one center, built once.

    The leading symbol with its normal chart, the directions (the signed
    axes, then the seeded ones) and the radius-major (n_radii, n_dirs, 4)
    stack of shell samples in the chart. The geometry stack of the samples
    is built on first use, so a fit that reads only the symbol builds none.
    """

    symbol: SymbolData
    seed: int
    directions: np.ndarray
    radii: tuple
    points: np.ndarray

    @cached_property
    def stack(self) -> GeometryStack:
        """The geometry of every sample, radius-major: row j * n_dirs + i is
        the sample at radii[j] * directions[i]."""
        return geometry_stack(self.symbol.chart.scenario, self.points)


def center_sample(scenario: MorphismScenario, m0, radii: Sequence[float] | None = None,
                  n_directions: int = 16, seed: int = 0) -> CenterSample:
    """Symbol, directions and shell samples at m0 for every rate fit."""
    data = symbol_polynomial(scenario, m0)
    directions = seeded_directions(n_directions, seed, include_axes=True)
    radii, points = shell_samples(directions, radii, data.chart.scenario.domain.size())
    return CenterSample(symbol=data, seed=seed, directions=directions, radii=radii,
                        points=points)


@dataclass
class RemainderRates:
    """Decay fits for the symbol remainder and its differential."""

    radii: tuple
    value_fit: RateFit
    differential_fit: RateFit
    verdict: str


def remainder_rates(sample: CenterSample) -> RemainderRates:
    """Measure |Psi| and ||dPsi|| decay against the expected symbol order."""
    k = sample.symbol.order
    psi = sample.symbol.remainder
    # the remainder and its differential over the (n_radii, n_dirs) samples
    table = evaluate(Table([psi] + [psi.diff(j) for j in range(4)]),
                     sample.points[:, N_AXES:])
    dpsi = table[..., 1:]
    sups = np.linalg.svd(np.stack((dpsi.real, dpsi.imag), axis=-2), compute_uv=False)
    vals = [max([0.0] + [abs(v) for v in row]) for row in table[..., 0].tolist()]
    dvals = [max([0.0] + row) for row in sups[..., 0].tolist()]
    value_fit = fit_rate(sample.radii, vals)
    differential_fit = fit_rate(sample.radii, dvals)
    ok = value_fit.meets_lower_slope(k + 0.9) and differential_fit.meets_lower_slope(k - 0.1)
    return RemainderRates(radii=sample.radii, value_fit=value_fit,
                          differential_fit=differential_fit,
                          verdict="PASS" if ok else "FAIL")


@dataclass
class DilationLowerRate:
    """Lower dilation envelope lambda(m) >= C |m|^{k-1} around a center."""

    order: int
    radii: tuple
    values: tuple             # min over admissible directions of the dilation
    fit: RateFit
    envelope_constant: float  # min_i values_i / radii_i^{k-1}
    excluded_directions: tuple
    verdict: str


def dilation_lower_rate(sample: CenterSample) -> DilationLowerRate:
    """Fit the minimal dilation over shells; critical rays are excluded.

    A direction is excluded only when the dilation falls below the critical
    threshold at every sampled radius, which is the signature of a ray inside
    the critical set; exclusions are reported, not silently dropped.
    """
    k = sample.symbol.order
    dirs = sample.directions
    radii = sample.radii
    # rows are directions: a ray is excluded as a whole
    table = sample.stack.singular_values[:, 0].reshape(len(radii), len(dirs)).T
    excluded = [i for i in range(len(dirs)) if np.all(table[i] < EPS_CRITICAL)]
    keep = [i for i in range(len(dirs)) if i not in excluded]
    if not keep:
        raise SymbolError("every sampled direction is critical; no dilation envelope")
    values = tuple(float(np.min(table[keep, j])) for j in range(len(radii)))
    fit = fit_rate(radii, values)
    envelope = float(min(v / r ** (k - 1) for v, r in zip(values, radii)))
    ok = fit.meets_upper_slope(k - 1 + 0.1) and envelope > 1e-12
    return DilationLowerRate(order=k, radii=radii, values=values, fit=fit,
                             envelope_constant=envelope,
                             excluded_directions=tuple(dirs[i] for i in excluded),
                             verdict="PASS" if ok else "FAIL")
