"""Leading symbol of a scenario at a center and the estimates it controls.

All work happens in the second order normal chart at the center, where the
metric is the identity with vanishing Christoffel symbols, so constant
matrices are honest candidate structures and Euclidean radii are comparable
to distance. The leading symbol is the lowest order homogeneous part of the
recentred map; the structure making it holomorphic is found per orientation
by least squares over the unit sphere of fiber coordinates, in closed form
(the holomorphy condition is affine and conformal in them), then certified
by coefficient vanishing in adapted complex coordinates.
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
from .polynomials import Jet, Poly, evaluate_orders
from .ratefit import N_AXES, RateFit, fit_rate, seeded_directions, shell_samples
from .structures import structure_basis

COEFF_CHOP_REL = 1e-12
CANDIDATE_RESIDUAL_REL = 1e-8
ANTIHOLO_REL = 1e-10
MAX_JET_ORDER = 6
# the exponents of the four coordinates y_c, each alone to the first power
LINEAR = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _recentred_difference(scenario: MorphismScenario) -> Poly:
    """The map minus its value at the chart origin, small coefficients chopped."""
    component = scenario.component
    diff = component - component.coeffs.get((0, 0, 0, 0), 0j)
    scale = diff.max_abs_coeff()
    if scale == 0.0:
        raise SymbolError("map is constant near the center")
    return diff.chop(COEFF_CHOP_REL * scale)


def _wirtinger(p: Poly, axis: int, conjugate: bool) -> Poly:
    """The holomorphic derivative in complex pair `axis`, or the
    antiholomorphic one when `conjugate`."""
    d_re, d_im = p.diff(2 * axis), p.diff(2 * axis + 1)
    return 0.5 * (d_re + 1j * d_im) if conjugate else 0.5 * (d_re - 1j * d_im)


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
    antiholomorphic_max: float   # largest stray conjugate coefficient, relative
    adapted: Poly                # the symbol in the adapted frame of the structure
    order: int                   # the degree of the symbol

    @cached_property
    def coefficients(self) -> Dict[Tuple[int, int], complex]:
        """The coefficients c_ab of w1^a w2^b in the adapted symbol, from
        its holomorphic Wirtinger derivatives at the origin, derived on first
        read; those below 1e-12 of the largest adapted coefficient are
        dropped."""
        scale = max(self.adapted.max_abs_coeff(), 1e-300)
        coeffs: Dict[Tuple[int, int], complex] = {}
        for a in range(self.order + 1):
            b = self.order - a
            work = self.adapted
            for _ in range(a):
                work = _wirtinger(work, 0, conjugate=False)
            for _ in range(b):
                work = _wirtinger(work, 1, conjugate=False)
            c = work.coeffs.get((0, 0, 0, 0), 0j) / float(math.factorial(a) * math.factorial(b))
            if abs(c) > 1e-12 * scale:
                coeffs[(a, b)] = c
        return coeffs


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
    """Vectorize dP(J(u) X) - i dP(X) = 0 as rho0 + R u over real coefficients.

    The rows run over the covector index j, then the monomials of dP in
    sorted order, then the real and imaginary parts. Every basis structure
    J_a is a signed permutation, so block j of column a of R is row k of the
    (4, width) coefficient matrix of dP times J_a[k, j] = +-1, for the one k
    where that entry is nonzero. Returns (rho0, R, norm of dP's coefficients),
    the norm taken exactly scaled by a power of two, so only a norm past the
    largest float overflows."""
    monomials = sorted({e for p in p_diffs for e in p.coeffs})
    index = {e: i for i, e in enumerate(monomials)}
    width = len(monomials)
    coeffs = [[0j] * width for _ in range(4)]
    rho = [[0j] * width for _ in range(4)]
    for j, poly in enumerate(p_diffs):
        for e, c in poly.coeffs.items():
            coeffs[j][index[e]] = c
            rho[j][index[e]] = -1j * c
    # (4, 2 * width): real and imaginary parts interleaved
    C = np.array(coeffs, dtype=complex).view(float)
    J = np.array(basis)
    # the row and the sign of the one nonzero entry of each column of J_a
    k = np.abs(J).argmax(axis=1)
    signs = J.max(axis=1) + J.min(axis=1)
    # adding zero makes the zeros positive, as the sums of the polynomial
    # route did; every other entry is an exact signed copy
    R = np.ascontiguousarray((signs[..., None] * C[k] + 0.0).reshape(len(basis), -1).T)
    rho0 = np.array(rho, dtype=complex).view(float).ravel()
    top = float(np.max(np.abs(C), initial=0.0))
    shift = math.frexp(top)[1] - 1 if 0.0 < top < math.inf else 0
    return rho0, R, float(np.linalg.norm(np.ldexp(C.ravel(), -shift))) * math.ldexp(1.0, shift)


def _certify_candidate(P0: Poly, J: np.ndarray, orientation: int, order: int,
                       fiber: np.ndarray, residual: float) -> SymbolCandidate:
    """J as a candidate, with the largest conjugate Wirtinger coefficient of
    the symbol in the adapted frame of J relative to its largest coefficient
    there: two derivatives, one per complex direction."""
    frame = _adapted_frame(J)
    # row i of the frame is the linear polynomial sum_c frame[i, c] y_c
    tilted = P0.compose([Poly(dict(zip(LINEAR, row))) for row in frame])
    scale = max(tilted.max_abs_coeff(), 1e-300)
    anti = 0.0
    for axis in (0, 1):
        anti = max(anti, _wirtinger(tilted, axis, conjugate=True).max_abs_coeff() / scale)
    return SymbolCandidate(orientation=orientation, fiber=fiber, matrix=J,
                           residual=residual, antiholomorphic_max=anti,
                           adapted=tilted, order=order)


def symbol_polynomial(scenario: MorphismScenario, m0) -> SymbolData:
    """Extract the leading symbol and its compatible constant structures.

    Per orientation the holomorphy system rho0 + R u of the symbol is
    solved on the sphere of fiber coordinates. R^T R = scale^2 I, so the
    minimiser is u = -R^T rho0 / ||R^T rho0||, or the first axis, which its
    residual rejects, when R^T rho0 = 0. So a symbol has at most one
    structure per orientation, as it must: two differ by an invertible
    matrix, and a symbol holomorphic for both would be constant. The
    minimiser is certified by the two conjugate
    Wirtinger derivatives of the symbol in its adapted frame; the
    holomorphic coefficients are derived only when read.
    """
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
        if not math.isfinite(scale):
            raise SymbolError("symbol coefficients overflow; no finite scale to certify against")
        u, res = minimize_affine_on_sphere(rho0, R)
        if res > CANDIDATE_RESIDUAL_REL * max(scale, 1e-300):
            continue
        J = sum(u[a] * basis[a] for a in range(3))
        cand = _certify_candidate(P0, J, orientation, k, u, res / max(scale, 1e-300))
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

    value_fit: RateFit
    differential_fit: RateFit
    passed: bool


def remainder_rates(sample: CenterSample) -> RemainderRates:
    """Measure |Psi| and ||dPsi|| decay against the expected symbol order."""
    k = sample.symbol.order
    psi = sample.symbol.remainder
    # the remainder and its differential over the (n_radii, n_dirs) samples
    values, dpsi = evaluate_orders(Jet([psi], range(2)), sample.points[:, N_AXES:], range(2))
    dpsi = dpsi[..., 0, :]
    sups = np.linalg.svd(np.stack((dpsi.real, dpsi.imag), axis=-2), compute_uv=False)
    vals = [max([0.0] + [abs(v) for v in row]) for row in values[..., 0].tolist()]
    dvals = [max([0.0] + row) for row in sups[..., 0].tolist()]
    value_fit = fit_rate(sample.radii, vals)
    differential_fit = fit_rate(sample.radii, dvals)
    ok = value_fit.meets_lower_slope(k + 0.9) and differential_fit.meets_lower_slope(k - 0.1)
    return RemainderRates(value_fit=value_fit, differential_fit=differential_fit, passed=ok)


@dataclass
class DilationLowerRate:
    """Lower dilation envelope lambda(m) >= C |m|^{k-1} around a center.

    The fit's values are the minima of the dilation over the admissible
    directions, one per radius."""

    fit: RateFit
    envelope_constant: float  # min_i values_i / radii_i^{k-1}
    excluded_directions: tuple
    passed: bool


def dilation_lower_rate(sample: CenterSample) -> DilationLowerRate:
    """Fit the minimal dilation over shells; critical rays are excluded.

    A direction is excluded only when the dilation falls below the critical
    threshold at every sampled radius, which is the signature of a ray inside
    the critical set; exclusions are reported, not silently dropped.
    """
    k = sample.symbol.order
    dirs = sample.directions
    radii = sample.radii
    # columns are directions: a ray is excluded as a whole
    table = sample.stack.dilation_sup.reshape(len(radii), len(dirs))
    excluded = (table < EPS_CRITICAL).all(axis=0)
    if excluded.all():
        raise SymbolError("every sampled direction is critical; no dilation envelope")
    values = tuple(table[:, ~excluded].min(axis=1).tolist())
    fit = fit_rate(radii, values)
    envelope = float(min(v / r ** (k - 1) for v, r in zip(values, radii)))
    ok = fit.meets_upper_slope(k - 1 + 0.1) and envelope > 1e-12
    return DilationLowerRate(fit=fit, envelope_constant=envelope,
                             excluded_directions=tuple(dirs[excluded]), passed=ok)
