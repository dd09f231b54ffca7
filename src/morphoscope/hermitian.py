"""Adapted structure pairs along a map and their deviation rates.

At a regular point the splitting frames assemble two compatible almost
complex structures: both rotate the horizontal plane onto the target's
positive rotation, and they rotate the vertical plane in opposite senses,
giving orientations +1 and -1. Near a center the structures are compared
against the constant reference structure of the leading symbol inside the
second order normal chart, where Frobenius norms are the natural gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import minimize_affine_on_sphere
from .calculus import MorphismScenario
from .errors import ClassificationError, NonIsolatedCriticalError, SymbolError
from .geometry import metric_point, oriented_frame
from .morphism import PointGeometry, point_geometry
from .ratefit import N_AXES, RateFit, fit_rate, seeded_directions, shell_samples
from .structures import structure_basis
from .symbol import CenterSample, SymbolCandidate, SymbolData

MAX_DIRECTION_SUBSTITUTIONS = 25


def hermitian_pair(scenario: MorphismScenario, m) -> PointGeometry:
    """The geometry at m, read for J+ and J-."""
    return point_geometry(scenario, m)


def pseudo_holomorphy_residual(geo: PointGeometry, J: np.ndarray) -> float:
    """How far J is from intertwining the differential at the geometry's
    point with the target rotation."""
    j_target = geo.scenario.target.complex_structure()
    return float(np.linalg.norm(geo.jac @ J - j_target @ geo.jac, ord="fro"))


def best_compatible_structure(scenario: MorphismScenario, m, orientation: int = 1):
    """Minimize the pseudo holomorphy residual over compatible structures.

    The compatible structures of one orientation at m form a sphere in the
    coordinates of the structure basis conjugated by any positively oriented
    orthonormal frame; the residual is affine in those coordinates. Returns
    (structure, fiber coordinates, residual). Independent of the splitting
    construction, so it serves as a cross check on hermitian_pair.
    """
    B = oriented_frame(metric_point(scenario.metric, m).g).T
    Binv = np.linalg.inv(B)
    jac = scenario.jacobian(m)
    j_target = scenario.target.complex_structure()
    rho0 = (-j_target @ jac).ravel()
    basis = structure_basis(orientation * scenario.orientation)
    cols = [(jac @ (B @ K @ Binv)).ravel() for K in basis]
    u, res = minimize_affine_on_sphere(rho0, np.column_stack(cols))
    J = B @ sum(u[a] * basis[a] for a in range(3)) @ Binv
    return J, u, res


# ------------------------------------------------------------- references


def reference_field(data: SymbolData, orientation: int) -> SymbolCandidate:
    """The symbol's constant reference structure for the requested orientation.

    Raises SymbolError when the leading symbol admits no compatible structure
    of that orientation. If several exist the one with the smallest residual
    (ties broken by fiber coordinates) is chosen deterministically.
    """
    matches = [c for c in data.candidates if c.orientation == orientation]
    if not matches:
        raise SymbolError(
            f"leading symbol admits no compatible structure with orientation {orientation:+d}")
    matches.sort(key=lambda c: (c.residual, tuple(np.round(c.fiber, 12))))
    return matches[0]


# ------------------------------------------------------------------ rates


def _deviation(geo: PointGeometry, orientation: int, J0: np.ndarray) -> float:
    return float(np.linalg.norm(geo.structure(orientation) - J0, ord="fro"))


def _ray_until_critical(sc: MorphismScenario, points) -> list:
    """Geometries along a ray, up to and including its first critical sample."""
    ray = []
    for y in points:
        ray.append(point_geometry(sc, y))
        if not ray[-1].is_regular:
            break
    return ray


def _regular_rays(sc: MorphismScenario, dirs: np.ndarray, radii, shells, seed: int):
    """Geometries along one regular ray per direction, with critical substitution.

    shells[j][i] is the geometry at radii[j] * dirs[i]. A direction whose ray
    meets a critical sample at any radius is replaced by a deterministic
    jittered direction; substitutions are reported as (direction index,
    attempts used).
    """
    rng = np.random.default_rng(seed + 7919)
    rays = []
    substitutions = []
    for i in range(len(dirs)):
        ray = [shell[i] for shell in shells]
        attempt = 0
        while not all(geo.is_regular for geo in ray):
            if attempt == MAX_DIRECTION_SUBSTITUTIONS:
                raise ClassificationError(
                    "could not steer a sample ray off the critical set after "
                    f"{MAX_DIRECTION_SUBSTITUTIONS} substitutions")
            attempt += 1
            d = dirs[i] + 0.05 * attempt * rng.standard_normal(4)
            d = d / np.linalg.norm(d)
            ray = _ray_until_critical(sc, shell_samples(d[None], radii)[1][:, 0])
        if attempt > 0:
            substitutions.append((i, attempt))
        rays.append(ray)
    return rays, tuple(substitutions)


@dataclass
class DeviationRates:
    """Decay of the structure deviation and of the reference metric defects."""

    radii: tuple
    deviation_fit: RateFit
    metric_orth_fit: RateFit
    metric_skew_fit: RateFit
    substitutions: tuple
    verdict: str


def structure_deviation_rate(sample: CenterSample, orientation: int = 1) -> DeviationRates:
    """Fit ||J(m) - J0|| and the compatibility defects of J0 near the center.

    Everything is evaluated in the normalized chart, on the sample's seeded
    directions. Expected behaviour: the deviation decays at least linearly,
    both metric defects at least quadratically; identically zero quantities
    take the zero branch.
    """
    J0 = reference_field(sample.symbol, orientation).matrix
    radii = sample.radii
    shells = [shell[N_AXES:] for shell in sample.geometries]
    rays, subs = _regular_rays(sample.symbol.chart.scenario, sample.directions[N_AXES:],
                               radii, shells, sample.seed)
    dev_vals = np.max([[_deviation(geo, orientation, J0) for geo in ray] for ray in rays],
                      axis=0)

    # the metric defects of J0 are read at the unsubstituted samples
    xs = list(np.eye(4)) + list(seeded_directions(4, sample.seed + 2000))
    pairs = [(J0 @ x, x) for x in xs]

    def orth_defect(g):
        return max(abs(float(y @ g @ y - x @ g @ x)) for y, x in pairs)

    def skew_defect(g):
        return max(abs(float(y @ g @ x)) for y, x in pairs)

    orth_vals = np.array([max(orth_defect(geo.g) for geo in shell) for shell in shells])
    skew_vals = np.array([max(skew_defect(geo.g) for geo in shell) for shell in shells])

    deviation_fit = fit_rate(radii, dev_vals)
    orth_fit = fit_rate(radii, orth_vals)
    skew_fit = fit_rate(radii, skew_vals)
    ok = (deviation_fit.meets_lower_slope(0.9)
          and orth_fit.meets_lower_slope(1.9)
          and skew_fit.meets_lower_slope(1.9))
    return DeviationRates(radii=radii, deviation_fit=deviation_fit,
                          metric_orth_fit=orth_fit, metric_skew_fit=skew_fit,
                          substitutions=subs, verdict="PASS" if ok else "FAIL")


@dataclass
class IsolatedExtension:
    """Shell sups of the structure deviation around an isolated center."""

    radii: tuple
    sups: tuple
    fit: RateFit
    verdict: str


def isolated_extension(sample: CenterSample, orientation: int = 1) -> IsolatedExtension:
    """Certify the isolated-center picture on shrinking shells.

    Every sampled shell point must be regular; hitting a critical sample
    raises NonIsolatedCriticalError carrying the offending original-chart
    point. Shell sups of the deviation must then decrease with at least
    linear rate (or vanish identically).
    """
    J0 = reference_field(sample.symbol, orientation).matrix
    sups = []
    for r, shell in zip(sample.radii, sample.geometries):
        worst = 0.0
        for geo in shell:
            if not geo.is_regular:
                raise NonIsolatedCriticalError(
                    f"critical sample on the shell of radius {r:.3e}",
                    point=sample.symbol.chart.to_original(geo.point))
            worst = max(worst, _deviation(geo, orientation, J0))
        sups.append(worst)
    fit = fit_rate(sample.radii, sups)
    monotone = all(sups[i + 1] <= sups[i] * 1.05 for i in range(len(sups) - 1))
    ok = fit.zero_branch or (fit.meets_lower_slope(0.9) and monotone)
    return IsolatedExtension(radii=sample.radii, sups=tuple(sups), fit=fit,
                             verdict="PASS" if ok else "FAIL")
