"""Adapted structure pairs along a map and their deviation rates.

At a regular point J+ and J- = -g^{-1} (w +- *w), for the unit horizontal
2-form w and its Hodge dual, are compatible almost complex structures: both
rotate the horizontal plane onto the target's positive rotation and the
vertical plane in opposite senses, giving orientations +1 and -1. No
splitting frame is built for them. Near a center the structures are
compared against the constant reference structure of the leading symbol
inside the second order normal chart, where Frobenius norms are the natural
gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import TARGET_ROTATION, MorphismScenario
from .errors import ClassificationError, NonIsolatedCriticalError, SymbolError
from .morphism import GeometryStack, geometry_stack
from .ratefit import N_AXES, RateFit, fit_rate, seeded_directions, shell_samples
from .symbol import CenterSample, SymbolCandidate, SymbolData

MAX_DIRECTION_SUBSTITUTIONS = 25


def hermitian_pair(scenario: MorphismScenario, m) -> GeometryStack:
    """The stack of one point m, read for J+ and J-."""
    return geometry_stack(scenario, [m])


def pseudo_holomorphy_residual(jac: np.ndarray, J: np.ndarray) -> float:
    """How far J is from intertwining the differential `jac` at a point with
    the target rotation."""
    return float(np.linalg.norm(jac @ J - TARGET_ROTATION @ jac, ord="fro"))


# ------------------------------------------------------------- references


def reference_field(data: SymbolData, orientation: int) -> SymbolCandidate:
    """The symbol's constant reference structure for the requested orientation.

    A nonconstant symbol admits at most one compatible structure per
    orientation, so this is the symbol's only candidate of that orientation.
    Raises SymbolError when the leading symbol admits none.
    """
    for cand in data.candidates:
        if cand.orientation == orientation:
            return cand
    raise SymbolError(
        f"leading symbol admits no compatible structure with orientation {orientation:+d}")


# ------------------------------------------------------------------ rates


def _deviations(stack: GeometryStack, orientation: int, J0: np.ndarray) -> np.ndarray:
    """||J - J0|| of every row of the stack, the Frobenius norm as
    np.linalg.norm takes it: a dot product of the flattened matrix with
    itself."""
    f = (stack.structure(orientation) - J0).reshape(-1, 1, 16)
    return np.sqrt((f @ f.swapaxes(-1, -2))[:, 0, 0])


def _regular_rays(sample: CenterSample):
    """One regular ray per seeded direction, with critical substitution.

    A ray is (stack, rows): its samples, radius-major, as rows of the
    sample's stack, or as the stack of one pass over a substituted ray. A
    direction whose ray meets a critical sample at any radius is replaced
    by a deterministic jittered direction; substitutions are reported as
    (seeded direction index, attempts used).
    """
    stack, width = sample.stack, len(sample.directions)
    regular = stack.regular
    # whether every sample of each ray is regular
    ray_regular = regular.reshape(-1, width).all(axis=0).tolist()
    rng = np.random.default_rng(sample.seed + 7919)
    rays = []
    substitutions = []
    for i in range(N_AXES, width):
        ray = stack, np.arange(i, len(regular), width)
        attempt, ok = 0, ray_regular[i]
        while not ok:
            if attempt == MAX_DIRECTION_SUBSTITUTIONS:
                raise ClassificationError(
                    "could not steer a sample ray off the critical set after "
                    f"{MAX_DIRECTION_SUBSTITUTIONS} substitutions")
            attempt += 1
            d = sample.directions[i] + 0.05 * attempt * rng.standard_normal(4)
            d = d / np.linalg.norm(d)
            source = geometry_stack(sample.symbol.chart.scenario,
                                    shell_samples(d[None], sample.radii)[1][:, 0])
            ray, ok = (source, np.arange(len(sample.radii))), source.regular.all()
        if attempt > 0:
            substitutions.append((i - N_AXES, attempt))
        rays.append(ray)
    return rays, tuple(substitutions)


@dataclass
class DeviationRates:
    """Decay of the structure deviation and of the reference metric defects."""

    deviation_fit: RateFit
    metric_orth_fit: RateFit
    metric_skew_fit: RateFit
    substitutions: tuple
    passed: bool


def structure_deviation_rate(sample: CenterSample, orientation: int = 1) -> DeviationRates:
    """Fit ||J(m) - J0|| and the compatibility defects of J0 near the center.

    Everything is evaluated in the normalized chart, on the sample's seeded
    directions. Expected behaviour: the deviation decays at least linearly,
    both metric defects at least quadratically; identically zero quantities
    take the zero branch.
    """
    J0 = reference_field(sample.symbol, orientation).matrix
    radii, stack = sample.radii, sample.stack
    rays, subs = _regular_rays(sample)
    column = _deviations(stack, orientation, J0)
    table = []
    for source, rows in rays:
        source.structures[-1].raise_first(rows)
        table.append(column[rows] if source is stack else _deviations(source, orientation, J0))
    dev_vals = np.max(table, axis=0)

    # the metric defects of J0 are read at the unsubstituted samples, over
    # the pairs (J0 x, x) of the axes and four seeded directions x
    x = np.concatenate([np.eye(4), seeded_directions(4, sample.seed + 2000)])
    pairs = np.stack([x @ J0.T, x])
    g = np.ascontiguousarray(stack.metric.g.reshape(len(radii), -1, 4, 4)[:, N_AXES:])
    lengths = np.einsum("spi,rnij,spj->rnsp", pairs, g, pairs)
    orth_vals = np.abs(lengths[:, :, 0] - lengths[:, :, 1]).max(axis=(1, 2))
    skew_vals = np.abs(np.einsum("pi,rnij,pj->rnp", pairs[0], g, x)).max(axis=(1, 2))

    deviation_fit = fit_rate(radii, dev_vals)
    orth_fit = fit_rate(radii, orth_vals)
    skew_fit = fit_rate(radii, skew_vals)
    ok = (deviation_fit.meets_lower_slope(0.9)
          and orth_fit.meets_lower_slope(1.9)
          and skew_fit.meets_lower_slope(1.9))
    return DeviationRates(deviation_fit=deviation_fit, metric_orth_fit=orth_fit,
                          metric_skew_fit=skew_fit, substitutions=subs, passed=ok)


@dataclass
class IsolatedExtension:
    """Shell sups of the structure deviation around an isolated center,
    held as the values of their fit."""

    fit: RateFit
    passed: bool


def isolated_extension(sample: CenterSample, orientation: int = 1) -> IsolatedExtension:
    """Certify the isolated-center picture on shrinking shells.

    Every sampled shell point must be regular; hitting a critical sample
    raises NonIsolatedCriticalError carrying the offending original-chart
    point. Shell sups of the deviation must then decrease with at least
    linear rate (or vanish identically).
    """
    J0 = reference_field(sample.symbol, orientation).matrix
    stack = sample.stack
    # the first sample, radius-major, whose structures failed raises: as
    # NonIsolatedCriticalError when it is critical, else its own failure
    for i in np.flatnonzero(stack.structures[-1].failed):
        if not stack.regular[i]:
            r = sample.radii[i // len(sample.directions)]
            raise NonIsolatedCriticalError(
                f"critical sample on the shell of radius {r:.3e}",
                point=sample.symbol.chart.to_original(stack.metric.point[i]))
        stack.structures[-1].raise_first([i])
    deviations = _deviations(stack, orientation, J0).reshape(len(sample.radii), -1)
    sups = deviations.max(axis=1).tolist()
    fit = fit_rate(sample.radii, sups)
    monotone = all(sups[i + 1] <= sups[i] * 1.05 for i in range(len(sups) - 1))
    ok = fit.zero_branch or (fit.meets_lower_slope(0.9) and monotone)
    return IsolatedExtension(fit=fit, passed=ok)
