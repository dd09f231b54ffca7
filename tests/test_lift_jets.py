"""Exact vertical jets of the surface lifts.

The lift of a patch at p is the structure J = -g^{-1} (w + s *w) of the
unit tangent 2-form w = g d e1 ^ g d e2 / |g d e1 ^ g d e2|_g, with s the
tag times the scenario orientation. Oracle: that closed form written out
here, its Hodge star summed over the permutation signs, differenced on a
Richardson central stencil along the parameter direction X, plus the
Christoffel term along the chart image d X. The stencil is compared at a
tolerance, for its O(t^4) error and its rounding.
"""

import itertools

import numpy as np
import pytest

import morphoscope.twistor as tw
from morphoscope.catalog import CATALOG_PATCHES, catalog_configs, catalog_patch, patch_grid
from morphoscope.config import DEFAULT_TOLERANCES, ScenarioConfig, build_scenario
from morphoscope.geometry import central_difference, central_nodes

from test_twistor import quadratic_patch

# the oracle's step, and its stencil error and rounding relative to max(1, |value|)
ORACLE_STEP = 1e-3
ORACLE_TOL = 1e-8
# the residual of a minimal patch's lift, whose jet is exact
RESIDUAL_FLOOR = 1e-13

EPSILON = np.zeros((4, 4, 4, 4))
for perm in itertools.permutations(range(4)):
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    EPSILON[perm] = (-1) ** inversions


def closed_form_lift(scenario, patch, p, sign):
    """-g^{-1} (w + sign *w) at p, for the unit tangent 2-form w of the patch."""
    m, d, _ = patch.jet(*p)
    g = scenario.metric.record(m).g
    ginv = np.linalg.inv(g)
    a, b = g @ d[:, 0], g @ d[:, 1]
    w = (np.outer(a, b) - np.outer(b, a)) / np.sqrt(np.linalg.det(d.T @ g @ d))
    star = 0.5 * np.sqrt(np.linalg.det(g)) * np.einsum("ijkl,ij->kl", EPSILON, ginv @ w @ ginv)
    return -ginv @ (w + sign * star)


def stencil_vertical(scenario, patch, stack, i, X):
    """The covariant derivative of the closed-form lift along d X at the
    parameter point of row i of the stack, by the Richardson stencil along X."""
    nodes = central_nodes(stack.parameters[i], X, ORACLE_STEP)
    partial = central_difference([closed_form_lift(scenario, patch, q, stack.sign)
                                  for q in nodes], ORACLE_STEP)
    # (Gamma_V)^a_b = Gamma^a_{bc} V^c along V = d X
    connection = np.einsum("abc,c->ab", stack.metric.gamma[i], stack.d[i] @ X)
    return partial + connection @ stack.J[i] - stack.J[i] @ connection


def close(got, expected, tol):
    return np.max(np.abs(got - expected)) <= tol * max(1.0, np.max(np.abs(expected)))


# every catalog patch on its scenario, and two lifts on the pulled-back
# chart: the plane, as in the golden battery, and a curved patch, along
# which the metric varies off the tangent plane, so that the term
# d^T (d_X g) of the jet leaves the span of the rows d^T g
MINIMAL = {patch for patch, spec in CATALOG_PATCHES.items()
           if spec["classification"] == "minimal"}
LIFTS = [(spec["scenario"], patch) for patch, spec in sorted(CATALOG_PATCHES.items())]
LIFTS += [("pullback_z1z2", "plane"), ("pullback_z1z2", "quadratic")]
CASES = [(scenario, patch, orientation, tag) for scenario, patch in LIFTS
         for orientation in (1, -1) for tag in (1, -1)]


def grid_lifts(scenario_name, patch_name, orientation, tag):
    """(scenario, patch, lift stack of the patch grid)."""
    patch = quadratic_patch() if patch_name == "quadratic" else catalog_patch(patch_name)["patch"]
    raw = dict(catalog_configs()[scenario_name], orientation=orientation)
    scenario = build_scenario(ScenarioConfig.from_dict(raw))
    return scenario, patch, tw.lift_stack(scenario, patch, patch_grid(patch), tag)


@pytest.mark.parametrize("scenario, patch, orientation, tag", CASES)
def test_the_closed_form_is_the_lift(scenario, patch, orientation, tag):
    sc, surface, stack = grid_lifts(scenario, patch, orientation, tag)
    assert stack.sign == orientation * tag
    for p, J in zip(stack.parameters, stack.J):
        assert close(J, closed_form_lift(sc, surface, p, orientation * tag), 1e-14)


@pytest.mark.parametrize("scenario, patch, orientation, tag", CASES)
def test_exact_vertical_matches_the_stencil(scenario, patch, orientation, tag):
    sc, surface, stack = grid_lifts(scenario, patch, orientation, tag)
    for i, p in enumerate(stack.parameters):
        for X, vertical in zip(stack.tangent_coordinates[i], stack.vertical[i]):
            expected = stencil_vertical(sc, surface, stack, i, X)
            assert close(vertical, expected, ORACLE_TOL), (p, X)


@pytest.mark.parametrize("scenario, patch, orientation, tag",
                         [case for case in CASES if case[1] in MINIMAL])
def test_minimal_lifts_are_holomorphic_to_rounding(scenario, patch, orientation, tag):
    # the residual of a minimal patch is rounding, far below the gate of the
    # twistor command, which stays where it was
    residuals = tw.script_J_residual(grid_lifts(scenario, patch, orientation, tag)[2])
    assert max(residuals) <= RESIDUAL_FLOOR
    assert DEFAULT_TOLERANCES["residual_minimal"] == 1e-5
