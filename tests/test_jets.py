"""Exact first jets of the vertical projector and of the structures J+ and J-.

Oracle: the covariant derivative of the same field, sampled through fresh
geometries on the Richardson central stencil of geometry.covariant_derivative
(error O(t^4) in the step, plus rounding over the step). The shape
coefficients and the fiber mean curvature are rebuilt from those stencil
derivatives by their definitions: a, b = -g(nabla_T T, e3 or e4), c, d =
-g(nabla_T e2, e3 or e4) with the field e2 = J+ T, and H the horizontal
part of the sum of nabla_v v over the vertical frame.
"""

import math

import numpy as np
import pytest

from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.geometry import covariant_derivative, orthonormalize
from morphoscope.morphism import fiber_mean_curvature, geometry_stack
from morphoscope.weingarten import weingarten_matrix

from test_frame_orientation import frame_orientations
from test_morphism import derivative, dilation_sup, field, frame_structures

# stencil error and rounding of the oracle, relative to max(1, |value|)
ORACLE_TOL = 1e-8
ANGLE = 0.3


def scenario(name, orientation):
    raw = dict(catalog_configs()[name], orientation=orientation)
    return build_scenario(ScenarioConfig.from_dict(raw))


def regular_points(sc, n=4, seed=7):
    """n seeded regular points inside the chart box, 10% off its faces."""
    lo, hi = np.asarray(sc.domain.lo), np.asarray(sc.domain.hi)
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        m = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
        if dilation_sup(sc, m) > 1e-3:
            points.append(m)
    return points


def reference_vertical(g, horizontal, orientation):
    """(v1, v2) of an adapted frame built without J: the coordinate axes
    after e1 and e2, g-orthonormalized by geometry.orthonormalize, with v2
    flipped where det(e1, e2, v1, v2) does not have the sign of the
    orientation."""
    vertical = orthonormalize(g, [*horizontal, *np.eye(4)])[2:]
    (sign,), (failure,) = frame_orientations(np.concatenate([horizontal, vertical])[None])
    assert failure is None
    if sign * orientation < 0:
        vertical[1] = -vertical[1]
    return vertical


def stencil_derivative(sc, field, m, X):
    return covariant_derivative(sc.metric, lambda x: field(geometry_stack(sc, [x])), m, X)


def close(got, expected):
    return np.max(np.abs(got - expected)) <= ORACLE_TOL * max(1.0, np.max(np.abs(expected)))


CHARTS = sorted(catalog_configs())


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("name", CHARTS)
def test_exact_jets_match_the_stencil(name, orientation):
    sc = scenario(name, orientation)
    ca, sa = math.cos(ANGLE), math.sin(ANGLE)

    def t_field(geo):
        v1, v2 = field(geo, 0, "vertical")
        return ca * v1 + sa * v2

    rng = np.random.default_rng(11)
    for m in regular_points(sc):
        geo = geometry_stack(sc, [m])
        g = field(geo, 0, "g")
        X = rng.standard_normal(4)
        for o, (_, jet) in zip((1, -1), geo.structure_jets):
            expected = stencil_derivative(sc, lambda node: node.structure(o)[0], m, X)
            assert close(derivative(jet, X), expected), (o, m)

        T = t_field(geo)
        e3, e4 = field(geo, 0, "horizontal")
        dT = stencil_derivative(sc, t_field, m, T)
        dE2 = stencil_derivative(sc, lambda node: field(node, 0, "j_plus") @ t_field(node), m, T)
        expected = np.array([-(dT @ g @ e3), -(dT @ g @ e4),
                             -(dE2 @ g @ e3), -(dE2 @ g @ e4)])
        assert close(np.array(weingarten_matrix(sc, m, angle=ANGLE)), expected), m

        expected = sum(field(geo, 0, "horizontal_projector")
                       @ stencil_derivative(sc, lambda node, i=i: field(node, 0, "vertical")[i],
                                            m, v)
                       for i, v in enumerate(field(geo, 0, "vertical")))
        assert close(fiber_mean_curvature(geo)[0], expected), m


@pytest.mark.parametrize("name", [name for name, raw in sorted(catalog_configs().items())
                                  if raw["metric"]["kind"] == "flat"])
def test_j_plus_is_parallel_on_flat_and_pulled_back_flat_charts(name):
    # the catalog maps are holomorphic in the chart's complex coordinates,
    # so J+ is the parallel complex structure of the flat metric
    assert name in ("proj", "z1z2", "z1sq", "z1z2_cubic", "pullback_z1z2")
    sc = scenario(name, 1)
    stack = geometry_stack(sc, regular_points(sc))
    (_, nabla_j_plus), _ = stack.structure_jets
    assert np.max(np.abs(nabla_j_plus)) <= 1e-13


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("name", CHARTS)
def test_closed_form_structures_equal_the_frame_structures(name, orientation):
    # the one rule of the stack, read alone and with its jet, against the
    # standard structures carried by an adapted frame built without J
    sc = scenario(name, orientation)
    stack = geometry_stack(sc, regular_points(sc))
    (jet_plus, _), (jet_minus, _) = stack.structure_jets
    j_plus, j_minus, _ = stack.structures
    assert j_plus.tobytes() == jet_plus.tobytes() and j_minus.tobytes() == jet_minus.tobytes()
    for i in range(len(j_plus)):
        horizontal = field(stack, i, "horizontal")
        frame_plus, frame_minus = frame_structures(
            horizontal, reference_vertical(field(stack, i, "g"), horizontal, orientation))
        assert np.max(np.abs(j_plus[i] - frame_plus)) <= 1e-14
        assert np.max(np.abs(j_minus[i] - frame_minus)) <= 1e-14
