"""The conformality data read in closed form from the Gram matrix dF g^-1 dF^T
against the eigendecomposition and SVD route they replace.

The reference route below is a test-local copy of that route: g^-1/2 from
an eigendecomposition of g, the SVD of the gauge matrix dF g^-1/2, the
dilation sup as its largest singular value, the defect from the Gram matrix
of the gauge matrix, and the vertical projector from the two bottom right
singular vectors carried back by g^-1/2. The closed forms must agree with it
within the stated relative tolerances on every catalog chart, on seeded
random constant metrics, on the anisotropic control and on rows near the
critical set, and the vertical projector must be a g-orthogonal projector
onto ker dF.
"""

from __future__ import annotations

import numpy as np
import pytest

from morphoscope.calculus import holomorphic_scenario, real_scenario
from morphoscope.geometry import Box, FlatMetric, PolynomialMetric
from morphoscope.morphism import geometry_stack
from morphoscope.polynomials import Poly

from test_morphism import ORACLE_CHARTS, validation_points

# relative tolerances, each about 25 times the largest discrepancy seen on
# these inputs (4e-14, on the random metrics): the dilation sup against the
# reference sup; the defect against the Gram scale, the squared dilation sup;
# the vertical projector against the norm of the reference projector
SUP_RTOL = 1e-12
DEFECT_RTOL = 1e-12
PROJECTOR_RTOL = 1e-12
# the projector identities, relative to the projector's norm and the metric's
IDENTITY_RTOL = 1e-12


def reference_route(jac: np.ndarray, g: np.ndarray) -> tuple:
    """(dilation sup, defect, vertical projector) at one point by the
    eigendecomposition of g and the SVD of dF g^-1/2."""
    w, q = np.linalg.eigh(0.5 * (g + g.T))
    ginvsqrt = (q / np.sqrt(w)) @ q.T
    gauge = jac @ ginvsqrt
    _, sv, vt = np.linalg.svd(gauge, full_matrices=True)
    conformal = gauge @ gauge.T
    defect = float(np.linalg.norm(conformal - 0.5 * np.trace(conformal) * np.eye(2)))
    k1, k2 = ginvsqrt @ vt[2], ginvsqrt @ vt[3]
    return float(sv[0]), defect, (np.outer(k1, k1) + np.outer(k2, k2)) @ g


def assert_matches_reference(scenario, points):
    stack = geometry_stack(scenario, points)
    regular = np.flatnonzero(stack.regular)
    assert regular.size
    _, _, p_vert, _, failures = stack.splitting
    for i in regular:
        assert failures[i] is None
        jac, g = stack.jac[i], stack.metric.g[i]
        sup, defect, projector = reference_route(jac, g)
        where = stack.metric.point[i].tolist()
        assert abs(stack.dilation_sup[i] - sup) <= SUP_RTOL * sup, where
        assert abs(stack.defect[i] - defect) <= DEFECT_RTOL * sup ** 2, where
        size = np.linalg.norm(projector)
        assert np.linalg.norm(p_vert[i] - projector) <= PROJECTOR_RTOL * size, where
        assert_vertical_projector(p_vert[i], jac, g, stack.splitting[0][i], where)


def assert_vertical_projector(p, jac, g, horizontal, where):
    """P_V is idempotent, g-self-adjoint and annihilates the horizontal rows
    (and the rows of dF annihilate it)."""
    size = np.linalg.norm(p)
    assert np.linalg.norm(p @ p - p) <= IDENTITY_RTOL * size ** 2, where
    assert (np.linalg.norm(g @ p - p.T @ g)
            <= IDENTITY_RTOL * size * np.linalg.norm(g)), where
    for e in horizontal:
        assert np.linalg.norm(p @ e) <= IDENTITY_RTOL * size * np.linalg.norm(e), where
    assert (np.linalg.norm(jac @ p)
            <= IDENTITY_RTOL * size * np.linalg.norm(jac)), where
    assert abs(np.trace(p) - 2.0) <= IDENTITY_RTOL * size, where


@pytest.mark.parametrize("name", sorted(ORACLE_CHARTS))
def test_the_closed_form_matches_the_decompositions_on_every_chart(name):
    # every catalog chart, the anisotropic control and the quadratic bump
    scenario = ORACLE_CHARTS[name]
    assert_matches_reference(scenario, validation_points(scenario, 40, seed=17))


def constant_metric(matrix: np.ndarray) -> PolynomialMetric:
    entries = [[Poly.constant(float(matrix[i, j])) for j in range(4)] for i in range(4)]
    return PolynomialMetric(entries, Box.cube(1.0))


def random_quadratic(rng) -> Poly:
    x = [Poly.variable(k) for k in range(4)]
    poly = Poly.zero()
    for k in range(4):
        poly = poly + float(rng.normal()) * x[k]
        for l in range(k, 4):
            poly = poly + 0.5 * float(rng.normal()) * x[k] * x[l]
    return poly


@pytest.mark.parametrize("seed", range(12))
def test_the_closed_form_matches_the_decompositions_on_random_metrics(seed):
    # a seeded constant SPD metric whose condition number reaches about 1e3,
    # and a seeded quadratic map that is far from conformal
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    spectrum = 10.0 ** rng.uniform(-1.5, 1.5, size=4)
    g = (q * spectrum) @ q.T
    g = 0.5 * (g + g.T)
    scenario = real_scenario(f"random{seed}", random_quadratic(rng), random_quadratic(rng),
                             constant_metric(g))
    points = rng.uniform(-0.9, 0.9, size=(30, 4))
    assert_matches_reference(scenario, points)


@pytest.mark.parametrize("radius", [1e-2, 1e-4, 1e-6, 1e-8])
def test_the_closed_form_matches_the_decompositions_near_the_critical_set(radius):
    # z1 z2 on the flat chart and on the pulled-back curved chart have
    # dilation sup about |m| near their critical origin
    rng = np.random.default_rng(3)
    directions = rng.normal(size=(16, 4))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    points = radius * directions
    flat = holomorphic_scenario("z1z2", {(1, 1): 1.0}, FlatMetric(Box.cube(1.0)))
    for scenario in (flat, ORACLE_CHARTS["pullback_z1z2"]):
        assert_matches_reference(scenario, points)
        assert geometry_stack(scenario, points).dilation_sup.max() <= 4.0 * radius
