"""Scenario tests.

Oracle: finite differences of the scenario's complex value function, used to
certify the exact polynomial differentials and Hessians.
"""

from __future__ import annotations

import numpy as np
import pytest

from morphoscope.calculus import (
    TARGET_ROTATION, MorphismScenario, NormalChart, holomorphic_scenario,
    normalized_scenario, pullback_scenario, real_scenario,
)
from morphoscope.geometry import Box, FlatMetric, PolynomialMetric, christoffel
from morphoscope.polynomials import Poly

from test_geometry import quadratic_bump_metric


def product_map_scenario(metric=None):
    # first complex coordinate times the second
    return holomorphic_scenario(
        "prodmap", {(1, 1): 1.0 + 0j}, metric or FlatMetric(Box.cube(1.5)))


def fd_jacobian(scenario, m, h=1e-6):
    value = scenario.component.eval
    out = np.zeros((2, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        d = (value(m + e) - value(m - e)) / (2 * h)
        out[0, k] = d.real
        out[1, k] = d.imag
    return out


def fd_hessians(scenario, m, h=1e-4):
    value = scenario.component.eval
    out = np.zeros((2, 4, 4))
    basis = np.eye(4)
    f0 = value(m)
    for k in range(4):
        d = (value(m + h * basis[k]) - 2 * f0 + value(m - h * basis[k])) / h ** 2
        out[0, k, k], out[1, k, k] = d.real, d.imag
    for k in range(4):
        for l in range(k + 1, 4):
            d = (value(m + h * (basis[k] + basis[l]))
                 - value(m + h * (basis[k] - basis[l]))
                 - value(m - h * (basis[k] - basis[l]))
                 + value(m - h * (basis[k] + basis[l]))) / (4 * h ** 2)
            out[0, k, l] = out[0, l, k] = d.real
            out[1, k, l] = out[1, l, k] = d.imag
    return out


def test_holomorphic_component_expansion():
    sc = product_map_scenario()
    m = np.array([0.3, -0.7, 1.1, 0.4])
    w1 = complex(m[0], m[1])
    w2 = complex(m[2], m[3])
    assert sc.component.eval(m) == pytest.approx(w1 * w2, abs=1e-15)


def test_jacobian_and_hessian_against_fd_oracle():
    sc = holomorphic_scenario(
        "mix", {(1, 1): 1.0, (3, 0): 1.0, (0, 2): 0.5 - 0.25j}, FlatMetric(Box.cube(2.0)))
    rng = np.random.default_rng(2)
    for _ in range(4):
        m = rng.uniform(-1.0, 1.0, size=4)
        assert np.max(np.abs(sc.jacobian(m) - fd_jacobian(sc, m))) < 1e-8
        assert np.max(np.abs(sc.hessians(m) - fd_hessians(sc, m))) < 1e-6


def test_real_scenario_components():
    x = [Poly.variable(k) for k in range(4)]
    sc = real_scenario("affine_stretch", x[0], 2.0 * x[1], FlatMetric(Box.cube(1.0)))
    m = np.array([0.2, 0.5, -0.1, 0.9])
    assert sc.component.eval(m) == pytest.approx(complex(0.2, 1.0), abs=1e-15)
    assert np.allclose(sc.jacobian(m), [[1, 0, 0, 0], [0, 2, 0, 0]])


def test_target_surface_structure():
    # the target rotation is multiplication by i, sign bits included
    assert TARGET_ROTATION.tolist() == [[0.0, -1.0], [1.0, 0.0]]
    assert np.signbit(TARGET_ROTATION).tolist() == [[True, True], [False, False]]


def test_pullback_scenario_matches_composition():
    base = product_map_scenario(FlatMetric(Box.cube(1.5)))
    x = [Poly.variable(k) for k in range(4)]
    phi = [x[0] + 0.15 * x[1] * x[1], x[1] - 0.1 * x[0] * x[2],
           x[2] + 0.12 * x[0] * x[1], x[3] + 0.08 * x[0] * x[0]]
    sc = pullback_scenario(base, phi, Box.cube(0.8), "pulled")
    rng = np.random.default_rng(9)
    for _ in range(4):
        m = rng.uniform(-0.7, 0.7, size=4)
        y = np.array([p.eval(m).real for p in phi])
        assert sc.component.eval(m) == pytest.approx(base.component.eval(y), abs=1e-14)
        J = np.array([[phi[i].diff(a).eval(m).real for a in range(4)] for i in range(4)])
        assert np.max(np.abs(sc.jacobian(m) - base.jacobian(y) @ J)) < 1e-13
        assert np.max(np.abs(sc.metric.record(m).g - J.T @ base.metric.matrix(y) @ J)) < 1e-13


def test_normalized_scenario_flat_center_is_identity():
    sc = product_map_scenario(FlatMetric(Box.cube(1.5)))
    chart = normalized_scenario(sc, np.zeros(4))
    assert chart.identity
    assert chart.scenario is sc


def test_normalized_scenario_kills_metric_and_christoffel():
    base = product_map_scenario(quadratic_bump_metric())
    m0 = np.array([0.2, -0.1, 0.3, 0.05])
    chart = normalized_scenario(base, m0)
    assert not chart.identity
    sc = chart.scenario
    origin = np.zeros(4)
    assert np.max(np.abs(sc.metric.record(origin).g - np.eye(4))) < 1e-12
    assert np.max(np.abs(christoffel(sc.metric, origin))) < 1e-11
    # the chart map reproduces the center and the inverse metric root
    assert np.allclose(chart.to_original(origin), m0, atol=1e-14)
    # map values correspond through the chart
    rng = np.random.default_rng(4)
    for _ in range(4):
        y = rng.uniform(-0.05, 0.05, size=4)
        assert sc.component.eval(y) == pytest.approx(
            base.component.eval(chart.to_original(y)), abs=1e-13)
    # metric at the origin being the identity makes lengths match euclidean
    v = np.array([0.3, -0.2, 0.1, 0.4])
    g0 = sc.metric.record(origin).g
    assert v @ g0 @ v == pytest.approx(v @ v, abs=1e-12)
