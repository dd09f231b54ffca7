"""Morphism-level tests.

Oracles written here, independent of the package paths they certify:
  * sampled_dilation: coarse sup of ||dF X||_h / ||X||_g over many seeded
    directions, bounding dilation_sup from below.
  * divergence_tension: tension through the divergence form
    (1/sqrt(det g)) d_i (sqrt(det g) g^{ij} d_j F), no Christoffel symbols.
  * parametrized_fiber_mean_curvature: second fundamental form of an
    explicitly parametrized fiber in the flat chart.
Frozen expected values are spelled out at their tests.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphoscope.calculus import holomorphic_scenario, pullback_scenario, real_scenario
from morphoscope.errors import ClassificationError, GeometryError
from morphoscope.geometry import Box, FlatMetric
from morphoscope import morphism
from morphoscope.morphism import (
    EPS_CRITICAL, classify_point, fiber_mean_curvature, hwc_residual,
    point_geometry, splitting, tension_norm, validate_morphism,
)
from morphoscope.polynomials import Poly

from test_geometry import quadratic_bump_metric


def scenario_proj():
    return holomorphic_scenario("proj", {(1, 0): 1.0}, FlatMetric(Box.cube(1.0)))


def scenario_product():
    return holomorphic_scenario("prodmap", {(1, 1): 1.0}, FlatMetric(Box.cube(1.5)))


def scenario_square():
    return holomorphic_scenario("sqmap", {(2, 0): 1.0}, FlatMetric(Box.cube(1.5)))


def scenario_anisotropic():
    x = [Poly.variable(k) for k in range(4)]
    return real_scenario("stretch", x[0], 2.0 * x[1], FlatMetric(Box.cube(1.5)))


def pullback_diffeo():
    x = [Poly.variable(k) for k in range(4)]
    return [x[0] + 0.15 * x[1] * x[1] + 0.1 * x[2] * x[3],
            x[1] - 0.1 * x[0] * x[2],
            x[2] + 0.12 * x[0] * x[1],
            x[3] + 0.08 * x[0] * x[0] - 0.05 * x[1] * x[2]]


def scenario_pullback_product():
    return pullback_scenario(scenario_product(), pullback_diffeo(), Box.cube(0.8),
                             "prodmap_pulled", critical_hints=(np.zeros(4),))


def count_geometry_builds(monkeypatch) -> list:
    """Count point_geometry builds through every module that binds it.

    Returns a list that grows by one entry, the point, per build.
    """
    builds = []
    original = morphism.point_geometry

    def counted(scenario, m):
        builds.append(np.array(m, dtype=float))
        return original(scenario, m)

    for name, module in list(sys.modules.items()):
        if name == "morphoscope" or name.startswith("morphoscope."):
            if getattr(module, "point_geometry", None) is original:
                monkeypatch.setattr(module, "point_geometry", counted)
    return builds


def sampled_dilation(scenario, m, n=4000, seed=0):
    rng = np.random.default_rng(seed)
    g = scenario.metric.matrix(m)
    h = scenario.target.matrix
    jac = scenario.jacobian(m)
    best = 0.0
    for _ in range(n):
        x = rng.standard_normal(4)
        num = jac @ x
        val = np.sqrt((num @ h @ num) / (x @ g @ x))
        best = max(best, val)
    return best


def divergence_tension(scenario, m, h=1e-5):
    def flux(x):
        g = scenario.metric.matrix(x)
        return np.sqrt(np.linalg.det(g)) * (np.linalg.inv(g) @ scenario.jacobian(x).T)

    g0 = scenario.metric.matrix(m)
    out = np.zeros(2)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        d1 = (flux(m + h * e)[i] - flux(m - h * e)[i]) / (2 * h)
        d2 = (flux(m + 0.5 * h * e)[i] - flux(m - 0.5 * h * e)[i]) / h
        out += (4.0 * d2 - d1) / 3.0
    return out / np.sqrt(np.linalg.det(g0))


def test_anisotropic_map_frozen_defect():
    # map (x1, 2 x2): gram diag(1, 4), half trace 2.5, defect sqrt(2) * 1.5
    sc = scenario_anisotropic()
    data = hwc_residual(sc, np.array([0.3, -0.2, 0.9, 0.1]))
    assert data.squared_dilation == pytest.approx(2.5, abs=1e-12)
    assert data.defect == pytest.approx(2.1213203435596424, abs=1e-12)
    assert np.allclose(data.conformal, np.diag([1.0, 4.0]), atol=1e-12)


def test_holomorphic_dilation_identity_and_oracle():
    sc = scenario_product()
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.uniform(-1.0, 1.0, size=4)
        w1 = complex(m[0], m[1])
        w2 = complex(m[2], m[3])
        lam2 = abs(w2) ** 2 + abs(w1) ** 2  # |df/dw1|^2 + |df/dw2|^2
        data = hwc_residual(sc, m)
        assert data.squared_dilation == pytest.approx(lam2, abs=1e-13)
        assert data.defect < 1e-13
        sup = point_geometry(sc, m).classification.dilation_sup
        assert sup ** 2 == pytest.approx(lam2, abs=1e-12)
    m = np.array([0.7, -0.3, 0.4, 0.5])
    sup = point_geometry(sc, m).classification.dilation_sup
    assert sampled_dilation(sc, m) <= sup + 1e-12
    assert sampled_dilation(sc, m) >= sup * 0.999


def test_dilation_sup_vs_trace_disagree_off_conformal():
    # for (x1, 2 x2) the sup is 2 while the averaged dilation is sqrt(2.5)
    sc = scenario_anisotropic()
    m = np.zeros(4)
    assert point_geometry(sc, m).classification.dilation_sup == pytest.approx(2.0, abs=1e-12)
    assert hwc_residual(sc, m).dilation == pytest.approx(np.sqrt(2.5), abs=1e-12)
    assert sampled_dilation(sc, m) <= 2.0 + 1e-12


def test_classification_thresholds():
    sc = scenario_square()
    assert classify_point(sc, np.zeros(4)).status == "critical"
    assert classify_point(sc, np.array([0.0, 0.0, 0.7, -0.4])).status == "critical"
    assert classify_point(sc, np.array([0.5, 0.0, 0.0, 0.0])).status == "regular"
    # threshold boundary: |w1| = eps/2 has dilation 2|w1| = eps, regular
    eps = EPS_CRITICAL
    assert classify_point(sc, np.array([eps / 2, 0.0, 0.0, 0.0])).status == "regular"
    assert classify_point(sc, np.array([eps / 4, 0.0, 0.0, 0.0])).status == "critical"


def test_splitting_frozen_frames_product_map():
    sc = scenario_product()
    sp = splitting(sc, np.array([1.0, 0.0, 0.0, 0.0]))
    assert sp.dilation == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(sp.horizontal[0], [0, 0, 1, 0], atol=1e-13)
    assert np.allclose(sp.horizontal[1], [0, 0, 0, 1], atol=1e-13)
    assert np.allclose(sp.vertical[0], [1, 0, 0, 0], atol=1e-13)
    assert np.allclose(sp.vertical[1], [0, 1, 0, 0], atol=1e-13)
    assert np.allclose(sp.target_frame, np.eye(2), atol=1e-14)


def test_splitting_raises_on_critical_point():
    with pytest.raises(ClassificationError):
        splitting(scenario_square(), np.zeros(4))


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_splitting_structural_properties(factory):
    sc = factory()
    rng = np.random.default_rng(17)
    half = 0.45 * (sc.domain.hi[0] - sc.domain.lo[0])
    checked = 0
    while checked < 12:
        m = rng.uniform(-half, half, size=4)
        if point_geometry(sc, m).classification.dilation_sup < 1e-3:
            continue
        checked += 1
        sp = splitting(sc, m)
        g = sc.metric.matrix(m)
        jac = sc.jacobian(m)
        # vertical frame spans the kernel and is g-orthonormal
        assert np.max(np.abs(jac @ sp.vertical.T)) < 1e-10
        gram = sp.vertical @ g @ sp.vertical.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        # horizontal frame maps onto the scaled target frame
        assert np.max(np.abs(jac @ sp.horizontal[0] - sp.dilation * sp.target_frame[0])) < 1e-9
        assert np.max(np.abs(jac @ sp.horizontal[1] - sp.dilation * sp.target_frame[1])) < 1e-9
        # projectors: idempotent, complementary, g-symmetric
        pv = sp.vertical_projector
        assert np.max(np.abs(pv @ pv - pv)) < 1e-10
        assert np.max(np.abs(pv + sp.horizontal_projector - np.eye(4))) < 1e-12
        assert np.max(np.abs((g @ pv) - (g @ pv).T)) < 1e-10
        # orientation of the assembled frame is positive
        frame = np.vstack([sp.horizontal, sp.vertical])
        det = np.linalg.det(frame.T)
        assert det > 0
        # horizontal vectors are g-orthogonal to vertical ones
        assert np.max(np.abs(sp.horizontal @ g @ sp.vertical.T)) < 1e-9


def test_tension_exact_zero_for_harmonic_polynomials():
    sc = holomorphic_scenario("cubicmix", {(1, 1): 1.0, (3, 0): 1.0},
                              FlatMetric(Box.cube(1.5)))
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.uniform(-1.2, 1.2, size=4)
        assert tension_norm(sc, m) < 1e-12


def test_tension_against_divergence_oracle_curved_metric():
    metric = quadratic_bump_metric()
    x = [Poly.variable(k) for k in range(4)]
    # deliberately non-harmonic components
    sc = real_scenario("bent", x[0] * x[0] + x[2], x[1] * x[3] + 0.5 * x[1], metric)
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = rng.uniform(-0.5, 0.5, size=4)
        tau = point_geometry(sc, m).tension
        oracle = divergence_tension(sc, m)
        assert np.max(np.abs(tau - oracle)) < 1e-8
        assert np.linalg.norm(tau) > 1e-2  # the control is genuinely non-harmonic


def test_fiber_mean_curvature_vanishes_for_product_map():
    sc = scenario_product()
    for m in ([1.0, 0.0, 0.0, 0.0], [0.8, 0.3, -0.4, 0.6]):
        hvec = fiber_mean_curvature(sc, np.array(m))
        assert np.linalg.norm(hvec) < 1e-6


def test_fiber_mean_curvature_against_parametrized_oracle():
    # map (x1 (1 + 0.3 x3), 2 x2): fibers are graphs over (x3, x4)
    x = [Poly.variable(k) for k in range(4)]
    sc = real_scenario("taper", x[0] * (Poly.constant(1.0) + 0.3 * x[2]),
                       2.0 * x[1], FlatMetric(Box.cube(1.5)))
    m = np.array([0.5, 0.2, 0.4, -0.3])
    c1 = 0.5 * (1 + 0.3 * 0.4)
    s = m[2]

    def fiber_point(s, t):
        return np.array([c1 / (1 + 0.3 * s), m[1], s, t])

    assert np.allclose(fiber_point(m[2], m[3]), m)
    phi_s = np.array([-0.3 * c1 / (1 + 0.3 * s) ** 2, 0.0, 1.0, 0.0])
    phi_t = np.array([0.0, 0.0, 0.0, 1.0])
    phi_ss = np.array([2 * 0.09 * c1 / (1 + 0.3 * s) ** 3, 0.0, 0.0, 0.0])
    gs = np.array([[phi_s @ phi_s, phi_s @ phi_t], [phi_t @ phi_s, phi_t @ phi_t]])
    gs_inv = np.linalg.inv(gs)
    tang = np.column_stack([phi_s, phi_t])
    proj_t = tang @ np.linalg.inv(tang.T @ tang) @ tang.T
    proj_n = np.eye(4) - proj_t
    # second derivatives phi_st, phi_tt vanish for this parametrization
    oracle = gs_inv[0, 0] * (proj_n @ phi_ss)
    hvec = fiber_mean_curvature(sc, m)
    assert np.max(np.abs(hvec - oracle)) < 1e-6
    assert np.linalg.norm(oracle) > 1e-2  # control fiber is genuinely curved


def test_validate_morphism_positive_and_negative():
    rng = np.random.default_rng(41)
    pts = [rng.uniform(-1.0, 1.0, size=4) for _ in range(40)]
    good = validate_morphism(scenario_product(), pts, tol=1e-8)
    assert good.verdict == "PASS"
    assert good.max_defect < 1e-10
    assert good.max_tension < 1e-10
    bad = validate_morphism(scenario_anisotropic(), pts, tol=1e-8)
    assert bad.verdict == "FAIL"
    assert bad.max_defect == pytest.approx(2.1213203435596424, abs=1e-6)


@st.composite
def domain_points(draw):
    vals = draw(st.lists(st.floats(-0.7, 0.7, allow_nan=False, allow_infinity=False),
                         min_size=4, max_size=4))
    return np.asarray(vals)


@settings(max_examples=30, deadline=None)
@given(m=domain_points())
def test_hwc_defect_nonnegative_and_gauge_consistent(m):
    sc = scenario_pullback_product()
    data = hwc_residual(sc, m)
    assert data.defect >= 0.0
    assert data.squared_dilation >= 0.0
    sup = point_geometry(sc, m).classification.dilation_sup
    assert sup <= np.sqrt(2.0 * data.squared_dilation) + 1e-12


def test_validation_builds_one_geometry_per_point(monkeypatch):
    rng = np.random.default_rng(5)
    pts = [rng.uniform(-0.7, 0.7, size=4) for _ in range(12)]
    builds = count_geometry_builds(monkeypatch)
    report = validate_morphism(scenario_pullback_product(), pts)
    assert len(builds) == len(pts)
    assert len(report.records) == len(pts)


def test_point_functions_read_one_geometry():
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    geo = point_geometry(sc, m)
    cls = classify_point(sc, m)
    assert (cls.status, cls.dilation_sup) == (geo.classification.status,
                                              geo.classification.dilation_sup)
    assert hwc_residual(sc, m).defect == geo.hwc.defect
    assert tension_norm(sc, m) == geo.tension_norm
    assert np.array_equal(splitting(sc, m).vertical, geo.split.vertical)
    assert geo.split is geo.split  # derived once per geometry


def test_geometry_rejects_a_non_finite_differential():
    x = Poly.variable(0)
    big = real_scenario("big", x * x * x * x, Poly.variable(1),
                        FlatMetric(Box.cube(1e200)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GeometryError):
        point_geometry(big, np.array([1e150, 0.0, 0.0, 0.0]))
