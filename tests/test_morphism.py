"""Morphism-level tests.

Oracles written here, independent of the package paths they certify:
  * sampled_dilation: coarse sup of ||dF X|| / ||X||_g over many seeded
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
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import (ClassificationError, DegenerateFrameError, DomainError,
                                GeometryError)
from morphoscope.geometry import (Box, FlatMetric, PolynomialMetric, ProductSphereMetric,
                                  covariant_derivative, einstein_defect)
from morphoscope import morphism
from morphoscope.morphism import (
    EPS_CRITICAL, classify_point, fiber_mean_curvature, hwc_residual,
    point_geometries, point_geometry, splitting, tension_norm, validate_morphism,
)
from morphoscope.polynomials import Poly
from morphoscope.structures import K_MINUS, K_PLUS

from test_geometry import quadratic_bump_metric
from test_polynomials import written_out_jets, written_out_metric


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
                             "prodmap_pulled")


def count_geometry_builds(monkeypatch) -> list:
    """Count the geometries point_geometries builds, through every module
    that binds it; point_geometry builds through it too.

    Returns a list that grows by one entry, the point, per geometry built.
    """
    builds = []
    original = morphism.point_geometries

    def counted(scenario, points):
        builds.extend(np.array(points, dtype=float).reshape(-1, 4))
        return original(scenario, points)

    for name, module in list(sys.modules.items()):
        if name == "morphoscope" or name.startswith("morphoscope."):
            if getattr(module, "point_geometries", None) is original:
                monkeypatch.setattr(module, "point_geometries", counted)
    return builds


def sampled_dilation(scenario, m, n=4000, seed=0):
    rng = np.random.default_rng(seed)
    g = scenario.metric.matrix(m)
    jac = scenario.jacobian(m)
    best = 0.0
    for _ in range(n):
        x = rng.standard_normal(4)
        num = jac @ x
        val = np.sqrt((num @ num) / (x @ g @ x))
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
        sup = point_geometry(sc, m).dilation_sup
        assert sup ** 2 == pytest.approx(lam2, abs=1e-12)
    m = np.array([0.7, -0.3, 0.4, 0.5])
    sup = point_geometry(sc, m).dilation_sup
    assert sampled_dilation(sc, m) <= sup + 1e-12
    assert sampled_dilation(sc, m) >= sup * 0.999


def test_dilation_sup_vs_trace_disagree_off_conformal():
    # for (x1, 2 x2) the sup is 2 while the averaged dilation is sqrt(2.5)
    sc = scenario_anisotropic()
    m = np.zeros(4)
    assert point_geometry(sc, m).dilation_sup == pytest.approx(2.0, abs=1e-12)
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
    m = np.array([1.0, 0.0, 0.0, 0.0])
    sp = splitting(sc, m)
    assert sp.dilation == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(sp.horizontal[0], [0, 0, 1, 0], atol=1e-13)
    assert np.allclose(sp.horizontal[1], [0, 0, 0, 1], atol=1e-13)
    assert np.allclose(sp.vertical[0], [1, 0, 0, 0], atol=1e-13)
    assert np.allclose(sp.vertical[1], [0, 1, 0, 0], atol=1e-13)
    # (e1, e2) map onto the standard target frame (1, i)
    assert np.allclose(sc.jacobian(m) @ sp.horizontal.T, np.eye(2), atol=1e-14)


def test_splitting_raises_on_critical_point():
    with pytest.raises(ClassificationError):
        splitting(scenario_square(), np.zeros(4)).horizontal


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_splitting_structural_properties(factory):
    sc = factory()
    rng = np.random.default_rng(17)
    half = 0.45 * (sc.domain.hi[0] - sc.domain.lo[0])
    checked = 0
    while checked < 12:
        m = rng.uniform(-half, half, size=4)
        if point_geometry(sc, m).dilation_sup < 1e-3:
            continue
        checked += 1
        sp = splitting(sc, m)
        g = sc.metric.matrix(m)
        jac = sc.jacobian(m)
        # vertical frame spans the kernel and is g-orthonormal
        assert np.max(np.abs(jac @ sp.vertical.T)) < 1e-10
        gram = sp.vertical @ g @ sp.vertical.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        # horizontal frame maps onto the scaled standard target frame (1, i)
        assert np.max(np.abs(jac @ sp.horizontal[0] - sp.dilation * np.eye(2)[0])) < 1e-9
        assert np.max(np.abs(jac @ sp.horizontal[1] - sp.dilation * np.eye(2)[1])) < 1e-9
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
        hvec = fiber_mean_curvature(point_geometry(sc, np.array(m)))
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
    hvec = fiber_mean_curvature(point_geometry(sc, m))
    assert np.max(np.abs(hvec - oracle)) < 1e-6
    assert np.linalg.norm(oracle) > 1e-2  # control fiber is genuinely curved


def test_validate_morphism_positive_and_negative():
    rng = np.random.default_rng(41)
    pts = [rng.uniform(-1.0, 1.0, size=4) for _ in range(40)]
    _, max_defect, max_tension = validate_morphism(scenario_product(), pts)
    assert max_defect < 1e-10
    assert max_tension < 1e-10
    _, max_defect, max_tension = validate_morphism(scenario_anisotropic(), pts)
    assert max_defect > 1e-8 or max_tension > 1e-8
    assert max_defect == pytest.approx(2.1213203435596424, abs=1e-6)


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
    sup = point_geometry(sc, m).dilation_sup
    assert sup <= np.sqrt(2.0 * data.squared_dilation) + 1e-12


def test_validation_builds_one_geometry_per_point(monkeypatch):
    rng = np.random.default_rng(5)
    pts = [rng.uniform(-0.7, 0.7, size=4) for _ in range(12)]
    builds = count_geometry_builds(monkeypatch)
    geometries, _, _ = validate_morphism(scenario_pullback_product(), pts)
    assert len(builds) == len(pts)
    assert len(geometries) == len(pts)


def test_point_functions_read_one_geometry():
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    geo = point_geometry(sc, m)
    cls = classify_point(sc, m)
    assert (cls.status, cls.dilation_sup) == (geo.status, geo.dilation_sup)
    assert hwc_residual(sc, m).defect == geo.defect
    assert tension_norm(sc, m) == geo.tension_norm
    assert np.array_equal(splitting(sc, m).vertical, geo.vertical)
    # derived once per geometry
    assert geo.vertical is geo.vertical and geo.j_plus is geo.j_plus


@pytest.mark.parametrize("field", [lambda geo: geo.vertical[0], lambda geo: geo.j_plus],
                         ids=["vector", "tensor"])
def test_geometry_derivative_is_the_covariant_derivative(field):
    # one rule: the geometry's stencil gives, bit for bit, the covariant
    # derivative of the same field sampled through fresh geometries
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    X = np.array([0.2, -0.1, 0.4, 0.3])
    expected = covariant_derivative(sc.metric, lambda x: field(point_geometry(sc, x)), m, X)
    assert np.array_equal(point_geometry(sc, m).derivative(field, X), expected)


def test_geometry_keeps_one_stencil_per_direction_and_step():
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    X = np.array([0.2, -0.1, 0.4, 0.3])
    h = 1e-4

    def j_plus(geo):
        return geo.j_plus

    geo = point_geometry(sc, m)
    fine = geo.derivative(j_plus, X, h)
    coarse = geo.derivative(j_plus, X, 2 * h)
    # no stale stencil: each step reads its own nodes, as a fresh geometry does
    assert np.array_equal(fine, point_geometry(sc, m).derivative(j_plus, X, h))
    assert np.array_equal(coarse, point_geometry(sc, m).derivative(j_plus, X, 2 * h))
    assert not np.array_equal(fine, coarse)


def test_geometry_rejects_a_non_finite_differential():
    x = Poly.variable(0)
    big = real_scenario("big", x * x * x * x, Poly.variable(1),
                        FlatMetric(Box.cube(1e200)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GeometryError):
        point_geometry(big, np.array([1e150, 0.0, 0.0, 0.0]))


# ------------------------------------------------------------ stacked pass


def written_out_geometry(scenario, m) -> dict:
    """The pointwise geometry at m, every step written out for the one point:
    the metric, its derivatives and the map's jets entry by entry through
    Poly.eval, then the decompositions of one matrix at a time."""
    metric = scenario.metric
    if isinstance(metric, FlatMetric):
        g, dg = np.eye(4), np.zeros((4, 4, 4))
    elif isinstance(metric, ProductSphereMetric):
        r2 = metric.radius ** 2
        g = np.diag([r2, r2 * np.sin(m[0]) ** 2, 1.0, 1.0])
        dg = np.zeros((4, 4, 4))
        dg[0, 1, 1] = r2 * np.sin(2.0 * m[0])
    else:
        g, dg, _ = written_out_metric(metric, m)
    jac, hess = written_out_jets(scenario, m)
    w, q = np.linalg.eigh(0.5 * (g + g.T))
    ginvsqrt = (q / np.sqrt(w)) @ q.T
    gauge = jac @ ginvsqrt
    _, sv, vt = np.linalg.svd(gauge, full_matrices=True)
    ginv = ginvsqrt @ ginvsqrt
    sums = (np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg)
            - np.einsum("mij->mij", dg))
    gamma = 0.5 * np.einsum("km,mij->kij", np.linalg.inv(g), sums)
    conformal = gauge @ gauge.T
    squared_dilation = 0.5 * float(np.trace(conformal))
    defect = float(np.linalg.norm(conformal - squared_dilation * np.eye(2), ord="fro"))
    contracted = np.einsum("ij,kij->k", ginv, gamma)
    tension = np.array([float(np.einsum("ij,ij->", ginv, hess[a]) - contracted @ jac[a])
                        for a in range(2)])
    tension_norm = float(np.sqrt(tension @ tension))
    return {"g": g, "jac": jac, "ginv": ginv, "ginvsqrt": ginvsqrt,
            "singular_values": sv, "right_vectors": vt, "conformal": conformal,
            "squared_dilation": squared_dilation, "defect": defect, "gamma": gamma,
            "tension": tension, "tension_norm": tension_norm}


def oracle_charts() -> dict:
    charts = {name: build_scenario(ScenarioConfig.from_dict(raw))
              for name, raw in sorted(catalog_configs().items())}
    charts["aniso"] = scenario_anisotropic()
    charts["quadratic_bump"] = holomorphic_scenario("bump", {(1, 1): 1.0},
                                                    quadratic_bump_metric())
    return charts


ORACLE_CHARTS = oracle_charts()


def validation_points(scenario, n, seed):
    lo, hi = np.asarray(scenario.domain.lo), np.asarray(scenario.domain.hi)
    margin = 0.05 * (hi - lo)
    return np.random.default_rng(seed).uniform(lo + margin, hi - margin, size=(n, 4))


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_CHARTS))
@pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
def test_point_geometries_equal_the_written_out_loop_bitwise(name, layout):
    scenario = ORACLE_CHARTS[name]
    points = validation_points(scenario, 25, seed=7)
    if layout == "strided":
        wide = np.zeros((25, 8))
        wide[:, ::2] = points
        stack = wide[:, ::2]
    else:
        stack = np.asfortranarray(points) if layout == "fortran" else points
    geometries = point_geometries(scenario, stack)
    assert len(geometries) == len(points)
    for geo, m in zip(geometries, points):
        expected = written_out_geometry(scenario, m)
        assert bits(geo.point) == bits(m)
        for key, value in expected.items():
            assert bits(getattr(geo, key)) == bits(value), (key, m.tolist())
        assert bits(geo.metric_point.gamma) == bits(expected["gamma"])


@pytest.mark.parametrize("name", ["pullback_z1z2", "product_sphere"])
def test_a_geometry_reads_the_same_bits_alone_as_in_its_stack(name):
    scenario = ORACLE_CHARTS[name]
    points = validation_points(scenario, 9, seed=3)
    for geo, m in zip(point_geometries(scenario, points), points):
        alone = point_geometry(scenario, m)
        assert bits(alone.vertical) == bits(geo.vertical)
        assert bits(alone.j_plus) == bits(geo.j_plus)
        assert (alone.defect, alone.tension_norm) == (geo.defect, geo.tension_norm)
        for key in ("horizontal", "vertical_projector", "horizontal_projector", "j_minus"):
            assert bits(getattr(alone, key)) == bits(getattr(geo, key)), key


def written_out_splitting(geo) -> dict:
    """The splitting and the structures at one regular geometry, every step
    written out for the one point: two solves, the kernel vector by vector,
    a Gram-Schmidt loop over the projected axes, the orientation flip and
    one inverse of the adapted basis."""
    lam = geo.dilation
    graw = geo.jac @ geo.ginv @ geo.jac.T
    e1, e2 = (geo.ginv @ geo.jac.T @ np.linalg.solve(graw, lam * eps) for eps in np.eye(2))
    k1, k2 = (geo.ginvsqrt @ geo.right_vectors[k] for k in (2, 3))
    p_vert = (np.outer(k1, k1) + np.outer(k2, k2)) @ geo.g
    vectors = []
    for axis in np.eye(4):
        w = p_vert @ axis
        for u in vectors:
            w = w - (w @ geo.g @ u) * u
        n = float(np.sqrt(max(0.0, w @ geo.g @ w)))
        if n > 0 and n >= 1e-8 * np.sqrt(axis @ geo.g @ axis):
            vectors.append(w / n)
    v1, v2 = vectors[:2]
    if np.linalg.det(np.array([e1, e2, v1, v2]).T) * geo.scenario.orientation < 0:
        v2 = -v2
    B = np.column_stack([e1, e2, v1, v2])
    Binv = np.linalg.inv(B)
    return {"horizontal": np.array([e1, e2]), "vertical": np.array([v1, v2]),
            "vertical_projector": p_vert, "horizontal_projector": np.eye(4) - p_vert,
            "j_plus": B @ K_PLUS @ Binv, "j_minus": B @ K_MINUS @ Binv}


@pytest.mark.parametrize("name", sorted(ORACLE_CHARTS))
def test_the_stacked_splitting_equals_the_written_out_splitting_bitwise(name):
    scenario = ORACLE_CHARTS[name]
    regular = [geo for geo in point_geometries(scenario, validation_points(scenario, 25, 5))
               if geo.is_regular]
    assert regular
    for geo in regular:
        for key, value in written_out_splitting(geo).items():
            assert bits(getattr(geo, key)) == bits(value), (key, geo.point.tolist())


def rank_one_scenario():
    # F = (x1, x2 x3): the second row of dF vanishes where x2 = x3 = 0, so
    # the horizontal Gram matrix is singular at a point of dilation 1
    x = [Poly.variable(k) for k in range(4)]
    return real_scenario("rank_one", x[0], x[1] * x[2], FlatMetric(Box.cube(1.0)))


@pytest.mark.parametrize("scenario, bad, error, message", [
    (scenario_square(), [0.0, 0.0, 0.3, -0.2], ClassificationError,
     "splitting needs a regular point"),
    (rank_one_scenario(), [0.3, 0.0, 0.0, 0.1], DegenerateFrameError,
     "horizontal Gram matrix is singular at [0.3, 0.0, 0.0, 0.1]"),
], ids=["critical", "singular"])
def test_a_failing_row_leaves_the_other_splittings_of_its_stack(scenario, bad, error,
                                                                 message):
    good = [[0.4, 0.3, -0.2, 0.1], [-0.1, 0.5, 0.25, -0.3]]
    geometries = point_geometries(scenario, [good[0], bad, good[1]])
    for read in ("vertical", "horizontal", "j_plus", "j_minus"):
        with pytest.raises(error) as stacked:
            getattr(geometries[1], read)
        with pytest.raises(error) as alone:
            getattr(point_geometry(scenario, bad), read)
        assert message in str(stacked.value)
        assert str(stacked.value) == str(alone.value)
    for geo, m in zip(geometries[::2], good):
        alone = point_geometry(scenario, m)
        for key in ("horizontal", "vertical", "vertical_projector", "horizontal_projector",
                    "j_plus", "j_minus"):
            assert bits(getattr(geo, key)) == bits(getattr(alone, key)), key


def stepped_scenario():
    # g = diag(1 + x1, 1 + x2^200, 1, 1) on [-2, 1e3]^4: not positive
    # definite where x1 < -1, and not finite where x2^200 overflows
    x = [Poly.variable(k) for k in range(4)]
    one = Poly.constant(1.0)
    entries = [[Poly.zero() for _ in range(4)] for _ in range(4)]
    entries[0][0] = one + x[0]
    entries[1][1] = one + Poly({(0, 200, 0, 0): 1.0})
    entries[2][2] = entries[3][3] = one
    metric = PolynomialMetric(entries, Box((-2.0,) * 4, (1e3,) * 4))
    return holomorphic_scenario("stepped", {(1, 0): 1.0}, metric)


GOOD, OUTSIDE = [0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 2e3]
NOT_SPD, NOT_FINITE = [-1.5, 0.2, 0.3, 0.4], [0.1, 100.0, 0.3, 0.4]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("first, later, error, message", [
    (OUTSIDE, NOT_SPD, DomainError, "leaves the chart domain"),
    (OUTSIDE, NOT_FINITE, DomainError, "leaves the chart domain"),
    (NOT_SPD, OUTSIDE, GeometryError, "chart metric is not positive definite at"),
    (NOT_FINITE, NOT_SPD, GeometryError, "chart metric has non-finite entries at"),
])
def test_a_failing_stack_names_its_first_failing_point(first, later, error, message):
    # the error of a loop over the points: the first failing point, with
    # its first failed check, whatever fails after it
    scenario = stepped_scenario()
    stack = np.array([GOOD, GOOD, first, GOOD, later])
    with pytest.raises(error) as stacked:
        point_geometries(scenario, stack)
    with pytest.raises(error) as looped:
        for m in stack:
            point_geometry(scenario, m)
    assert str(stacked.value) == str(looped.value)
    assert message in str(stacked.value)
    assert str(np.array(first).tolist()) in str(stacked.value)


def test_a_stack_evaluates_the_metric_derivatives_once(metric_calls):
    # one first_derivatives pass over the stack; the curvature of one of
    # its geometries then needs only that point's second derivatives
    scenario = ORACLE_CHARTS["pullback_z1z2"]
    points = validation_points(scenario, 5, seed=2)
    geometries = point_geometries(scenario, points)
    [geo.gamma for geo in geometries]
    metric = scenario.metric
    assert metric_calls["first_derivatives"] == [(metric, *m) for m in points.tolist()]
    geo = geometries[3]
    for log in metric_calls.values():
        log.clear()
    einstein_defect(geo.metric_point)
    assert metric_calls == {"matrix": [], "first_derivatives": [],
                            "second_derivatives": [(metric, *geo.point.tolist())]}


@pytest.mark.parametrize("name", ["pullback_z1z2", "product_sphere"])
def test_validation_cost_does_not_grow_with_the_points(monkeypatch, name):
    # one stacked pass: no polynomial is evaluated term by term, and the
    # decompositions run once per stack, not once per point
    scenario = ORACLE_CHARTS[name]
    calls = {"eval": 0, "svd": 0, "eigh": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Poly, "eval", counted("eval", Poly.eval))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    seen = []
    for n in (4, 400):
        calls.update(dict.fromkeys(calls, 0))
        geometries, _, _ = validate_morphism(scenario, validation_points(scenario, n, 1))
        [(geo.defect, geo.tension_norm) for geo in geometries]
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[1] == {"eval": 0, "svd": 1, "eigh": 1}
