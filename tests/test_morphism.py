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

import dataclasses
import itertools
import sys
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphoscope.calculus import holomorphic_scenario, pullback_scenario, real_scenario
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import (ClassificationError, DegenerateFrameError, DomainError,
                                GeometryError)
from morphoscope.geometry import (Box, FlatMetric, PolynomialMetric, ProductSphereMetric,
                                  PullbackMetric, covariant_derivative, einstein_defect)
from morphoscope import morphism
from morphoscope.morphism import (
    EPS_CRITICAL, along, classify_point, fiber_mean_curvature, geometry_stack, hwc_residual,
    splitting, tension_norm, validate_morphism,
)
from morphoscope.polynomials import Poly, evaluate
from morphoscope.structures import STRUCTURES_MINUS, STRUCTURES_PLUS

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
    """Count the rows the geometry pass builds, raising or not, through
    every module that binds it.

    Returns a list that grows by one entry, the point, per row built.
    """
    builds = []
    original = morphism.stack_pass

    def counted(scenario, points):
        builds.extend(np.array(points, dtype=float).reshape(-1, 4))
        return original(scenario, points)

    for name, module in list(sys.modules.items()):
        if name == "morphoscope" or name.startswith("morphoscope."):
            if getattr(module, "stack_pass", None) is original:
                monkeypatch.setattr(module, "stack_pass", counted)
    return builds


def refuse_frames(monkeypatch) -> None:
    """Make every frame construction of the geometry stack raise: the
    choice of v1, from which the vertical frame (v1, J+ v1) is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a splitting frame was built")

    monkeypatch.setattr(morphism, "first_seed", refuse)


SPLITTING = ("horizontal", "vertical", "vertical_projector", "horizontal_projector")


def field(stack, i, key):
    """Row i's `key` of a geometry stack: a column of the stack or of its
    metric record, a part of its splitting, or J+ or J-; the splitting and
    the structures first raise the row's failure, as the package reads
    them."""
    if key in SPLITTING or key in ("j_plus", "j_minus"):
        stack.check(i)
        if key in SPLITTING:
            return stack.splitting[SPLITTING.index(key)][i]
        return stack.structure(1 if key == "j_plus" else -1)[i]
    if key in ("g", "gamma", "inverse"):
        return getattr(stack.metric, key)[i]
    return getattr(stack, key)[i]


def derivative(jet, X, i=0):
    """Row i of a stack's jet, (n, 4, 4, 4) or (n, 4, 4), along X."""
    return along(jet[[i]], np.asarray(X, dtype=float)[None])[0]


def dilation_sup(scenario, m) -> float:
    """The dilation sup at m, alone: the square root of the larger
    eigenvalue of dF g^-1 dF^T."""
    return geometry_stack(scenario, [m]).dilation_sup[0]


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
    assert data.squared_dilation[0] == pytest.approx(2.5, abs=1e-12)
    assert data.defect[0] == pytest.approx(2.1213203435596424, abs=1e-12)
    assert np.allclose(data.conformal[0], np.diag([1.0, 4.0]), atol=1e-12)


def test_holomorphic_dilation_identity_and_oracle():
    sc = scenario_product()
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.uniform(-1.0, 1.0, size=4)
        w1 = complex(m[0], m[1])
        w2 = complex(m[2], m[3])
        lam2 = abs(w2) ** 2 + abs(w1) ** 2  # |df/dw1|^2 + |df/dw2|^2
        data = hwc_residual(sc, m)
        assert data.squared_dilation[0] == pytest.approx(lam2, abs=1e-13)
        assert data.defect[0] < 1e-13
        sup = dilation_sup(sc, m)
        assert sup ** 2 == pytest.approx(lam2, abs=1e-12)
    m = np.array([0.7, -0.3, 0.4, 0.5])
    sup = dilation_sup(sc, m)
    assert sampled_dilation(sc, m) <= sup + 1e-12
    assert sampled_dilation(sc, m) >= sup * 0.999


def test_dilation_sup_vs_trace_disagree_off_conformal():
    # for (x1, 2 x2) the sup is 2 while the averaged dilation is sqrt(2.5)
    sc = scenario_anisotropic()
    m = np.zeros(4)
    assert dilation_sup(sc, m) == pytest.approx(2.0, abs=1e-12)
    assert hwc_residual(sc, m).dilation[0] == pytest.approx(np.sqrt(2.5), abs=1e-12)
    assert sampled_dilation(sc, m) <= 2.0 + 1e-12


def test_classification_thresholds():
    sc = scenario_square()
    assert not classify_point(sc, np.zeros(4)).regular[0]
    assert not classify_point(sc, np.array([0.0, 0.0, 0.7, -0.4])).regular[0]
    assert classify_point(sc, np.array([0.5, 0.0, 0.0, 0.0])).regular[0]
    # threshold boundary: |w1| = eps/2 has dilation 2|w1| = eps, regular
    eps = EPS_CRITICAL
    assert classify_point(sc, np.array([eps / 2, 0.0, 0.0, 0.0])).regular[0]
    assert not classify_point(sc, np.array([eps / 4, 0.0, 0.0, 0.0])).regular[0]


def test_splitting_frozen_frames_product_map():
    sc = scenario_product()
    m = np.array([1.0, 0.0, 0.0, 0.0])
    sp = splitting(sc, m)
    horizontal, vertical = field(sp, 0, "horizontal"), field(sp, 0, "vertical")
    assert sp.dilation[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(horizontal[0], [0, 0, 1, 0], atol=1e-13)
    assert np.allclose(horizontal[1], [0, 0, 0, 1], atol=1e-13)
    assert np.allclose(vertical[0], [1, 0, 0, 0], atol=1e-13)
    assert np.allclose(vertical[1], [0, 1, 0, 0], atol=1e-13)
    # (e1, e2) map onto the standard target frame (1, i)
    assert np.allclose(sc.jacobian(m) @ horizontal.T, np.eye(2), atol=1e-14)


def test_splitting_raises_on_critical_point():
    with pytest.raises(ClassificationError):
        field(splitting(scenario_square(), np.zeros(4)), 0, "horizontal")


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_splitting_structural_properties(factory, orientation):
    sc = dataclasses.replace(factory(), orientation=orientation)
    rng = np.random.default_rng(17)
    half = 0.45 * (sc.domain.hi[0] - sc.domain.lo[0])
    checked = 0
    while checked < 12:
        m = rng.uniform(-half, half, size=4)
        if dilation_sup(sc, m) < 1e-3:
            continue
        checked += 1
        sp = splitting(sc, m)
        horizontal, vertical = field(sp, 0, "horizontal"), field(sp, 0, "vertical")
        dilation = sp.dilation[0]
        g = sc.metric.record(m).g
        jac = sc.jacobian(m)
        # vertical frame spans the kernel and is g-orthonormal
        assert np.max(np.abs(jac @ vertical.T)) < 1e-10
        gram = vertical @ g @ vertical.T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10
        # horizontal frame maps onto the scaled standard target frame (1, i)
        assert np.max(np.abs(jac @ horizontal[0] - dilation * np.eye(2)[0])) < 1e-9
        assert np.max(np.abs(jac @ horizontal[1] - dilation * np.eye(2)[1])) < 1e-9
        # projectors: idempotent, complementary, g-symmetric
        pv = field(sp, 0, "vertical_projector")
        assert np.max(np.abs(pv @ pv - pv)) < 1e-10
        assert np.max(np.abs(pv + field(sp, 0, "horizontal_projector") - np.eye(4))) < 1e-12
        assert np.max(np.abs((g @ pv) - (g @ pv).T)) < 1e-10
        # the assembled frame has the scenario orientation, because v2 is
        # J+ v1, bit for bit
        frame = np.vstack([horizontal, vertical])
        assert np.linalg.det(frame.T) * orientation > 0
        assert bits(vertical[1]) == bits(field(sp, 0, "j_plus") @ vertical[0])
        # horizontal vectors are g-orthogonal to vertical ones
        assert np.max(np.abs(horizontal @ g @ vertical.T)) < 1e-9


def test_tension_exact_zero_for_harmonic_polynomials():
    sc = holomorphic_scenario("cubicmix", {(1, 1): 1.0, (3, 0): 1.0},
                              FlatMetric(Box.cube(1.5)))
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.uniform(-1.2, 1.2, size=4)
        assert tension_norm(sc, m).tension_norm[0] < 1e-12


def test_tension_against_divergence_oracle_curved_metric():
    metric = quadratic_bump_metric()
    x = [Poly.variable(k) for k in range(4)]
    # deliberately non-harmonic components
    sc = real_scenario("bent", x[0] * x[0] + x[2], x[1] * x[3] + 0.5 * x[1], metric)
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = rng.uniform(-0.5, 0.5, size=4)
        tau = geometry_stack(sc, [m]).tension[0]
        oracle = divergence_tension(sc, m)
        assert np.max(np.abs(tau - oracle)) < 1e-8
        assert np.linalg.norm(tau) > 1e-2  # the control is genuinely non-harmonic


def test_fiber_mean_curvature_vanishes_for_product_map():
    sc = scenario_product()
    for m in ([1.0, 0.0, 0.0, 0.0], [0.8, 0.3, -0.4, 0.6]):
        hvec = fiber_mean_curvature(geometry_stack(sc, [m]))[0]
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
    hvec = fiber_mean_curvature(geometry_stack(sc, [m]))[0]
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
    assert data.defect[0] >= 0.0
    assert data.squared_dilation[0] >= 0.0
    sup = dilation_sup(sc, m)
    assert sup <= np.sqrt(2.0 * data.squared_dilation[0]) + 1e-12


def count_instances(monkeypatch, cls) -> list:
    """The instances of cls built from here on, in order."""
    built = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def test_validation_builds_one_geometry_per_point(monkeypatch):
    # one row of one stack per point: validation reads the defect, the
    # tension and the records as columns of the stack
    rng = np.random.default_rng(5)
    pts = [rng.uniform(-0.7, 0.7, size=4) for _ in range(12)]
    stacks = count_instances(monkeypatch, morphism.GeometryStack)
    stack, _, _ = validate_morphism(scenario_pullback_product(), pts)
    assert stacks == [stack]
    assert np.array_equal(stack.metric.point, pts)


def test_point_functions_read_one_geometry():
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    geo = geometry_stack(sc, [m])
    cls = classify_point(sc, m)
    assert ((cls.regular[0], cls.dilation_sup[0])
            == (geo.regular[0], geo.dilation_sup[0]))
    assert hwc_residual(sc, m).defect[0] == geo.defect[0]
    assert tension_norm(sc, m).tension_norm[0] == geo.tension_norm[0]
    assert np.array_equal(field(splitting(sc, m), 0, "vertical"), field(geo, 0, "vertical"))
    # derived once per stack
    assert geo.splitting is geo.splitting and geo.structures is geo.structures


@pytest.mark.parametrize("quantity, exact", [
    # the horizontal part of nabla_X v1, which (nabla_X P_V) v1 gives exactly
    (lambda geo: field(geo, 0, "vertical")[0],
     lambda geo, X: derivative(geo.projector_jet, X) @ field(geo, 0, "vertical")[0]),
    (lambda geo: field(geo, 0, "j_plus"),
     lambda geo, X: derivative(geo.structure_jets[0][1], X)),
], ids=["vector", "tensor"])
def test_geometry_derivative_is_the_covariant_derivative(quantity, exact):
    # the exact jet of the geometry against the covariant derivative of the
    # same field sampled through fresh geometries, on its Richardson stencil
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    X = np.array([0.2, -0.1, 0.4, 0.3])
    geo = geometry_stack(sc, [m])
    expected = covariant_derivative(sc.metric, lambda x: quantity(geometry_stack(sc, [x])),
                                    m, X)
    if expected.ndim == 1:
        expected = field(geo, 0, "horizontal_projector") @ expected
    assert np.max(np.abs(exact(geo, X) - expected)) < 1e-8


def count_jets(monkeypatch) -> dict:
    """The number of times each stack jet is computed, by name."""
    counts = {"projector_jet": 0, "structure_jets": 0}
    for name in counts:
        original = getattr(morphism.GeometryStack, name).func

        def counted(stack, name=name, original=original):
            counts[name] += 1
            return original(stack)

        jet = cached_property(counted)
        jet.__set_name__(morphism.GeometryStack, name)
        monkeypatch.setattr(morphism.GeometryStack, name, jet)
    return counts


def test_geometry_jets_build_no_geometry(monkeypatch):
    # every derivative, along any direction and of either structure, reads
    # the jets of the point's own stack, each computed once
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    builds = count_geometry_builds(monkeypatch)
    jets = count_jets(monkeypatch)
    geo = morphism.geometry_stack(sc, [m])
    vertical = field(geo, 0, "vertical")
    for X in (np.array([0.2, -0.1, 0.4, 0.3]), vertical[0], vertical[1]):
        derivative(geo.projector_jet, X)
        derivative(geo.structure_jets[0][1], X)
        derivative(geo.structure_jets[1][1], X)
    fiber_mean_curvature(geo)
    assert len(builds) == 1
    assert jets == {"projector_jet": 1, "structure_jets": 1}


def test_geometry_rejects_a_non_finite_differential():
    x = Poly.variable(0)
    big = real_scenario("big", x * x * x * x, Poly.variable(1),
                        FlatMetric(Box.cube(1e200)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GeometryError):
        geometry_stack(big, [[1e150, 0.0, 0.0, 0.0]])


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
    elif isinstance(metric, PullbackMetric):
        # the pullback at the one point, which test_polynomials checks
        # against the symbolic and the written-out chain rules
        record = metric.record(m)
        g, dg = record.g, record.dg
    else:
        g, dg, _ = written_out_metric(metric, m)
    jac, hess = written_out_jets(scenario, m)
    ginv = np.linalg.inv(g)
    sums = (np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg)
            - np.einsum("mij->mij", dg))
    gamma = 0.5 * np.einsum("km,mij->kij", ginv, sums)
    conformal = jac @ ginv @ jac.T
    squared_dilation = 0.5 * float(np.trace(conformal))
    gap = np.hypot(0.5 * (conformal[0, 0] - conformal[1, 1]),
                   0.5 * (conformal[0, 1] + conformal[1, 0]))
    dilation_sup = float(np.sqrt(max(squared_dilation + gap, 0.0)))
    defect = float(np.linalg.norm(conformal - squared_dilation * np.eye(2), ord="fro"))
    contracted = np.einsum("ij,kij->k", ginv, gamma)
    tension = np.array([float(np.einsum("ij,ij->", ginv, hess[a]) - contracted @ jac[a])
                        for a in range(2)])
    tension_norm = float(np.sqrt(tension @ tension))
    return {"g": g, "jac": jac, "inverse": ginv, "conformal": conformal,
            "squared_dilation": squared_dilation, "dilation_sup": dilation_sup,
            "defect": defect, "gamma": gamma, "tension": tension,
            "tension_norm": tension_norm}


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
    geometries = geometry_stack(scenario, stack)
    assert len(geometries.metric.point) == len(points)
    for i, m in enumerate(points):
        expected = written_out_geometry(scenario, m)
        assert bits(geometries.metric.point[i]) == bits(m)
        for key, value in expected.items():
            assert bits(field(geometries, i, key)) == bits(value), (key, m.tolist())
        assert bits(geometries.metric.gamma[i]) == bits(expected["gamma"])


@pytest.mark.parametrize("name", ["pullback_z1z2", "product_sphere"])
def test_a_geometry_reads_the_same_bits_alone_as_in_its_stack(name):
    scenario = ORACLE_CHARTS[name]
    points = validation_points(scenario, 9, seed=3)
    geo = geometry_stack(scenario, points)
    for i, m in enumerate(points):
        alone = geometry_stack(scenario, [m])
        assert bits(field(alone, 0, "vertical")) == bits(field(geo, i, "vertical"))
        assert bits(field(alone, 0, "j_plus")) == bits(field(geo, i, "j_plus"))
        assert ((alone.defect[0], alone.tension_norm[0])
                == (geo.defect[i], geo.tension_norm[i]))
        for key in ("horizontal", "vertical_projector", "horizontal_projector", "j_minus"):
            assert bits(field(alone, 0, key)) == bits(field(geo, i, key)), key


def levi_civita() -> np.ndarray:
    """eps_ijkl as a (16, 16) matrix, rows ij and columns kl: the sign of
    the permutation ijkl of 0123, by counting its inversions, or 0."""
    eps = np.zeros((16, 16))
    for p in itertools.permutations(range(4)):
        inversions = sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
        eps[4 * p[0] + p[1], 4 * p[2] + p[3]] = (-1.0) ** inversions
    return eps


def frame_structures(horizontal, vertical) -> tuple:
    """(J+, J-) carried by an adapted frame: B K B^-1 for the basis B with
    columns e1, e2, v1, v2 and the standard structures K of the two complex
    chart coordinates."""
    B = np.column_stack([*horizontal, *vertical])
    Binv = np.linalg.inv(B)
    return B @ STRUCTURES_PLUS[2] @ Binv, B @ STRUCTURES_MINUS[2] @ Binv


def written_out_splitting(stack, i) -> dict:
    """The splitting and the structures at one regular row of a geometry
    stack, every step written out for the one point: two solves for the
    horizontal frame, one for the horizontal projector g^-1 A^T (A g^-1
    A^T)^-1 A with A = dF, and v1, the first projected axis that keeps its
    rank, normalised; J+ and J- are -g^-1 (w + s *w), s = +-o for the
    scenario orientation o, for the unit 2-form w = A_1 ^ A_2 / sqrt(det A
    g^-1 A^T) and (*w)_kl = 1/2 sqrt(det g) eps_ijkl w^ij, and v2 = J+ v1."""
    jac, ginv, g = stack.jac[i], np.linalg.inv(stack.metric.g[i]), stack.metric.g[i]
    lam = float(np.sqrt(max(0.0, stack.squared_dilation[i])))
    graw = jac @ ginv @ jac.T
    e1, e2 = (ginv @ jac.T @ np.linalg.solve(graw, lam * eps) for eps in np.eye(2))
    p_hor = ginv @ jac.T @ np.linalg.solve(graw, jac)
    p_vert = np.eye(4) - p_hor
    for axis in np.eye(4):
        w = p_vert @ axis
        n = float(np.sqrt(max(0.0, w @ g @ w)))
        if n > 0 and n >= 1e-8 * np.sqrt(axis @ g @ axis):
            v1 = w / n
            break
    W = np.outer(jac[0], jac[1])
    w = (W - W.T) / np.sqrt(np.linalg.det(graw))
    w_up = ginv @ w @ ginv
    star = 0.5 * np.sqrt(np.linalg.det(g)) * (w_up.reshape(1, 16) @ levi_civita()).reshape(4, 4)
    o = stack.scenario.orientation
    j_plus, j_minus = -(ginv @ (w + o * star)), -(ginv @ (w - o * star))
    return {"horizontal": np.array([e1, e2]), "vertical": np.array([v1, j_plus @ v1]),
            "vertical_projector": p_vert, "horizontal_projector": p_hor,
            "j_plus": j_plus, "j_minus": j_minus}


@pytest.mark.parametrize("name", sorted(ORACLE_CHARTS))
def test_the_stacked_splitting_equals_the_written_out_splitting_bitwise(name):
    scenario = ORACLE_CHARTS[name]
    stack = geometry_stack(scenario, validation_points(scenario, 25, 5))
    regular = np.flatnonzero(stack.regular)
    assert regular.size
    for i in regular:
        for key, value in written_out_splitting(stack, i).items():
            assert bits(field(stack, i, key)) == bits(value), (key, stack.metric.point[i].tolist())


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
    stack = geometry_stack(scenario, [good[0], bad, good[1]])
    for read in ("vertical", "horizontal", "j_plus", "j_minus"):
        with pytest.raises(error) as stacked:
            field(stack, 1, read)
        with pytest.raises(error) as alone:
            field(geometry_stack(scenario, [bad]), 0, read)
        assert message in str(stacked.value)
        assert str(stacked.value) == str(alone.value)
    for i, m in zip((0, 2), good):
        alone = geometry_stack(scenario, [m])
        for key in ("horizontal", "vertical", "vertical_projector", "horizontal_projector",
                    "j_plus", "j_minus"):
            assert bits(field(stack, i, key)) == bits(field(alone, 0, key)), key


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
        geometry_stack(scenario, stack)
    with pytest.raises(error) as looped:
        for m in stack:
            geometry_stack(scenario, [m])
    assert str(stacked.value) == str(looped.value)
    assert message in str(stacked.value)
    assert str(np.array(first).tolist()) in str(stacked.value)


def test_a_metric_that_overflows_is_rejected_without_a_warning():
    # x2^200 overflows at x2 = 100: the metric is evaluated as silently as
    # Poly.eval evaluates it, and the finiteness check names the point;
    # any RuntimeWarning fails this test, as pyproject.toml makes it an error
    with pytest.raises(GeometryError) as info:
        geometry_stack(stepped_scenario(), [NOT_FINITE])
    assert str(info.value) == f"chart metric has non-finite entries at {NOT_FINITE}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("first, later", [(OUTSIDE, NOT_SPD), (OUTSIDE, NOT_FINITE),
                                           (NOT_SPD, OUTSIDE), (NOT_FINITE, NOT_SPD)])
def test_a_failing_stack_is_passed_once(monkeypatch, first, later):
    # every failing point keeps its failure in the column, and the stack is
    # not passed again: one differential for the stack
    scenario = stepped_scenario()
    sizes = []
    jacobian = scenario.jacobian
    monkeypatch.setattr(scenario, "jacobian",
                        lambda points: sizes.append(len(points)) or jacobian(points))
    with pytest.raises((DomainError, GeometryError)):
        geometry_stack(scenario, np.array([GOOD, GOOD, first, GOOD, later]))
    assert sizes == [5]


def test_a_stack_evaluates_the_metric_derivatives_once(metric_calls):
    # one first_derivatives pass over the stack, read from the base of the
    # pulled-back chart at the image points; the Einstein defects of its
    # geometries then need only the second derivatives, once at each point
    scenario = ORACLE_CHARTS["pullback_z1z2"]
    points = validation_points(scenario, 5, seed=2)
    stack = geometry_stack(scenario, points)
    stack.metric.gamma
    metric = scenario.metric
    images = [(metric.base, *y) for y in evaluate(metric.diffeo, points).real.tolist()]
    assert metric_calls["first_derivatives"] == images
    for log in metric_calls.values():
        log.clear()
    assert einstein_defect(stack.metric).shape == (5,)
    assert metric_calls == {"matrix": [], "first_derivatives": [],
                            "second_derivatives": images}


@pytest.mark.parametrize("name", ["pullback_z1z2", "product_sphere"])
def test_validation_cost_does_not_grow_with_the_points(monkeypatch, name):
    # one stacked pass: no polynomial is evaluated term by term, and the
    # conformality data are read from the Gram matrix dF g^-1 dF^T with no
    # eigendecomposition or SVD
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
        stack, _, _ = validate_morphism(scenario, validation_points(scenario, n, 1))
        stack.defect, stack.tension_norm
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert seen[1] == {"eval": 0, "svd": 0, "eigh": 0}
