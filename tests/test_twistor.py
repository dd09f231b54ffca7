"""Lift tests: fiber coordinates, residuals, curvature, vertical energy.

Expected values were frozen from independent computations: the reciprocal
graph lift data from the complex-analytic form of the surface, the vertical
energy against a finite-difference speed of the fiber-coordinate curve on
the unit sphere, and the curvature densities against the product metric's
known sectional curvatures.
"""

import re

import numpy as np
import pytest

import morphoscope.geometry as geometry
import morphoscope.twistor as tw
from morphoscope.calculus import holomorphic_scenario, pullback_scenario
from morphoscope.catalog import catalog_configs, catalog_patch, patch_grid
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import DegenerateFrameError, DomainError, GeometryError
from morphoscope.geometry import Box, CallableMetric, FlatMetric, ProductSphereMetric
from morphoscope.morphism import point_geometry
from morphoscope.polynomials import Poly
from morphoscope.structures import K_MINUS, K_PLUS, structure_from_fiber
from morphoscope.twistor import (LiftGeometry, SurfacePatch, curvature_densities,
                                 fiber_coordinates, script_J_residual,
                                 surface_lift, vertical_energy_density)

from test_morphism import pullback_diffeo


def flat_scenario(half=3.0):
    return holomorphic_scenario("flat", {(1, 0): 1.0}, FlatMetric(Box.cube(half)))


def plane_patch():
    return SurfacePatch(
        psi=lambda s, t: np.array([s, t, 0.0, 0.0]),
        param_box=Box((-1.0, -1.0), (1.0, 1.0)),
        jacobian=lambda s, t: np.array([[1.0, 0.0], [0.0, 1.0],
                                        [0.0, 0.0], [0.0, 0.0]]),
        name="plane")


def reciprocal_patch():
    def psi(s, t):
        w = 1.0 / complex(s, t)
        return np.array([s, t, w.real, w.imag])

    def jac(s, t):
        dw = -1.0 / complex(s, t) ** 2
        return np.array([[1.0, 0.0], [0.0, 1.0],
                         [dw.real, -dw.imag], [dw.imag, dw.real]])

    return SurfacePatch(psi=psi, param_box=Box((0.5, -0.8), (2.0, 0.8)),
                        jacobian=jac, name="reciprocal")


def catenoid_patch():
    def psi(u, v):
        return np.array([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), u, 0.0])

    def jac(u, v):
        return np.column_stack([
            [np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), 1.0, 0.0],
            [-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), 0.0, 0.0]])

    return SurfacePatch(psi=psi, param_box=Box((-0.6, -0.6), (0.6, 0.6)),
                        jacobian=jac, name="catenoid")


def bowl_patch():
    # graph of f(s, t) = (s^2 + t^2) / 2 over the first complex axis; the
    # minimal graph equation (1+f_t^2) f_ss - 2 f_s f_t f_st + (1+f_s^2) f_tt
    # evaluates to 2 + s^2 + t^2, so the surface is nowhere minimal
    def psi(s, t):
        return np.array([s, t, 0.5 * (s * s + t * t), 0.0])

    def jac(s, t):
        return np.array([[1.0, 0.0], [0.0, 1.0], [s, t], [0.0, 0.0]])

    return SurfacePatch(psi=psi, param_box=Box((-1.0, -1.0), (1.0, 1.0)),
                        jacobian=jac, name="bowl")


# ------------------------------------------------------- fiber coordinates


def test_fiber_round_trip_both_classes():
    metric = FlatMetric(Box.cube(2.0))
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        for tag in (1, -1):
            J = structure_from_fiber(u, tag)
            assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12
            v = fiber_coordinates(metric.matrix(np.zeros(4)), J, tag)
            assert np.max(np.abs(v - u)) < 1e-10


def test_fiber_anchor_and_class_rejection():
    metric = FlatMetric(Box.cube(2.0))
    u = fiber_coordinates(metric.matrix(np.zeros(4)), K_PLUS, 1)
    assert np.allclose(u, [0.0, 0.0, 1.0], atol=1e-14)
    with pytest.raises(GeometryError):
        fiber_coordinates(metric.matrix(np.zeros(4)), K_MINUS, 1)
    with pytest.raises(GeometryError):
        fiber_coordinates(metric.matrix(np.zeros(4)), np.eye(4), 1)


def test_fiber_rotation_in_second_factor_plane():
    # a rotation of the (x3, x4) plane turns the (u1, u2) components by the
    # same angle and leaves u3 alone, in both orientation classes
    metric = FlatMetric(Box.cube(2.0))
    rng = np.random.default_rng(3)
    theta = 0.4
    c, s = np.cos(theta), np.sin(theta)
    R = np.eye(4)
    R[2:, 2:] = [[c, -s], [s, c]]
    for _ in range(5):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        expected = np.array([c * u[0] - s * u[1], s * u[0] + c * u[1], u[2]])
        for tag in (1, -1):
            J = structure_from_fiber(u, tag)
            v = fiber_coordinates(metric.matrix(np.zeros(4)), R @ J @ R.T, tag)
            assert np.max(np.abs(v - expected)) < 1e-12


# ------------------------------------------------------------ lift geometry


def test_plane_lift_is_constant_standard_structure():
    sc = flat_scenario()
    patch = plane_patch()
    for p in [(0.3, -0.2), (-0.5, 0.1)]:
        geo = LiftGeometry(sc, patch, p, orientation=1)
        assert np.allclose(geo.J, K_PLUS, atol=1e-12)
        assert np.allclose(geo.fiber, [0.0, 0.0, 1.0], atol=1e-12)
        assert script_J_residual(geo) <= 1e-10
        assert vertical_energy_density(geo).value <= 1e-12
        omega_tangent, omega_normal = curvature_densities(geo)
        assert abs(omega_tangent) < 1e-12 and abs(omega_normal) < 1e-12


def test_lift_rotates_tangent_plane():
    sc = flat_scenario()
    for patch in (reciprocal_patch(), catenoid_patch()):
        p = (0.55, 0.2) if patch.name == "reciprocal" else (0.1, 0.2)
        for tag in (1, -1):
            geo = LiftGeometry(sc, patch, p, orientation=tag)
            assert np.max(np.abs(geo.J @ geo.t1 - geo.t2)) < 1e-12
            assert np.max(np.abs(geo.J @ geo.t2 + geo.t1)) < 1e-12
            assert geo.orientation == tag


def test_holomorphic_graph_positive_lift_constant():
    # a holomorphic graph is a complex curve, so its positive lift sits at
    # the standard structure and the residual is pure rounding noise
    sc = flat_scenario()
    patch = reciprocal_patch()
    for p in [(1.0, 0.0), (1.2, 0.3), (0.7, -0.5)]:
        geo = LiftGeometry(sc, patch, p, orientation=1)
        assert np.allclose(geo.fiber, [0.0, 0.0, 1.0], atol=1e-10)
        assert script_J_residual(geo) <= 1e-5
        assert vertical_energy_density(geo).value <= 1e-8


def test_holomorphic_graph_negative_lift_varies_but_is_holomorphic():
    # the opposite-class lift moves along the fiber, yet stays holomorphic
    # because the underlying surface is minimal
    sc = flat_scenario()
    patch = reciprocal_patch()
    at_one = LiftGeometry(sc, patch, (1.0, 0.0), orientation=-1)
    assert np.allclose(at_one.fiber, [0.0, -1.0, 0.0], atol=1e-10)
    away = LiftGeometry(sc, patch, (1.2, 0.3), orientation=-1)
    assert np.linalg.norm(away.fiber - at_one.fiber) > 0.5
    for p in [(1.0, 0.0), (1.2, 0.3)]:
        assert script_J_residual(LiftGeometry(sc, patch, p, orientation=-1)) <= 1e-5


def test_catenoid_pins_vertical_rotation_sign(monkeypatch):
    # the minimal catenoid has a genuinely varying lift, which makes the
    # residual sensitive to the fiber action sign; the shipped sign passes
    # and the flipped sign fails by many orders of magnitude
    sc = flat_scenario()
    patch = catenoid_patch()
    points = [(0.1, 0.2), (-0.3, 0.4), (0.25, -0.15)]
    for tag in (1, -1):
        for p in points:
            assert script_J_residual(LiftGeometry(sc, patch, p, orientation=tag)) <= 1e-5
    monkeypatch.setattr(tw, "VERTICAL_ROTATION_SIGN", -tw.VERTICAL_ROTATION_SIGN)
    for p in points:
        assert script_J_residual(LiftGeometry(sc, patch, p, orientation=1)) >= 1e-2


def test_nonminimal_graph_has_large_residual():
    sc = flat_scenario()
    patch = bowl_patch()
    for p in [(0.4, 0.1), (0.2, -0.3)]:
        for tag in (1, -1):
            assert script_J_residual(LiftGeometry(sc, patch, p, orientation=tag)) >= 1e-2


def test_antipody_under_parameter_swap():
    # swapping the surface parameters reverses the tangent orientation and
    # sends the lift to the antipodal fiber point
    sc = flat_scenario()
    patch = reciprocal_patch()

    def swapped(s, t):
        return patch.point((t, s))

    patch_swapped = SurfacePatch(psi=swapped,
                                 param_box=Box((-0.8, 0.5), (0.8, 2.0)),
                                 name="reciprocal-swapped")
    a = LiftGeometry(sc, patch, (1.1, 0.2), orientation=1)
    b = LiftGeometry(sc, patch_swapped, (0.2, 1.1), orientation=1)
    assert np.linalg.norm(a.fiber + b.fiber) < 1e-10


# ----------------------------------------------------- curvature densities


def test_curvature_densities_product_metric():
    box = Box((0.35, -3.0, -1.0, -1.0), (np.pi - 0.35, 3.0, 1.0, 1.0))
    sphere_patch = SurfacePatch(
        psi=lambda s, t: np.array([s, t, 0.1, -0.2]),
        param_box=Box((0.5, -0.5), (1.5, 0.5)), name="sphere-factor")
    flat_patch = SurfacePatch(
        psi=lambda s, t: np.array([np.pi / 3, 0.2, s, t]),
        param_box=Box((-0.5, -0.5), (0.5, 0.5)), name="flat-factor")
    for radius in (1.0, 2.0):
        sc = holomorphic_scenario(
            "ps", {(1, 0): 1.0}, ProductSphereMetric(radius, box))
        ot, on = curvature_densities(LiftGeometry(sc, sphere_patch, (np.pi / 3, 0.2)))
        assert abs(ot + 1.0 / radius ** 2) < 1e-9
        assert abs(on) < 1e-12
        ot2, on2 = curvature_densities(LiftGeometry(sc, flat_patch, (0.1, -0.2)))
        assert abs(ot2) < 1e-12 and abs(on2) < 1e-12


# -------------------------------------------------------- vertical energy


def test_vertical_energy_matches_fiber_speed_oracle():
    # independent oracle: the squared speed of the fiber-coordinate curve on
    # the unit sphere, differenced along the orthonormal tangent directions
    sc = flat_scenario()
    patch = reciprocal_patch()
    p0 = np.array([1.0, 0.0])
    geo = LiftGeometry(sc, patch, p0, orientation=-1)
    energy = vertical_energy_density(geo)
    assert abs(energy.value - 4.0) < 1e-6
    assert np.allclose(energy.gram, 2.0 * np.eye(2), atol=1e-6)
    assert abs(energy.area_element - 3.0) < 1e-6

    x1, x2 = geo.tangent_coordinates
    h = 1e-5
    oracle = 0.0
    for x in (x1, x2):
        up = LiftGeometry(sc, patch, p0 + h * x, orientation=-1).fiber
        dn = LiftGeometry(sc, patch, p0 - h * x, orientation=-1).fiber
        du = (up - dn) / (2 * h)
        oracle += float(du @ du)
    assert abs(energy.value - oracle) < 1e-3


def test_energy_and_residual_invariant_under_chart_isometry():
    base = holomorphic_scenario("w1w2", {(1, 1): 1.0},
                                FlatMetric(Box.cube(1.5)))
    diffeo = pullback_diffeo()
    pulled = pullback_scenario(base, diffeo, Box.cube(0.8), "w1w2_pulled")
    comps = [p.real_poly() for p in diffeo]

    def phi(y):
        return np.array([c.eval(y).real for c in comps])

    def dphi(y):
        return np.array([[c.diff(k).eval(y).real for k in range(4)]
                         for c in comps])

    def psi_new(s, t):
        return np.array([s, t, 0.1 * s * s - 0.05 * t, 0.2 * t * t + 0.1 * s])

    def dpsi_new(s, t):
        return np.array([[1.0, 0.0], [0.0, 1.0],
                         [0.2 * s, -0.05], [0.1, 0.4 * t]])

    pbox = Box((-0.4, -0.4), (0.4, 0.4))
    patch_new = SurfacePatch(psi=psi_new, param_box=pbox, jacobian=dpsi_new)
    patch_base = SurfacePatch(
        psi=lambda s, t: phi(psi_new(s, t)), param_box=pbox,
        jacobian=lambda s, t: dphi(psi_new(s, t)) @ dpsi_new(s, t))

    for p in [(0.1, 0.2), (-0.25, 0.05), (0.3, -0.3)]:
        for tag in (1, -1):
            geo_base = LiftGeometry(base, patch_base, p, orientation=tag)
            geo_new = LiftGeometry(pulled, patch_new, p, orientation=tag)
            e_base = vertical_energy_density(geo_base)
            e_new = vertical_energy_density(geo_new)
            assert abs(e_base.value - e_new.value) < 1e-4
            r_base = script_J_residual(geo_base)
            r_new = script_J_residual(geo_new)
            assert abs(r_base - r_new) < 1e-4


# ------------------------------------------------------------- guard rails


def test_rank_deficient_patch_rejected():
    sc = flat_scenario()
    patch = SurfacePatch(
        psi=lambda s, t: np.array([s, s, 0.0, 0.0]),
        param_box=Box((-1.0, -1.0), (1.0, 1.0)),
        jacobian=lambda s, t: np.array([[1.0, 1.0], [1.0, 1.0],
                                        [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateFrameError):
        surface_lift(sc, patch, (0.1, 0.1))


@pytest.mark.parametrize("bad", [np.full((4, 4), np.nan), np.diag([1.0, -1.0, 1.0, 1.0])],
                         ids=["non_finite", "indefinite"])
def test_rejected_chart_metric_names_the_point(bad):
    sc = holomorphic_scenario("probe", {(1, 0): 1.0},
                              CallableMetric(lambda m: bad, Box.cube(2.0)))
    named = re.escape(str([0.25, -0.5, 0.0, 0.0]))
    with pytest.raises(GeometryError, match=named):
        point_geometry(sc, np.array([0.25, -0.5, 0.0, 0.0]))
    with pytest.raises(GeometryError, match=named):
        LiftGeometry(sc, plane_patch(), (0.25, -0.5))


def test_parameter_box_guard():
    patch = plane_patch()
    with pytest.raises(DomainError):
        patch.point((1.5, 0.0))


def test_finite_difference_jacobian_agrees_with_exact():
    patch = reciprocal_patch()
    fd_patch = SurfacePatch(psi=patch.psi, param_box=patch.param_box)
    p = (0.9, 0.25)
    assert np.max(np.abs(patch.dpsi(p) - fd_patch.dpsi(p))) < 1e-9


# ------------------------------------------------------------- call budget


CALL_BUDGET = {"_lift_frames": 9, "surface_lift": 8, "dpsi": 9}
# chart-metric evaluations per parameter point: the matrix at psi(p) and at
# the 8 node lifts, the derivatives at psi(p) alone
METRIC_BUDGET = {"matrix": 9, "first_derivatives": 1, "second_derivatives": 1}


def count_lift_calls(monkeypatch) -> dict:
    """Count the lift layer's calls; returns a dict that the calls update."""
    counts = dict.fromkeys(CALL_BUDGET, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_lift_frames", "surface_lift"):
        monkeypatch.setattr(tw, name, counted(name, getattr(tw, name)))
    monkeypatch.setattr(SurfacePatch, "dpsi", counted("dpsi", SurfacePatch.dpsi))
    return counts


@pytest.mark.parametrize("patch_name", ["catenoid", "sphere_factor"])
def test_lift_geometry_call_budget(monkeypatch, metric_calls, patch_name):
    # one geometry per parameter point: the point's frames, the 8 node lifts
    # of the two vertical stencils, and one metric point at each of the 9
    # chart points, whose Christoffel symbols and curvature only psi(p) reads
    spec = catalog_patch(patch_name)
    sc = build_scenario(ScenarioConfig.from_dict(
        catalog_configs()[spec["scenario"]]))
    counts = count_lift_calls(monkeypatch)
    for p in patch_grid(spec["patch"]):
        counts.update(dict.fromkeys(counts, 0))
        for log in metric_calls.values():
            log.clear()
        geo = LiftGeometry(sc, spec["patch"], p, orientation=spec["orientation"])
        energy = vertical_energy_density(geo)
        residual = script_J_residual(geo)
        omegas = curvature_densities(geo)
        assert all(1 <= counts[k] <= CALL_BUDGET[k] for k in counts), counts
        evaluations = {k: len(log) for k, log in metric_calls.items()}
        assert all(1 <= evaluations[k] <= METRIC_BUDGET[k] for k in evaluations), evaluations
        # the cache changes no number: the residual read after the energy
        # equals, bit for bit, each quantity read off a fresh geometry
        def fresh():
            return LiftGeometry(sc, spec["patch"], p, orientation=spec["orientation"])

        assert script_J_residual(fresh()) == residual
        alone = vertical_energy_density(fresh())
        assert (alone.value, alone.area_element) == (energy.value, energy.area_element)
        assert np.array_equal(alone.gram, energy.gram)
        assert curvature_densities(fresh()) == omegas


def count_orthonormalize(monkeypatch) -> list:
    """Count orthonormalize calls through every module that binds it."""
    calls = []
    original = geometry.orthonormalize

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (geometry, tw):
        monkeypatch.setattr(module, "orthonormalize", counted)
    return calls


@pytest.mark.parametrize("patch_name", ["catenoid", "sphere_factor"])
def test_only_the_record_reads_fiber_coordinates(monkeypatch, patch_name):
    # per parameter point: the adapted frames at psi(p) and at the 8 node
    # lifts, and one deterministic frame for the fiber coordinates the
    # record reads at p; the node lifts are checked but never read for them
    spec = catalog_patch(patch_name)
    sc = build_scenario(ScenarioConfig.from_dict(catalog_configs()[spec["scenario"]]))
    calls = count_orthonormalize(monkeypatch)
    checks = []
    check = tw._check_structure

    def counted_check(g, J):
        checks.append(1)
        return check(g, J)

    monkeypatch.setattr(tw, "_check_structure", counted_check)
    for p in patch_grid(spec["patch"])[:3]:
        calls.clear()
        checks.clear()
        geo = LiftGeometry(sc, spec["patch"], p, orientation=spec["orientation"])
        vertical_energy_density(geo)
        script_J_residual(geo)
        curvature_densities(geo)
        geo.fiber
        assert len(calls) == 10
        # J squared and the metric are checked at psi(p), at the 8 nodes,
        # and again where the fiber coordinates are read
        assert len(checks) == 10


def test_a_node_lift_that_breaks_the_metric_is_rejected(monkeypatch):
    # the structure checks run on every lift, not only where the fiber
    # coordinates are read
    spec = catalog_patch("catenoid")
    sc = build_scenario(ScenarioConfig.from_dict(catalog_configs()[spec["scenario"]]))
    p = patch_grid(spec["patch"])[0]
    geo = LiftGeometry(sc, spec["patch"], p, orientation=spec["orientation"])
    frames = tw._lift_frames

    def skewed(scenario, patch, q):
        mp, d, t1, t2, n1, n2 = frames(scenario, patch, q)
        return mp, d, t1, t2, n1, 2.0 * n2

    monkeypatch.setattr(tw, "_lift_frames", skewed)
    with pytest.raises(GeometryError, match="does not preserve the metric"):
        geo.vertical
