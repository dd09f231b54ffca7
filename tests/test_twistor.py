"""Lift tests: fiber coordinates, residuals, curvature, vertical energy.

Expected values were frozen from independent computations: the reciprocal
graph lift data from the complex-analytic form of the surface, the vertical
energy against a finite-difference speed of the fiber-coordinate curve on
the unit sphere, and the curvature densities against the product metric's
known sectional curvatures.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

import morphoscope.geometry as geometry
import morphoscope.twistor as tw
from morphoscope.calculus import holomorphic_scenario, pullback_scenario
from morphoscope.catalog import CATALOG_PATCHES, catalog_configs, catalog_patch, patch_grid
from morphoscope.cli import main
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import DegenerateFrameError, DomainError, GeometryError
from morphoscope.geometry import Box, ChartMetric, FlatMetric, ProductSphereMetric
from morphoscope.morphism import geometry_stack
from morphoscope.polynomials import Poly
from morphoscope.structures import (STRUCTURES_MINUS, STRUCTURES_PLUS, fiber_from_structure,
                                    structure_from_fiber)
from morphoscope.twistor import (SurfacePatch, curvature_densities, fiber_coordinates,
                                 lift_stack, script_J_residual, surface_lift,
                                 vertical_energy_density)

from conftest import METRIC_EVALUATIONS, metric_classes
from test_geometry import constant_metric
from test_morphism import pullback_diffeo
from test_symbol import count_calls


def fiber_of(g, J, orientation):
    """fiber_coordinates of the stack of one structure."""
    return fiber_coordinates(g[None], J[None], orientation)[0]


def flat_scenario(half=3.0):
    return holomorphic_scenario("flat", {(1, 0): 1.0}, FlatMetric(Box.cube(half)))


def flat_hessian(s, t):
    return np.zeros((4, 2, 2))


def plane_patch():
    return SurfacePatch(
        psi=lambda s, t: np.array([s, t, 0.0, 0.0]),
        param_box=Box((-1.0, -1.0), (1.0, 1.0)),
        jacobian=lambda s, t: np.array([[1.0, 0.0], [0.0, 1.0],
                                        [0.0, 0.0], [0.0, 0.0]]),
        hessian=flat_hessian, name="plane")


def reciprocal_patch():
    def psi(s, t):
        w = 1.0 / complex(s, t)
        return np.array([s, t, w.real, w.imag])

    def jac(s, t):
        dw = -1.0 / complex(s, t) ** 2
        return np.array([[1.0, 0.0], [0.0, 1.0],
                         [dw.real, -dw.imag], [dw.imag, dw.real]])

    def hessian(s, t):
        d2w = 2.0 / complex(s, t) ** 3
        return np.array([np.zeros((2, 2)), np.zeros((2, 2)),
                         [[d2w.real, -d2w.imag], [-d2w.imag, -d2w.real]],
                         [[d2w.imag, d2w.real], [d2w.real, -d2w.imag]]])

    return SurfacePatch(psi=psi, param_box=Box((0.5, -0.8), (2.0, 0.8)),
                        jacobian=jac, hessian=hessian, name="reciprocal")


def catenoid_patch():
    def psi(u, v):
        return np.array([np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), u, 0.0])

    def jac(u, v):
        return np.column_stack([
            [np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), 1.0, 0.0],
            [-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), 0.0, 0.0]])

    def hessian(u, v):
        cc, cs = np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v)
        sc, ss = np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v)
        return np.array([[[cc, -ss], [-ss, -cc]], [[cs, sc], [sc, -cs]],
                         np.zeros((2, 2)), np.zeros((2, 2))])

    return SurfacePatch(psi=psi, param_box=Box((-0.6, -0.6), (0.6, 0.6)),
                        jacobian=jac, hessian=hessian, name="catenoid")


def bowl_patch():
    # graph of f(s, t) = (s^2 + t^2) / 2 over the first complex axis; the
    # minimal graph equation (1+f_t^2) f_ss - 2 f_s f_t f_st + (1+f_s^2) f_tt
    # evaluates to 2 + s^2 + t^2, so the surface is nowhere minimal
    def psi(s, t):
        return np.array([s, t, 0.5 * (s * s + t * t), 0.0])

    def jac(s, t):
        return np.array([[1.0, 0.0], [0.0, 1.0], [s, t], [0.0, 0.0]])

    def hessian(s, t):
        return np.array([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))])

    return SurfacePatch(psi=psi, param_box=Box((-1.0, -1.0), (1.0, 1.0)),
                        jacobian=jac, hessian=hessian, name="bowl")


def quadratic_patch():
    """A quadratic graph over the first complex axis, curved in both normal
    directions."""
    def psi(s, t):
        return np.array([s, t, 0.1 * s * s - 0.05 * t, 0.2 * t * t + 0.1 * s])

    def jac(s, t):
        return np.array([[1.0, 0.0], [0.0, 1.0],
                         [0.2 * s, -0.05], [0.1, 0.4 * t]])

    def hessian(s, t):
        return np.array([np.zeros((2, 2)), np.zeros((2, 2)),
                         np.diag([0.2, 0.0]), np.diag([0.0, 0.4])])

    return SurfacePatch(psi=psi, param_box=Box((-0.4, -0.4), (0.4, 0.4)),
                        jacobian=jac, hessian=hessian, name="quadratic")


def pulled_back_patch(patch, components):
    """Phi o psi for the polynomial map Phi with the given components, its
    Jacobian and Hessian by the chain rule."""
    d1 = [[c.diff(k) for k in range(4)] for c in components]
    d2 = [[[p.diff(l) for l in range(4)] for p in row] for row in d1]

    def phi(y):
        return np.array([c.eval(y).real for c in components])

    def dphi(y):
        return np.array([[p.eval(y).real for p in row] for row in d1])

    def d2phi(y):
        return np.array([[[p.eval(y).real for p in col] for col in row] for row in d2])

    def jac(s, t):
        return dphi(patch.psi(s, t)) @ patch.jacobian(s, t)

    def hessian(s, t):
        y, dy = patch.psi(s, t), patch.jacobian(s, t)
        return (np.einsum("ikl,ka,lb->iab", d2phi(y), dy, dy)
                + np.einsum("ik,kab->iab", dphi(y), patch.hessian(s, t)))

    return SurfacePatch(psi=lambda s, t: phi(patch.psi(s, t)), param_box=patch.param_box,
                        jacobian=jac, hessian=hessian, name=f"{patch.name}-pulled-back")


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
            v = fiber_of(metric.matrix(np.zeros(4)), J, tag)
            assert np.max(np.abs(v - u)) < 1e-10


def test_fiber_anchor_and_class_rejection():
    metric = FlatMetric(Box.cube(2.0))
    u = fiber_of(metric.matrix(np.zeros(4)), STRUCTURES_PLUS[2], 1)
    assert np.allclose(u, [0.0, 0.0, 1.0], atol=1e-14)
    with pytest.raises(GeometryError):
        fiber_of(metric.matrix(np.zeros(4)), STRUCTURES_MINUS[2], 1)
    with pytest.raises(GeometryError):
        fiber_of(metric.matrix(np.zeros(4)), np.eye(4), 1)


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
            v = fiber_of(metric.matrix(np.zeros(4)), R @ J @ R.T, tag)
            assert np.max(np.abs(v - expected)) < 1e-12


# ------------------------------------------------------------- lift stacks


def test_plane_lift_is_constant_standard_structure():
    sc = flat_scenario()
    stack = lift_stack(sc, plane_patch(), [(0.3, -0.2), (-0.5, 0.1)], orientation=1)
    assert np.allclose(stack.J, STRUCTURES_PLUS[2], atol=1e-12)
    assert np.allclose(stack.fiber, [0.0, 0.0, 1.0], atol=1e-12)
    assert np.all(script_J_residual(stack) <= 1e-10)
    assert np.all(vertical_energy_density(stack).value <= 1e-12)
    omega_tangent, omega_normal = curvature_densities(stack)
    assert np.all(np.abs(omega_tangent) < 1e-12) and np.all(np.abs(omega_normal) < 1e-12)


def test_lift_rotates_tangent_plane():
    sc = flat_scenario()
    for patch in (reciprocal_patch(), catenoid_patch()):
        p = (0.55, 0.2) if patch.name == "reciprocal" else (0.1, 0.2)
        for tag in (1, -1):
            stack = lift_stack(sc, patch, [p], orientation=tag)
            (J,), ((t1, t2),) = stack.J, stack.tangent
            assert np.max(np.abs(J @ t1 - t2)) < 1e-12
            assert np.max(np.abs(J @ t2 + t1)) < 1e-12
            assert stack.sign == tag * sc.orientation


def test_holomorphic_graph_positive_lift_constant():
    # a holomorphic graph is a complex curve, so its positive lift sits at
    # the standard structure and the residual is pure rounding noise
    sc = flat_scenario()
    stack = lift_stack(sc, reciprocal_patch(), [(1.0, 0.0), (1.2, 0.3), (0.7, -0.5)],
                       orientation=1)
    assert np.allclose(stack.fiber, [0.0, 0.0, 1.0], atol=1e-10)
    assert np.all(script_J_residual(stack) <= 1e-5)
    assert np.all(vertical_energy_density(stack).value <= 1e-8)


def test_holomorphic_graph_negative_lift_varies_but_is_holomorphic():
    # the opposite-class lift moves along the fiber, yet stays holomorphic
    # because the underlying surface is minimal
    sc = flat_scenario()
    stack = lift_stack(sc, reciprocal_patch(), [(1.0, 0.0), (1.2, 0.3)], orientation=-1)
    at_one, away = stack.fiber
    assert np.allclose(at_one, [0.0, -1.0, 0.0], atol=1e-10)
    assert np.linalg.norm(away - at_one) > 0.5
    assert np.all(script_J_residual(stack) <= 1e-5)


def test_catenoid_pins_vertical_rotation_sign(monkeypatch):
    # the minimal catenoid has a genuinely varying lift, which makes the
    # residual sensitive to the fiber action sign; the shipped sign passes
    # and the flipped sign fails by many orders of magnitude
    sc = flat_scenario()
    patch = catenoid_patch()
    points = [(0.1, 0.2), (-0.3, 0.4), (0.25, -0.15)]
    for tag in (1, -1):
        assert np.all(script_J_residual(lift_stack(sc, patch, points, orientation=tag)) <= 1e-5)
    monkeypatch.setattr(tw, "VERTICAL_ROTATION_SIGN", -tw.VERTICAL_ROTATION_SIGN)
    assert np.all(script_J_residual(lift_stack(sc, patch, points, orientation=1)) >= 1e-2)


def test_nonminimal_graph_has_large_residual():
    sc = flat_scenario()
    for tag in (1, -1):
        stack = lift_stack(sc, bowl_patch(), [(0.4, 0.1), (0.2, -0.3)], orientation=tag)
        assert np.all(script_J_residual(stack) >= 1e-2)


def test_antipody_under_parameter_swap():
    # swapping the surface parameters reverses the tangent orientation and
    # sends the lift to the antipodal fiber point
    sc = flat_scenario()
    patch = reciprocal_patch()

    def swapped(s, t):
        return patch.point((t, s))

    patch_swapped = SurfacePatch(psi=swapped,
                                 param_box=Box((-0.8, 0.5), (0.8, 2.0)),
                                 jacobian=lambda s, t: patch.dpsi((t, s))[:, ::-1],
                                 hessian=lambda s, t: patch.d2psi((t, s))[:, ::-1, ::-1],
                                 name="reciprocal-swapped")
    a = lift_stack(sc, patch, [(1.1, 0.2)], orientation=1).fiber
    b = lift_stack(sc, patch_swapped, [(0.2, 1.1)], orientation=1).fiber
    assert np.linalg.norm(a + b) < 1e-10


# ----------------------------------------------------- curvature densities


def test_curvature_densities_product_metric():
    box = Box((0.35, -3.0, -1.0, -1.0), (np.pi - 0.35, 3.0, 1.0, 1.0))
    sphere_patch = SurfacePatch(
        psi=lambda s, t: np.array([s, t, 0.1, -0.2]),
        param_box=Box((0.5, -0.5), (1.5, 0.5)),
        jacobian=lambda s, t: np.eye(4, 2), hessian=flat_hessian, name="sphere-factor")
    flat_patch = SurfacePatch(
        psi=lambda s, t: np.array([np.pi / 3, 0.2, s, t]),
        param_box=Box((-0.5, -0.5), (0.5, 0.5)),
        jacobian=lambda s, t: np.eye(4, 2, -2), hessian=flat_hessian, name="flat-factor")
    for radius in (1.0, 2.0):
        sc = holomorphic_scenario(
            "ps", {(1, 0): 1.0}, ProductSphereMetric(radius, box))
        ot, on = curvature_densities(lift_stack(sc, sphere_patch, [(np.pi / 3, 0.2)]))
        assert abs(ot[0] + 1.0 / radius ** 2) < 1e-9
        assert abs(on[0]) < 1e-12
        ot2, on2 = curvature_densities(lift_stack(sc, flat_patch, [(0.1, -0.2)]))
        assert abs(ot2[0]) < 1e-12 and abs(on2[0]) < 1e-12


def tilted_patch():
    """A patch on the product sphere chart that mixes the sphere and flat
    factors, so its normal curvature density is far from zero."""
    def psi(s, t):
        return np.array([1.0 + s + 0.2 * t * t, 0.2 + 0.5 * t, 0.3 * s, t - 0.1 * s * s])

    def jac(s, t):
        return np.array([[1.0, 0.4 * t], [0.0, 0.5], [0.3, 0.0], [-0.2 * s, 1.0]])

    def hessian(s, t):
        return np.array([np.diag([0.0, 0.4]), np.zeros((2, 2)), np.zeros((2, 2)),
                         np.diag([-0.2, 0.0])])

    return SurfacePatch(psi=psi, param_box=Box((-0.3, -0.3), (0.3, 0.3)), jacobian=jac,
                        hessian=hessian, name="tilted")


@pytest.mark.parametrize("tag", [1, -1])
@pytest.mark.parametrize("chart_orientation", [1, -1])
def test_normal_density_follows_the_oriented_normal_frame(chart_orientation, tag):
    # against the Gram-Schmidt frame of the point alone, whose normal n2 is
    # flipped to the chart orientation: the curvature pairings over it, its
    # least-squares tangent coordinates and the fiber over the frame of the
    # coordinate axes
    config = dict(catalog_configs()["product_sphere"], orientation=chart_orientation)
    sc = build_scenario(ScenarioConfig.from_dict(config))
    patch = tilted_patch()
    grid = [np.array([s, t]) for s in (-0.3, 0.0, 0.3) for t in (-0.3, 0.0, 0.3)]
    stack = lift_stack(sc, patch, grid, orientation=tag)
    omega_t, omega_n = curvature_densities(stack)
    assert np.min(np.abs(omega_n)) > 0.05
    for i, p in enumerate(grid):
        alone = OracleLift(sc, patch, p, orientation=tag)
        expected_t, expected_n = alone.curvature_densities(sc.metric)
        assert close(omega_t[i], expected_t, 1e-14)
        assert close(omega_n[i], expected_n, 1e-14)
        assert close(stack.tangent_coordinates[i], alone.tangent_coordinates, 1e-14)
        assert close(stack.fiber[i], alone.fiber(stack.sign), 1e-14)


# -------------------------------------------------------- vertical energy


def test_vertical_energy_matches_fiber_speed_oracle():
    # independent oracle: the squared speed of the fiber-coordinate curve on
    # the unit sphere, differenced along the orthonormal tangent directions
    sc = flat_scenario()
    patch = reciprocal_patch()
    p0 = np.array([1.0, 0.0])
    stack = lift_stack(sc, patch, [p0], orientation=-1)
    energy = vertical_energy_density(stack)
    assert abs(energy.value[0] - 4.0) < 1e-6
    assert np.allclose(energy.gram[0], 2.0 * np.eye(2), atol=1e-6)
    assert abs(energy.area_element[0] - 3.0) < 1e-6

    h = 1e-5
    oracle = 0.0
    for x in stack.tangent_coordinates[0]:
        up, dn = lift_stack(sc, patch, [p0 + h * x, p0 - h * x], orientation=-1).fiber
        du = (up - dn) / (2 * h)
        oracle += float(du @ du)
    assert abs(energy.value[0] - oracle) < 1e-3


def test_energy_and_residual_invariant_under_chart_isometry():
    base = holomorphic_scenario("w1w2", {(1, 1): 1.0},
                                FlatMetric(Box.cube(1.5)))
    diffeo = pullback_diffeo()
    pulled = pullback_scenario(base, diffeo, Box.cube(0.8), "w1w2_pulled")
    patch_new = quadratic_patch()
    patch_base = pulled_back_patch(patch_new, [p.real_poly() for p in diffeo])

    points = [(0.1, 0.2), (-0.25, 0.05), (0.3, -0.3)]
    for tag in (1, -1):
        stack_base = lift_stack(base, patch_base, points, orientation=tag)
        stack_new = lift_stack(pulled, patch_new, points, orientation=tag)
        e_base = vertical_energy_density(stack_base)
        e_new = vertical_energy_density(stack_new)
        assert np.max(np.abs(e_base.value - e_new.value)) < 1e-4
        r_base = script_J_residual(stack_base)
        r_new = script_J_residual(stack_new)
        assert np.max(np.abs(r_base - r_new)) < 1e-4


# ------------------------------------------------------------- guard rails


def test_rank_deficient_patch_rejected():
    sc = flat_scenario()
    patch = SurfacePatch(
        psi=lambda s, t: np.array([s, s, 0.0, 0.0]),
        param_box=Box((-1.0, -1.0), (1.0, 1.0)),
        jacobian=lambda s, t: np.array([[1.0, 1.0], [1.0, 1.0],
                                        [0.0, 0.0], [0.0, 0.0]]),
        hessian=flat_hessian)
    with pytest.raises(DegenerateFrameError):
        surface_lift(sc, patch, (0.1, 0.1))


@pytest.mark.parametrize("bad", [np.full((4, 4), np.nan), np.diag([1.0, -1.0, 1.0, 1.0])],
                         ids=["non_finite", "indefinite"])
def test_rejected_chart_metric_names_the_point(bad):
    sc = holomorphic_scenario("probe", {(1, 0): 1.0},
                              constant_metric(bad, Box.cube(2.0)))
    named = re.escape(str([0.25, -0.5, 0.0, 0.0]))
    with pytest.raises(GeometryError, match=named):
        geometry_stack(sc, [[0.25, -0.5, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=named):
        lift_stack(sc, plane_patch(), [(0.25, -0.5)])


def test_parameter_box_guard():
    patch = plane_patch()
    with pytest.raises(DomainError):
        patch.point((1.5, 0.0))


def test_finite_difference_jacobian_agrees_with_exact():
    # every patch carries a hand-written Jacobian, which must be the
    # derivative of its psi: a Richardson difference of psi agrees with it
    # at each point of the catalog patches' grids and on the reciprocal patch
    h = 1e-5
    cases = [(patch, patch_grid(patch))
             for patch in (catalog_patch(name)["patch"] for name in sorted(CATALOG_PATCHES))]
    cases.append((reciprocal_patch(), [(0.9, 0.25)]))
    for patch, points in cases:
        for p in points:
            fd = np.column_stack([
                geometry.central_difference(
                    [patch.point(q) for q in geometry.central_nodes(p, e, h)], h)
                for e in np.eye(2)])
            assert np.max(np.abs(patch.dpsi(p) - fd)) < 1e-9, patch.name


def hessian_cases():
    """(patch, parameter points): the catalog patches at their grid points,
    and the test patches, pulled-back ones included, at a few points."""
    cases = [(patch, patch_grid(patch))
             for patch in (catalog_patch(name)["patch"] for name in sorted(CATALOG_PATCHES))]
    points = [(0.1, 0.2), (-0.25, 0.05), (0.3, -0.3)]
    x = [Poly.variable(k) for k in range(4)]
    shift = [x[0] + 0.1 * x[1] * x[1], x[1], x[2], x[3] + 0.1 * x[0] * x[2]]
    cases += [(reciprocal_patch(), [(0.9, 0.25), (1.2, -0.4)]), (catenoid_patch(), points),
              (bowl_patch(), points), (quadratic_patch(), points),
              (pulled_back_patch(quadratic_patch(), [p.real_poly() for p in pullback_diffeo()]),
               points),
              (pulled_back_patch(quadratic_patch(), shift), points)]
    return cases


def test_patch_hessians_agree_with_differences_of_the_jacobian():
    # every patch carries a hand-written Hessian, which must be the
    # derivative of its Jacobian: a Richardson difference of the Jacobian
    # agrees with it at every point, and it is symmetric in its last two axes
    h = 1e-5
    for patch, points in hessian_cases():
        for p in points:
            fd = np.stack([
                geometry.central_difference(
                    [patch.dpsi(q) for q in geometry.central_nodes(p, e, h)], h)
                for e in np.eye(2)], axis=-1)
            hessian = patch.d2psi(p)
            assert hessian.shape == (4, 2, 2)
            assert np.array_equal(hessian, hessian.swapaxes(-1, -2)), patch.name
            assert np.max(np.abs(hessian - fd)) < 1e-9, patch.name


# ------------------------------------------------------- stacked lifts


class OracleLift:
    """The steps of a lift at one parameter point, written out point by
    point: the patch, its rank test and Hessian, the metric, the adapted
    frame by the scalar Gram-Schmidt, its orientation, and the frame-built
    lift B K B^{-1}, which the closed-form lift equals to rounding."""

    def __init__(self, scenario, patch, p, orientation=1):
        m = patch.point(p)
        d = patch.dpsi(p)
        sv = np.linalg.svd(d, compute_uv=False)
        if sv[-1] <= tw.PATCH_RANK_TOL:
            raise DegenerateFrameError(
                f"patch differential is rank deficient at {np.asarray(p).tolist()}")
        patch.d2psi(p)
        mp = geometry.metric_point(scenario.metric, m)
        with geometry.named_at(mp.point):
            frame = geometry.orthonormalize(mp.g, [d[:, 0], d[:, 1]], complete=True)
            (sign,), (failure,) = geometry.frame_orientations(frame[None])
            if failure is not None:
                raise DegenerateFrameError(failure)
            if sign * scenario.orientation < 0:
                frame[3] = -frame[3]
        self.m, self.g, self.d, self.frame = m, mp.g, d, frame
        B = frame.T
        K = STRUCTURES_PLUS[2] if orientation == 1 else STRUCTURES_MINUS[2]
        self.J = B @ K @ np.linalg.inv(B)
        tw._check_structure(mp.g, self.J)

    @property
    def tangent_coordinates(self):
        """Rows x1, x2 with d x_a = t_a, by least squares."""
        return np.array([np.linalg.lstsq(self.d, t, rcond=None)[0] for t in self.frame[:2]])

    def curvature_densities(self, metric):
        """<R(t1, t2) t1, t2> and <R(t1, t2) n1, n2> over the frame."""
        R = geometry.metric_point(metric, self.m).lowered
        t1, t2, n1, n2 = self.frame
        pairing = "ijkp,i,j,k,p->"
        return np.einsum(pairing, R, t1, t2, t1, t2), np.einsum(pairing, R, t1, t2, n1, n2)

    def fiber(self, orientation):
        """The unit fiber coordinates of J over the Gram-Schmidt frame of
        the coordinate axes."""
        B = geometry.orthonormalize(self.g, [], complete=True).T
        u = fiber_from_structure(np.linalg.solve(B, self.J @ B), orientation)
        return u / np.linalg.norm(u)


def read_all(stack) -> dict:
    """Every column the lift layer hands on, one row per parameter point."""
    energy = vertical_energy_density(stack)
    omega_t, omega_n = curvature_densities(stack)
    return {"J": stack.J, "jet": stack.jet, "tangent_pair": stack.tangent,
            "tangent": stack.tangent_coordinates, "vertical": stack.vertical,
            "residual": script_J_residual(stack), "energy": energy.value,
            "gram": energy.gram, "area": energy.area_element,
            "omega_t": omega_t, "omega_n": omega_n, "fiber": stack.fiber}


def rows(columns: dict) -> list:
    """The columns of read_all, split into one dict per row."""
    return [{key: column[i] for key, column in columns.items()}
            for i in range(len(columns["J"]))]


def assert_bitwise_equal(a: dict, b: dict):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key
        assert np.asarray(a[key]).tobytes() == np.asarray(b[key]).tobytes(), key


def catalog_lift_cases():
    cases = [(spec["scenario"], name) for name, spec in sorted(CATALOG_PATCHES.items())]
    return cases + [("pullback_z1z2", "plane")]


def build_catalog(name):
    return build_scenario(ScenarioConfig.from_dict(catalog_configs()[name]))


def close(got, expected, tol):
    return np.max(np.abs(got - expected)) <= tol * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("tag", [1, -1])
@pytest.mark.parametrize("scenario_name,patch_name", catalog_lift_cases())
def test_stacked_lifts_equal_the_point_by_point_lifts(scenario_name, patch_name, tag):
    # the stack of a grid gives, to rounding, the tangent pair of the scalar
    # Gram-Schmidt at each point, its frame-built lift and the least-squares
    # tangent coordinates; surface_lift is its row
    sc = build_catalog(scenario_name)
    patch = catalog_patch(patch_name)["patch"]
    grid = patch_grid(patch)
    stack = lift_stack(sc, patch, grid, orientation=tag)
    for i, p in enumerate(grid):
        alone = OracleLift(sc, patch, p, orientation=tag)
        assert close(stack.tangent[i], alone.frame[:2], 1e-14)
        assert close(stack.J[i], alone.J, 1e-14)
        assert close(stack.tangent_coordinates[i], alone.tangent_coordinates, 1e-14)
        assert np.array_equal(surface_lift(sc, patch, p, tag), stack.J[i])


@pytest.mark.parametrize("tag", [1, -1])
@pytest.mark.parametrize("scenario_name,patch_name", catalog_lift_cases())
def test_every_column_of_a_stack_equals_its_stack_of_one(scenario_name, patch_name, tag):
    # each row of every column of a grid's stack equals, bit for bit, the
    # same column of the stack of its point alone
    sc = build_catalog(scenario_name)
    patch = catalog_patch(patch_name)["patch"]
    grid = patch_grid(patch)
    stacked = rows(read_all(lift_stack(sc, patch, grid, orientation=tag)))
    assert len(stacked) == GRID_POINTS
    for p, got in zip(grid, stacked):
        [alone] = rows(read_all(lift_stack(sc, patch, [p], orientation=tag)))
        assert_bitwise_equal(got, alone)


def test_a_lift_stack_checks_the_patch_box_once(monkeypatch):
    # the parameters are checked, or clipped, once for the stack, and the
    # patch is read at them with no box test of its own
    sc = build_catalog("proj")
    patch = catalog_patch("catenoid")["patch"]
    grid = patch_grid(patch)
    boxes = []
    contains = Box.contains
    monkeypatch.setattr(Box, "contains", lambda box, m: boxes.append(box) or contains(box, m))
    lift_stack(sc, patch, grid, orientation=-1)
    assert len(grid) == GRID_POINTS
    assert sum(box is patch.param_box for box in boxes) == 1


@pytest.mark.parametrize("scale", [1e-24, 1e24])
def test_stacked_frame_rank_rule_does_not_depend_on_the_metric_scale(scale):
    # the second Cholesky pivot of the induced metric is measured against
    # the g-norm of d e2, so a metric of any scale factors the induced
    # metrics into the tangent pairs the point-by-point Gram-Schmidt gives,
    # and rejects the same numerically degenerate row
    sc = holomorphic_scenario("scaled", {(1, 0): 1.0},
                              constant_metric(scale * np.eye(4), Box.cube(3.0)))
    patch = catenoid_patch()
    grid = patch_grid(patch)
    stack = lift_stack(sc, patch, grid, orientation=-1)
    for i, p in enumerate(grid):
        alone = OracleLift(sc, patch, p, orientation=-1)
        assert close(stack.J[i], alone.J, 1e-14)
        assert np.array_equal(stack.J[i], surface_lift(sc, patch, p, -1))
        assert close(stack.tangent[i], alone.frame[:2], 1e-14)
        assert close(stack.tangent_coordinates[i], alone.tangent_coordinates, 1e-14)
    plane = sheared_plane(at=(0.0, 0.0))
    assert raised(lift_stack, sc, plane, [(0.5, 0.5), (0.0, 0.0), (-0.5, 0.5)]) == (
        DegenerateFrameError, "induced metric is numerically degenerate at [0.0, 0.0, 0.0, 0.0]")


def raised(fn, *args, **kwargs):
    """(type, message) of what fn raises."""
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def read_stack(scenario, patch, params, orientation=1) -> list:
    """The rows of every column of the stack of the params."""
    return rows(read_all(lift_stack(scenario, patch, params, orientation)))


def oracle_loop(scenario, patch, params, orientation=1) -> list:
    """A loop over the points: the point-by-point steps, then the stack of
    the point alone, read."""
    out = []
    for p in params:
        OracleLift(scenario, patch, p, orientation)
        out += read_stack(scenario, patch, [p], orientation)
    return out


def flat_plane(rank_deficient_beyond=np.inf):
    """The plane patch over [-1, 1]^2, its differential of rank one where
    s exceeds the given bound."""
    def jac(s, t):
        return np.array([[1.0, 0.0], [0.0, float(s <= rank_deficient_beyond)],
                         [0.0, 0.0], [0.0, 0.0]])

    return SurfacePatch(psi=lambda s, t: np.array([s, t, 0.0, 0.0]),
                        param_box=Box((-1.0, -1.0), (1.0, 1.0)), jacobian=jac,
                        hessian=flat_hessian)


def sheared_plane(at, rank_deficient_at=None):
    """The plane patch over [-1, 1]^2. At the parameter point `at` its
    differential has columns 2^30 e1 and 2^30 e1 + 2^-20 e2: of full
    Euclidean rank, smallest singular value 6.7e-7, while the induced
    metric d^T d rounds to a singular matrix. At `rank_deficient_at` its
    differential has rank one."""
    def jac(s, t):
        if (s, t) == tuple(at):
            return np.array([[2.0 ** 30, 2.0 ** 30], [0.0, 2.0 ** -20], [0.0, 0.0], [0.0, 0.0]])
        return np.eye(4, 2) * [1.0, float((s, t) != rank_deficient_at)]

    return SurfacePatch(psi=lambda s, t: np.array([s, t, 0.0, 0.0]),
                        param_box=Box((-1.0, -1.0), (1.0, 1.0)), jacobian=jac,
                        hessian=flat_hessian, name="plane")


def test_a_point_at_the_edge_of_the_box_or_of_the_rank_is_lifted():
    # the vertical derivatives are exact, so a grid point 7e-5 inside the box,
    # or 7e-5 short of where the differential loses rank, needs no room
    # around it and gives what the point-by-point construction gives
    sc = flat_scenario()
    grid = [np.array([s, t]) for s in (-0.5, 0.0, 0.5) for t in (-0.5, 0.5)]
    edge = [*grid[:3], np.array([1.0 - 7e-5, 0.2]), *grid[3:]]
    for patch, params in [(flat_plane(), edge),
                          (flat_plane(rank_deficient_beyond=0.5 + 7e-5), grid)]:
        for got, expected in zip(read_stack(sc, patch, params),
                                 oracle_loop(sc, patch, params)):
            assert_bitwise_equal(got, expected)


def test_a_stack_raises_the_error_of_its_first_failing_point():
    sc = flat_scenario()
    patch = flat_plane(rank_deficient_beyond=0.6)
    good = [np.array([0.1 * k, -0.2]) for k in range(4)]
    # one bad row among good rows
    for bad, error in ((np.array([1.5, 0.0]), DomainError),
                       (np.array([0.7, 0.0]), DegenerateFrameError)):
        params = [*good[:2], bad, *good[2:]]
        expected = raised(oracle_loop, sc, patch, params)
        assert expected[0] is error
        assert raised(tw.lift_stack, sc, patch, params) == expected
        assert raised(read_stack, sc, patch, params) == expected
    # a point failing late (the rank test) comes before one failing early
    # (outside the box) when it comes first, though the stack tests the box first
    params = [good[0], np.array([0.7, 0.0]), good[1], np.array([1.5, 0.0])]
    expected = raised(oracle_loop, sc, patch, params)
    assert expected == (DegenerateFrameError,
                        "patch differential is rank deficient at [0.7, 0.0]")
    assert raised(tw.lift_stack, sc, patch, params) == expected
    assert raised(read_stack, sc, patch, params) == expected
    # a grid point just short of the rank-deficient region is lifted, and a
    # later grid point outside the box raises
    params = [good[0], np.array([0.6 - 7e-5, 0.0]), good[1], np.array([1.5, 0.0])]
    expected = raised(oracle_loop, sc, patch, params)
    assert expected == (DomainError, "parameter [1.5, 0.0] leaves the patch box")
    assert raised(read_stack, sc, patch, params) == expected


def test_an_error_of_another_type_propagates_unchanged():
    # a later point whose patch callable raises a ValueError, which the
    # stack meets before the rank test of an earlier point: that error is
    # not the package's to order, so it propagates with its own type and
    # message, as it does for the later point alone
    sc = flat_scenario()
    plane = flat_plane(rank_deficient_beyond=0.6)

    def psi(s, t):
        if s > 0.8:
            raise ValueError(f"psi undefined at s = {s}")
        return plane.psi(s, t)

    patch = SurfacePatch(psi=psi, param_box=plane.param_box, jacobian=plane.jacobian,
                         hessian=plane.hessian)
    params = [np.array([0.1, 0.0]), np.array([0.7, 0.0]), np.array([0.9, 0.0])]
    assert raised(oracle_loop, sc, patch, params) == (
        DegenerateFrameError, "patch differential is rank deficient at [0.7, 0.0]")
    for stacked in (params, params[2:]):
        assert raised(tw.lift_stack, sc, patch, stacked) == (
            ValueError, "psi undefined at s = 0.9")


@pytest.mark.parametrize("bad, error", [((0.7, 0.0), DegenerateFrameError),
                                        ((1.5, 0.0), DomainError)],
                         ids=["rank", "box"])
def test_a_failing_lift_stack_is_passed_once(monkeypatch, bad, error):
    # the bad middle row keeps its failure in the column and the stack is
    # not passed again: one chart metric for the stack, and the patch
    # differential once per row
    sc = flat_scenario()
    patch = flat_plane(rank_deficient_beyond=0.6)
    params = [np.array([0.1, -0.2]), np.array(bad), np.array([0.2, -0.2])]
    metrics = count_calls(monkeypatch, tw, "metric_rows")
    dpsi = count_calls(monkeypatch, SurfacePatch, "dpsi")
    assert raised(lift_stack, sc, patch, params)[0] is error
    assert len(metrics) == 1
    assert len(dpsi) == len(params)


def test_a_degenerate_induced_metric_mid_stack_exits_two(tmp_path, monkeypatch, capsys):
    # the middle grid point's induced metric fails the rank rule, and a
    # later point's differential has rank one, which the stack tests first;
    # the command reports what a loop over the points meets first
    sc = build_catalog("proj")
    grid = patch_grid(catalog_patch("plane")["patch"])
    middle, later = (tuple(grid[k].tolist()) for k in (4, 7))
    patch = sheared_plane(at=middle, rank_deficient_at=later)
    expected = raised(lambda: [lift_stack(sc, patch, [p]) for p in grid])
    assert expected == (DegenerateFrameError, "induced metric is numerically degenerate "
                        f"at {[*middle, 0.0, 0.0]}")
    assert raised(lift_stack, sc, patch, grid) == expected
    monkeypatch.setitem(CATALOG_PATCHES["plane"], "factory", lambda: patch)
    assert main(twistor_command(tmp_path, "plane")) == 2
    assert capsys.readouterr().err == f"error: DegenerateFrameError: {expected[1]}\n"
    assert not list(tmp_path.glob("*.csv"))


# ------------------------------------------------------------- call budget


GRID_POINTS = 9


def twistor_command(tmp_path, patch_name):
    spec = catalog_patch(patch_name)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(catalog_configs()[spec["scenario"]]))
    return ["twistor", "--config", str(path), "--patch", patch_name,
            "--out", str(tmp_path)]


@pytest.mark.parametrize("patch_name", ["catenoid", "sphere_factor"])
def test_lift_geometry_call_budget(tmp_path, monkeypatch, metric_calls, patch_name):
    # one command builds one lift stack, of its grid points, with one
    # chart-metric matrix, one read of the first metric derivatives, which
    # the exact vertical jet shares with the Christoffel symbols, and one
    # read of the second derivatives, for the curvature of the whole stack
    argv = twistor_command(tmp_path, patch_name)
    stacks = count_calls(monkeypatch, tw, "lift_stack")
    lifts = count_calls(monkeypatch, tw, "surface_lift")
    dpsi = count_calls(monkeypatch, SurfacePatch, "dpsi")
    d2psi = count_calls(monkeypatch, SurfacePatch, "d2psi")
    logs = {name: [count_calls(monkeypatch, cls, name)
                   for cls in metric_classes() if name in vars(cls)]
            for name in METRIC_EVALUATIONS}
    assert main(argv) == 0
    assert (len(stacks), len(lifts)) == (1, 0)
    assert len(stacks[0][2]) == GRID_POINTS
    # the patch callables take one parameter point at a time
    assert (len(dpsi), len(d2psi)) == (GRID_POINTS, GRID_POINTS)
    calls = {name: sum(map(len, log)) for name, log in logs.items()}
    assert calls == {"matrix": 1, "first_derivatives": 1, "second_derivatives": 1}, calls
    points = {k: len(log) for k, log in metric_calls.items()}
    assert points == {"matrix": GRID_POINTS, "first_derivatives": GRID_POINTS,
                      "second_derivatives": GRID_POINTS}, points


@pytest.mark.parametrize("patch_name", ["catenoid", "sphere_factor"])
def test_only_the_record_reads_fiber_coordinates(tmp_path, monkeypatch, patch_name):
    # the tangent coordinates and the fiber coordinates come from Cholesky
    # factors and the fiber norm from g and its inverse, so no Gram-Schmidt
    # and no eigendecomposition runs; the lift rows are checked once, where
    # the stack is built
    argv = twistor_command(tmp_path, patch_name)
    calls = {name: count_calls(monkeypatch, geometry, name)
             for name in ("orthonormalize", "orthonormal_stack")}
    eigh = count_calls(monkeypatch, np.linalg, "eigh")
    checks = count_calls(monkeypatch, tw, "_check_structure")
    assert main(argv) == 0
    assert {name: len(log) for name, log in calls.items()} == {
        "orthonormalize": 0, "orthonormal_stack": 0}
    assert len(eigh) == 0
    rows_checked = [len(np.reshape(J, (-1, 4, 4))) for _, J in checks]
    assert rows_checked == [GRID_POINTS]


def test_a_lift_that_breaks_the_metric_is_rejected(monkeypatch):
    # the structure checks run on every lift as the stack is built: a lift
    # conjugated by a non-isometry still squares to minus the identity but
    # no longer preserves the metric
    spec = catalog_patch("catenoid")
    sc = build_scenario(ScenarioConfig.from_dict(catalog_configs()[spec["scenario"]]))
    grid = patch_grid(spec["patch"])
    jets = tw.structure_jets
    S = np.diag([2.0, 1.0, 1.0, 1.0])

    def skewed(*args, **kwargs):
        return [(S @ J @ np.linalg.inv(S), jet) for J, jet in jets(*args, **kwargs)]

    monkeypatch.setattr(tw, "structure_jets", skewed)
    with pytest.raises(GeometryError, match="does not preserve the metric"):
        lift_stack(sc, spec["patch"], grid, spec["orientation"])


# ------------------------------------------------------------- homothety


class Homothetic(ChartMetric):
    """The chart metric c * g of a base metric g, with its derivatives."""

    def __init__(self, base, c):
        super().__init__(base.domain)
        self.base, self.c = base, c

    def matrix(self, m):
        return self.c * self.base.matrix(m)

    def first_derivatives(self, m):
        return self.c * self.base.first_derivatives(m)

    def second_derivatives(self, m):
        return self.c * self.base.second_derivatives(m)


@pytest.mark.parametrize("tag", [1, -1])
@pytest.mark.parametrize("scenario_name,patch_name", catalog_lift_cases())
def test_the_lift_readers_follow_a_homothety_of_the_chart(scenario_name, patch_name, tag):
    # under g -> 4 g, a power of two and so exact in floating point, the
    # lift and its fiber coordinates stay, an orthonormal vector halves, so
    # the tangent coordinates halve, and the vertical energy and the
    # curvature pairings fall by a quarter; the horizontal part of the
    # residual vanishes, so the bowl's residual, all vertical, halves
    sc = build_catalog(scenario_name)
    scaled = dataclasses.replace(sc, metric=Homothetic(sc.metric, 4.0))
    spec = catalog_patch(patch_name)
    grid = patch_grid(spec["patch"])
    base, got = (read_all(lift_stack(s, spec["patch"], grid, orientation=tag))
                 for s in (sc, scaled))
    assert close(got["J"], base["J"], 1e-15)
    assert close(got["fiber"], base["fiber"], 1e-15)
    assert close(got["tangent"], 0.5 * base["tangent"], 1e-15)
    for key in ("energy", "omega_t", "omega_n"):
        assert close(got[key], 0.25 * base[key], 1e-15), key
    if spec["classification"] == "minimal":
        assert max(got["residual"]) <= 1e-13
    else:
        assert close(got["residual"], 0.5 * base["residual"], 1e-14)
