"""Shape coefficients, derivative norms, and the product bound scan.

Oracle for the coefficients: a finite-difference second fundamental form on
an explicit parametrization of the fiber, expressed in the same frames the
implementation uses. Closed-form identities are property-tested as pure
algebra before any geometry enters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.calculus import holomorphic_scenario
from morphoscope.errors import ClassificationError, GeometryError
from morphoscope.hermitian import hermitian_pair
from morphoscope import morphism, weingarten
from morphoscope.morphism import fiber_mean_curvature, geometry_stack, splitting
from morphoscope.weingarten import (FiberShape, closed_norm_pair, commutator_matrix,
                                    fiber_shape, frame_component_sums,
                                    identity_scale, nabla_J_norms, polar_form,
                                    product_bound_scan, product_identity,
                                    product_polar, shape_stack, weingarten_matrix)

from test_morphism import (GOOD, NOT_SPD, count_geometry_builds, count_jets, derivative,
                           field, scenario_product, scenario_proj, scenario_pullback_product,
                           scenario_square, stepped_scenario)

COEFF = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- oracles


def fiber_second_form_oracle(scenario, m, parametrization, z0, h=1e-3):
    """Shape coefficients from an explicit fiber parametrization, flat metric.

    parametrization maps a complex parameter to chart points and covers the
    fiber through m with parametrization(z0) = m. Second derivatives come
    from central differences; tangent coordinates of the frame vectors from
    a least squares solve.
    """

    def phi(s, t):
        return np.asarray(parametrization(complex(s, t)), dtype=float)

    s0, t0 = z0.real, z0.imag
    phi_s = (phi(s0 + h, t0) - phi(s0 - h, t0)) / (2 * h)
    phi_t = (phi(s0, t0 + h) - phi(s0, t0 - h)) / (2 * h)
    phi_ss = (phi(s0 + h, t0) - 2 * phi(s0, t0) + phi(s0 - h, t0)) / h ** 2
    phi_tt = (phi(s0, t0 + h) - 2 * phi(s0, t0) + phi(s0, t0 - h)) / h ** 2
    phi_st = (phi(s0 + h, t0 + h) - phi(s0 + h, t0 - h)
              - phi(s0 - h, t0 + h) + phi(s0 - h, t0 - h)) / (4 * h ** 2)

    sp = splitting(scenario, m)
    pair = hermitian_pair(scenario, m)
    T = field(sp, 0, "vertical")[0]
    e2 = field(pair, 0, "j_plus") @ T
    e3, e4 = field(sp, 0, "horizontal")

    tangent = np.column_stack([phi_s, phi_t])
    pT, _, _, _ = np.linalg.lstsq(tangent, T, rcond=None)
    pE, _, _, _ = np.linalg.lstsq(tangent, e2, rcond=None)

    def second(u, v):
        acc = (u[0] * v[0] * phi_ss + (u[0] * v[1] + u[1] * v[0]) * phi_st
               + u[1] * v[1] * phi_tt)
        return (acc @ e3) * e3 + (acc @ e4) * e4

    ii_tt = second(pT, pT)
    ii_te = second(pT, pE)
    return (-float(ii_tt @ e3), -float(ii_tt @ e4),
            -float(ii_te @ e3), -float(ii_te @ e4))


# ---------------------------------------------------------------- algebra


@settings(max_examples=1000, deadline=None)
@given(*[st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)] * 4)
def test_norm_product_equals_expanded_identity_unit_range(a, b, c, d):
    n_plus, n_minus = closed_norm_pair(a, b, c, d)
    assert abs(n_plus * n_minus - product_identity(a, b, c, d)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(COEFF, COEFF, COEFF, COEFF)
def test_norm_product_equals_expanded_identity(a, b, c, d):
    # on large tuples the comparison scale is the identity's own magnitude
    n_plus, n_minus = closed_norm_pair(a, b, c, d)
    expanded = product_identity(a, b, c, d)
    assert abs(n_plus * n_minus - expanded) <= 1e-12 * identity_scale(a, b, c, d)


@settings(max_examples=200, deadline=None)
@given(COEFF, COEFF, COEFF, COEFF)
def test_polar_form_reconstructs_and_matches_product(a, b, c, d):
    r1, r2, theta, alpha = polar_form(a, b, c, d)
    assert r1 >= 0 and r2 >= 0
    assert abs(r1 * math.cos(theta) - a) <= 1e-12 * max(1.0, abs(a))
    assert abs(r1 * math.sin(theta) - c) <= 1e-12 * max(1.0, abs(c))
    assert abs(r2 * math.cos(alpha) - b) <= 1e-12 * max(1.0, abs(b))
    assert abs(r2 * math.sin(alpha) - d) <= 1e-12 * max(1.0, abs(d))
    expanded = product_identity(a, b, c, d)
    polar = product_polar(r1, r2, theta, alpha)
    assert abs(expanded - polar) <= 1e-10 * identity_scale(a, b, c, d)


@settings(max_examples=200, deadline=None)
@given(COEFF, COEFF, COEFF, COEFF)
def test_product_is_eight_times_squared_commutator_norm(a, b, c, d):
    frob2 = float(np.sum(commutator_matrix(a, b, c, d) ** 2))
    expanded = product_identity(a, b, c, d)
    assert abs(expanded - 8.0 * frob2) <= 1e-10 * identity_scale(a, b, c, d)


def test_synthetic_commutator_and_norm_values():
    assert np.allclose(commutator_matrix(1, 2, 0, 0), [[4, 3], [3, -4]])
    assert closed_norm_pair(1, 0, 0, 1) == (0.0, 16.0)


# ----------------------------------------------------------- coefficients


def test_projection_fibers_are_totally_geodesic():
    sc = scenario_proj()
    coeffs = weingarten_matrix(sc, np.array([0.2, -0.3, 0.4, 0.1]))
    assert np.allclose(coeffs, 0.0, atol=1e-8)


def test_product_map_flat_plane_fiber():
    sc = scenario_product()
    coeffs = weingarten_matrix(sc, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(coeffs, 0.0, atol=1e-8)


def test_product_map_curved_fiber_frozen_values():
    sc = scenario_product()
    m = np.array([1.0, 0.0, 1.0, 0.0])
    a, b, c, d = weingarten_matrix(sc, m)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose([a, b, c, d], [-s, 0.0, 0.0, -s], atol=1e-6)


def test_product_map_curved_fiber_matches_parametrization_oracle():
    sc = scenario_product()
    m = np.array([1.0, 0.0, 1.0, 0.0])
    got = weingarten_matrix(sc, m)
    expected = fiber_second_form_oracle(sc, m, lambda z: (z.real, z.imag,
                                                          (1 / z).real, (1 / z).imag),
                                        z0=complex(1.0, 0.0))
    assert np.allclose(got, expected, atol=1e-4)


def test_rotating_the_vertical_unit_flips_the_sign_pattern():
    sc = scenario_product()
    m = np.array([1.0, 0.0, 1.0, 0.0])
    a, b, c, d = weingarten_matrix(sc, m, angle=math.pi / 2)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose([a, b, c, d], [s, 0.0, 0.0, s], atol=1e-6)


def test_weingarten_requires_regular_point():
    with pytest.raises(ClassificationError):
        weingarten_matrix(scenario_product(), np.zeros(4))


# ----------------------------------------------------------------- norms


def test_norms_closed_vs_direct_on_curved_fiber():
    sc = scenario_product()
    m = np.array([1.0, 0.0, 1.0, 0.0])
    norms = nabla_J_norms(sc, m)
    assert abs(norms.closed[0]) <= 1e-8
    assert abs(norms.closed[1] - 8.0) <= 1e-6
    assert norms.direct[0] <= 1e-6
    assert abs(norms.direct[1] - 8.0) <= 1e-3 * 8.0


def test_norms_closed_vs_direct_on_pullback():
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    norms = nabla_J_norms(sc, m)
    assert norms.direct[0] <= max(1e-5, 5e-3 * max(1.0, norms.closed[0]))
    assert abs(norms.direct[1] - norms.closed[1]) <= 5e-3 * max(1.0, norms.closed[1])


def test_commutator_vanishes_on_flat_and_pullback_charts():
    flat = commutator_matrix(*weingarten_matrix(scenario_product(),
                                                np.array([1.0, 0.0, 1.0, 0.0])))
    assert np.linalg.norm(flat) <= 1e-6
    pulled = commutator_matrix(*weingarten_matrix(scenario_pullback_product(),
                                                  np.array([0.3, 0.1, 0.25, -0.2])))
    assert np.linalg.norm(pulled) <= 1e-4


def test_direct_norm_is_frame_gauge_invariant():
    sc = scenario_product()
    m = np.array([1.0, 0.0, 1.0, 0.0])
    sp = splitting(sc, m)
    pair = hermitian_pair(sc, m)
    T = field(sp, 0, "vertical")[0]
    g = sc.metric.matrix(m)
    dJ = derivative(geometry_stack(sc, [m]).structure_jets[1][1], T)
    e3, e4 = field(sp, 0, "horizontal")
    frame = np.array([T, field(pair, 0, "j_plus") @ T, e3, e4])
    full_a, _ = frame_component_sums(dJ, g, frame)
    phi = 0.7
    rot = np.array([math.cos(phi) * frame[0] + math.sin(phi) * frame[1],
                    -math.sin(phi) * frame[0] + math.cos(phi) * frame[1],
                    math.cos(phi) * frame[2] + math.sin(phi) * frame[3],
                    -math.sin(phi) * frame[2] + math.cos(phi) * frame[3]])
    full_b, _ = frame_component_sums(dJ, g, rot)
    assert abs(full_a - full_b) <= 1e-6 * max(1.0, full_a)


def test_mixed_components_carry_half_the_full_sum():
    sc = scenario_product()
    m = np.array([1.0, 0.0, 1.0, 0.0])
    sp = splitting(sc, m)
    pair = hermitian_pair(sc, m)
    T = field(sp, 0, "vertical")[0]
    g = sc.metric.matrix(m)
    e3, e4 = field(sp, 0, "horizontal")
    frame = np.array([T, field(pair, 0, "j_plus") @ T, e3, e4])
    dJ = derivative(geometry_stack(sc, [m]).structure_jets[1][1], T)
    full, mixed = frame_component_sums(dJ, g, frame)
    assert full > 1.0
    assert abs(full - 2.0 * mixed) <= 1e-6 * full


# ---------------------------------------------------------------- reports


def test_report_is_internally_consistent():
    sc = scenario_product()
    shape = fiber_shape(sc, np.array([1.0, 0.0, 1.0, 0.0]))
    a, b, c, d = shape.coefficients
    r1, r2, theta, alpha = shape.polar
    assert abs(r1 * math.cos(theta) - a) <= 1e-12
    assert abs(r2 * math.sin(alpha) - d) <= 1e-12
    assert np.allclose(shape.commutator, commutator_matrix(a, b, c, d))
    assert shape.product == shape.closed[0] * shape.closed[1]
    scale = identity_scale(a, b, c, d)
    assert abs(shape.product_expanded - shape.product) <= 1e-10 * scale
    assert abs(shape.product_expanded - shape.product_polar) <= 1e-10 * scale
    assert shape.direct[0] is not None


def test_product_scan_flat_product_map():
    scan = product_bound_scan(scenario_product(), np.zeros(4))
    assert scan.verdict == "PASS"
    assert all(v <= 1e-8 for v in scan.annulus_max)
    assert scan.identity_gap <= 1e-10


def test_product_scan_pullback():
    scan = product_bound_scan(scenario_pullback_product(), np.zeros(4))
    assert scan.verdict == "PASS"
    assert scan.identity_gap <= 1e-10


# ------------------------------------------------------------ call budget


def test_report_builds_each_stencil_geometry_once(monkeypatch):
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    builds = count_geometry_builds(monkeypatch)
    fiber_shape(sc, m, angle=0.3).direct
    # the point alone: the derivatives are read from its exact jets
    assert len(builds) == 1


@pytest.mark.parametrize("angle", [0.0, 0.3])
def test_shape_and_mean_curvature_read_the_geometry_jets(monkeypatch, angle):
    # the shape, its direct norms and the mean curvature build no geometry
    # beyond the point's, and each jet of its stack is computed once
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    builds = count_geometry_builds(monkeypatch)
    jets = count_jets(monkeypatch)
    geo = morphism.geometry_stack(sc, [m])
    FiberShape(shape_stack(geo, [0], angle), 0).direct
    fiber_mean_curvature(geo)
    assert len(builds) == 1
    assert jets == {"projector_jet": 1, "structure_jets": 1}


def test_scan_builds_at_most_five_geometries_per_sample(monkeypatch):
    builds = count_geometry_builds(monkeypatch)
    scan = product_bound_scan(scenario_pullback_product(), np.zeros(4),
                              n_directions=4, seed=2)
    samples = len(scan.radii) * 4
    # one geometry per sample, and none elsewhere
    assert len(builds) == samples


def count_geometry_stacks(monkeypatch) -> list:
    """The size of each stack the geometry pass builds, raising or not,
    through the morphism and weingarten modules, in call order."""
    sizes = []
    original = morphism.stack_pass

    def counted(scenario, points):
        sizes.append(len(np.array(points, dtype=float).reshape(-1, 4)))
        return original(scenario, points)

    for module in (morphism, weingarten):
        monkeypatch.setattr(module, "stack_pass", counted)
    return sizes


def test_scan_builds_one_stack_per_scan(monkeypatch):
    # one stack of the samples of all the shells, none per shell or per
    # sample, and the structure jets are never computed
    sizes = count_geometry_stacks(monkeypatch)
    jets = count_jets(monkeypatch)
    scan = product_bound_scan(scenario_pullback_product(), np.zeros(4),
                              n_directions=4, seed=2)
    assert scan.skipped == (0,) * len(scan.radii)
    assert sizes == [4 * len(scan.radii)]
    assert jets == {"projector_jet": 1, "structure_jets": 0}


def test_scan_builds_no_fiber_shape(monkeypatch):
    # the products and identity gaps are read from the shape stack's
    # coefficients, with no row object per sample
    built = []
    monkeypatch.setattr(weingarten, "FiberShape",
                        lambda *args: built.append(args) or FiberShape(*args))
    scan = product_bound_scan(scenario_pullback_product(), np.zeros(4),
                              n_directions=4, seed=2)
    assert scan.verdict == "PASS"
    assert built == []
    fiber_shape(scenario_pullback_product(), np.array([0.3, 0.1, 0.25, -0.2]))
    assert len(built) == 1


def test_scan_builds_no_stencil_for_a_skipped_sample(monkeypatch):
    # samples outside the domain are not built, and critical samples (on
    # the plane z1 = 0) get no shape; the inside samples of both shells
    # are one stack
    regular = [[0.3, 0.1, 0.2, 0.0], [-0.2, 0.4, 0.1, 0.3]]
    critical = [[0.0, 0.0, 0.3, 0.1], [0.0, 0.0, -0.2, 0.4]]
    outside = [2.0, 0.0, 0.0, 0.0]
    shells = np.array([[regular[0], critical[0], outside, regular[1]],
                       [critical[0], outside, critical[1], outside]])
    monkeypatch.setattr(weingarten, "shell_samples",
                        lambda directions, radii, center: ((0.1, 0.05), shells))
    sizes = count_geometry_stacks(monkeypatch)
    scan = product_bound_scan(scenario_square(), np.zeros(4), n_directions=4)
    assert scan.skipped == (2, 4)
    assert sizes == [5]


def scan_error(scenario, shells, monkeypatch):
    """(scanned, looped): the error product_bound_scan raises on the given
    shells, of radii 0.1, 0.05, ..., and the error a written-out loop over
    the samples, radius-major, raises."""
    radii = tuple(0.1 * 0.5 ** k for k in range(len(shells)))
    monkeypatch.setattr(weingarten, "shell_samples",
                        lambda directions, radii_, center: (radii, shells))
    with pytest.raises(Exception) as scanned:
        product_bound_scan(scenario, np.array(GOOD))
    with pytest.raises(Exception) as looped:
        for r, shell in zip(radii, shells):
            for y in shell:
                shape_stack(geometry_stack(scenario, [y]), [0], 0.0)
    return scanned.value, looped.value


def overflowing_scenario():
    """z1 + z1^40 on the chart of stepped_scenario: at OVERFLOWING the
    geometry builds and is regular, but its conformality defect overflows,
    so its splitting, the first step of a shape, fails."""
    return holomorphic_scenario("overflowing", {(1, 0): 1.0, (40, 0): 1.0},
                                stepped_scenario().metric)


OVERFLOWING = [900.0, 0.2, 0.3, 0.4]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failing_shell_raises_the_error_of_its_first_failing_sample(monkeypatch):
    # sample 1 fails in its splitting, and sample 2 fails earlier in the
    # stacked order, in its geometry; the scan raises what the loop over
    # the samples raises: sample 1's error
    scanned, looped = scan_error(overflowing_scenario(),
                                 np.array([[GOOD, OVERFLOWING, NOT_SPD, GOOD]]), monkeypatch)
    assert type(scanned) is type(looped) is GeometryError
    assert str(scanned) == str(looped)
    assert str(scanned) == f"conformality defect overflows at {OVERFLOWING}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failure_in_a_later_shell_raises_the_looped_error(monkeypatch):
    # shell 1 is clean; in shell 2 sample 1 fails in its splitting and
    # sample 2 in its geometry, which the stacked order reaches first
    scanned, looped = scan_error(overflowing_scenario(),
                                 np.array([[GOOD] * 4, [GOOD, OVERFLOWING, NOT_SPD, GOOD]]),
                                 monkeypatch)
    assert type(scanned) is type(looped) is GeometryError
    assert str(scanned) == str(looped)
    assert str(scanned) == f"conformality defect overflows at {OVERFLOWING}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_error_of_another_type_propagates_unchanged(monkeypatch):
    # sample 1 fails in its splitting; the Jacobian fails with an error
    # that is not a MorphoscopeError wherever sample 2 is evaluated, which
    # the one stacked pass meets first: that error is not the package's to
    # order, so it propagates with its own type and message
    scenario = overflowing_scenario()
    later = [0.3, 0.1, 0.2, 0.4]
    jacobian = scenario.jacobian

    def failing(points):
        if any(np.array_equal(m, later) for m in np.reshape(points, (-1, 4))):
            raise ZeroDivisionError("a later sample fails")
        return jacobian(points)

    monkeypatch.setattr(scenario, "jacobian", failing)
    monkeypatch.setattr(weingarten, "shell_samples",
                        lambda directions, radii, center: (
                            (0.1,), np.array([[GOOD, OVERFLOWING, later, GOOD]])))
    with pytest.raises(ZeroDivisionError) as info:
        product_bound_scan(scenario, np.array(GOOD))
    assert str(info.value) == "a later sample fails"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failing_scan_shell_builds_one_geometry_stack(monkeypatch):
    # the samples of the shell that fail the pass and the splitting are
    # rows of the one stack, which is not passed again
    sizes = count_geometry_stacks(monkeypatch)
    scanned, _ = scan_error(overflowing_scenario(),
                            np.array([[GOOD, OVERFLOWING, NOT_SPD, GOOD]]), monkeypatch)
    assert str(scanned) == f"conformality defect overflows at {OVERFLOWING}"
    # the scan's stack, then the written-out loop's stacks of one up to its
    # first failing sample
    assert sizes == [4, 1, 1]


def per_sample_shape(geo, angle):
    """(a, b, c, d) of a stack of one point, written out point by point from
    the exact derivative of its vertical projector along T."""
    ca, sa = math.cos(angle), math.sin(angle)
    v1, v2 = field(geo, 0, "vertical")
    T, e2 = ca * v1 + sa * v2, ca * v2 - sa * v1
    e3, e4 = field(geo, 0, "horizontal")
    dP = derivative(geo.projector_jet, T)
    dT, dE2 = dP @ T, dP @ e2
    g = field(geo, 0, "g")
    return (-float(dT @ g @ e3), -float(dT @ g @ e4),
            -float(dE2 @ g @ e3), -float(dE2 @ g @ e4))


CRITICAL_CHARTS = ("z1z2", "z1sq", "z1z2_cubic", "pullback_z1z2")


@pytest.mark.parametrize("angle", [0.0, 0.3])
@pytest.mark.parametrize("name", CRITICAL_CHARTS + ("pullback_product",))
def test_scan_shapes_equal_a_per_sample_loop_bitwise(monkeypatch, name, angle):
    if name == "pullback_product":
        scenario = scenario_pullback_product()
    else:
        scenario = build_scenario(ScenarioConfig.from_dict(catalog_configs()[name]))
    stacks = []
    built = weingarten.shape_stack

    def recorded(stack, index, angle):
        stacks.append(built(stack, index, angle))
        return stacks[-1]

    monkeypatch.setattr(weingarten, "shape_stack", recorded)
    scan = product_bound_scan(scenario, np.zeros(4), seed=3, angle=angle)
    assert len(stacks) == 1

    coefficients, annulus_max, skipped, gap = [], [], [], 0.0
    for r in scan.radii:
        directions = weingarten.seeded_directions(8, 3)
        products = []
        for y in r * directions:
            if not scenario.domain.contains(y):
                continue
            geo = geometry_stack(scenario, [y])
            if geo.regular[0]:
                coeffs = per_sample_shape(geo, angle)
                n_plus, n_minus = closed_norm_pair(*coeffs)
                products.append(n_plus * n_minus)
                gap = max(gap, abs(product_identity(*coeffs)
                                   - product_polar(*polar_form(*coeffs)))
                          / identity_scale(*coeffs))
                coefficients.append(coeffs)
        annulus_max.append(max([0.0] + products))
        skipped.append(8 - len(products))
    assert stacks[0].coefficients == coefficients
    assert scan.annulus_max == tuple(annulus_max)
    assert scan.identity_gap == gap
    assert scan.skipped == tuple(skipped)


def test_report_matches_the_standalone_functions_bitwise():
    sc = scenario_pullback_product()
    m = np.array([0.3, 0.1, 0.25, -0.2])
    rep = fiber_shape(sc, m, angle=0.4)
    assert np.array_equal(rep.commutator, commutator_matrix(
        *weingarten_matrix(sc, m, angle=0.4)))
    norms = nabla_J_norms(sc, m, angle=0.4)
    assert norms.closed == rep.closed
    assert norms.direct == rep.direct
    assert rep.coefficients == weingarten_matrix(sc, m, angle=0.4)


def test_no_state_leaks_between_scenarios_at_one_point():
    m = np.array([0.3, 0.1, 0.25, -0.2])
    flat, pulled = scenario_product(), scenario_pullback_product()
    first = fiber_shape(flat, m)
    second = fiber_shape(pulled, m)
    again = fiber_shape(flat, m)
    assert first.coefficients != second.coefficients
    assert second.coefficients == weingarten_matrix(pulled, m)
    assert again.coefficients == first.coefficients
    assert again.direct[1] == first.direct[1]
