"""Symbol extraction tests.

The candidate detector is certified two independent ways: the sphere least
squares route inside the package, and direct Wirtinger coefficient checks
plus hand-derived frozen candidates for the catalog maps (product of the two
complex coordinates: one positive candidate; square of the first coordinate:
one candidate per orientation).
"""

from __future__ import annotations

import cmath
import decimal
import itertools
import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphoscope import calculus, symbol
from morphoscope._linalg import minimize_affine_on_sphere
from morphoscope.calculus import (
    MorphismScenario, holomorphic_scenario, pullback_scenario, real_scenario,
)
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import SymbolError, UnsupportedOrderError
from morphoscope.geometry import Box, FlatMetric
from morphoscope.runner import run_rate
from morphoscope.polynomials import Poly, from_complex_pair
from morphoscope.structures import (
    STRUCTURES_MINUS, STRUCTURES_PLUS, fiber_from_structure, structure_basis,
)
from morphoscope.symbol import (
    center_sample, dilation_lower_rate, remainder_rates, symbol_polynomial,
)

from structure_oracle import structure_from_fiber
from test_morphism import pullback_diffeo, scenario_product, scenario_square


def scenario_cubic():
    return holomorphic_scenario("prodcubic", {(1, 1): 1.0, (3, 0): 1.0},
                                FlatMetric(Box.cube(1.5)))


def test_structure_bases_quaternion_relations():
    rng = np.random.default_rng(0)
    for orientation in (1, -1):
        basis = structure_basis(orientation)
        for i in range(3):
            assert np.allclose(basis[i] @ basis[i], -np.eye(4), atol=1e-14)
            assert np.allclose(basis[i].T, -basis[i], atol=1e-14)
            for j in range(i + 1, 3):
                anti = basis[i] @ basis[j] + basis[j] @ basis[i]
                assert np.max(np.abs(anti)) < 1e-14
        for _ in range(5):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            J = structure_from_fiber(u, orientation)
            assert np.allclose(J @ J, -np.eye(4), atol=1e-13)
            assert np.allclose(fiber_from_structure(J, orientation), u, atol=1e-13)
        # frame orientation of X, JX pairs matches the tag
        J = structure_from_fiber([0.0, 0.0, 1.0], orientation)
        e1 = np.array([1.0, 0, 0, 0])
        e3 = np.array([0.0, 0, 1.0, 0])
        frame = np.column_stack([e1, J @ e1, e3, J @ e3])
        assert np.sign(np.linalg.det(frame)) == orientation


def test_standard_structures_frozen():
    expect_plus = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                           dtype=float)
    assert np.array_equal(STRUCTURES_PLUS[2], expect_plus)
    expect_minus = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
                            dtype=float)
    assert np.array_equal(STRUCTURES_MINUS[2], expect_minus)


def test_order_at_catalog_values():
    # the vanishing order of the centred map, as the symbol reads it
    assert symbol_polynomial(scenario_product(), np.zeros(4)).order == 2
    assert symbol_polynomial(scenario_square(), np.zeros(4)).order == 2
    assert symbol_polynomial(scenario_cubic(), np.zeros(4)).order == 2
    assert symbol_polynomial(scenario_product(), np.array([1.0, 0, 0, 0])).order == 1
    cub = holomorphic_scenario("pure3", {(3, 0): 1.0}, FlatMetric(Box.cube(1.5)))
    assert symbol_polynomial(cub, np.zeros(4)).order == 3


def test_order_at_errors():
    const = holomorphic_scenario("const", {(0, 0): 2.0}, FlatMetric(Box.cube(1.5)))
    with pytest.raises(SymbolError):
        symbol_polynomial(const, np.zeros(4))
    deep = holomorphic_scenario("deep", {(7, 0): 1.0}, FlatMetric(Box.cube(1.5)))
    with pytest.raises(UnsupportedOrderError):
        symbol_polynomial(deep, np.zeros(4))


def test_symbol_product_map_unique_positive_candidate():
    data = symbol_polynomial(scenario_product(), np.zeros(4))
    assert data.order == 2
    assert len(data.candidates) == 1
    cand = data.candidates[0]
    assert cand.orientation == 1
    assert np.allclose(cand.fiber, [0.0, 0.0, 1.0], atol=1e-10)
    assert np.allclose(cand.matrix, STRUCTURES_PLUS[2], atol=1e-10)
    assert cand.residual < 1e-10
    assert cand.antiholomorphic_max < 1e-10
    assert set(cand.coefficients) == {(1, 1)}
    assert cand.coefficients[(1, 1)] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert not data.remainder.coeffs


def test_symbol_square_map_two_candidates():
    data = symbol_polynomial(scenario_square(), np.zeros(4))
    assert data.order == 2
    assert len(data.candidates) == 2
    by_or = {c.orientation: c for c in data.candidates}
    assert set(by_or) == {1, -1}
    for orientation, cand in by_or.items():
        assert np.allclose(cand.fiber, [0.0, 0.0, 1.0], atol=1e-10)
        assert set(cand.coefficients) == {(2, 0)}
        assert cand.coefficients[(2, 0)] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert np.allclose(by_or[1].matrix, STRUCTURES_PLUS[2], atol=1e-10)
    assert np.allclose(by_or[-1].matrix, STRUCTURES_MINUS[2], atol=1e-10)


def test_symbol_cubic_perturbation_keeps_candidate_and_remainder():
    data = symbol_polynomial(scenario_cubic(), np.zeros(4))
    assert data.order == 2
    assert len(data.candidates) == 1
    # remainder is the cubic term: check at a sample point
    y = np.array([0.3, -0.2, 0.1, 0.4])
    w1 = complex(y[0], y[1])
    assert data.remainder.eval(y) == pytest.approx(w1 ** 3, abs=1e-13)


def test_symbol_no_candidate_for_anisotropic_linear():
    x = [Poly.variable(k) for k in range(4)]
    sc = real_scenario("stretch", x[0], 2.0 * x[1], FlatMetric(Box.cube(1.5)))
    data = symbol_polynomial(sc, np.zeros(4))
    assert data.order == 1
    assert data.candidates == ()


def test_symbol_equivariance_under_chart_rotation():
    # rotate the second complex pair by a quarter turn and pull back
    base = scenario_product()
    x = [Poly.variable(k) for k in range(4)]
    rot = [x[0], x[1], -x[3], x[2]]  # (x3, x4) -> (-x4, x3)
    sc = pullback_scenario(base, rot, Box.cube(1.0), "rotated")
    data = symbol_polynomial(sc, np.zeros(4))
    assert len(data.candidates) == 1
    cand = data.candidates[0]
    R = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    base_cand = symbol_polynomial(base, np.zeros(4)).candidates[0]
    expected = np.linalg.inv(R) @ base_cand.matrix @ R
    assert np.allclose(cand.matrix, expected, atol=1e-10)


def test_symbol_pullback_scenario_recovers_flat_candidate():
    sc = pullback_scenario(scenario_product(), pullback_diffeo(), Box.cube(0.8),
                           "prodmap_pulled")
    data = symbol_polynomial(sc, np.zeros(4))
    assert data.order == 2
    assert len(data.candidates) == 1
    cand = data.candidates[0]
    assert cand.orientation == 1
    assert np.allclose(cand.fiber, [0.0, 0.0, 1.0], atol=1e-9)
    assert not data.chart.identity


def test_remainder_rates_zero_branch_and_cubic():
    rr0 = remainder_rates(center_sample(scenario_product(), np.zeros(4)))
    assert rr0.value_fit.zero_branch
    assert rr0.differential_fit.zero_branch
    assert rr0.passed

    rr = remainder_rates(center_sample(scenario_cubic(), np.zeros(4)))
    assert rr.passed
    assert rr.value_fit.slope == pytest.approx(3.0, abs=0.05)
    assert rr.differential_fit.slope == pytest.approx(2.0, abs=0.05)


def test_dilation_lower_rate_product_map_exact_linear():
    sample = center_sample(scenario_product(), np.zeros(4))
    out = dilation_lower_rate(sample)
    assert sample.symbol.order == 2
    assert out.passed
    assert out.excluded_directions == ()
    for r, v in zip(out.fit.radii, out.fit.values):
        assert v / r == pytest.approx(1.0, abs=1e-12)
    assert out.fit.slope == pytest.approx(1.0, abs=1e-6)
    assert out.envelope_constant == pytest.approx(1.0, abs=1e-12)


def test_dilation_lower_rate_square_map_excludes_critical_rays():
    sample = center_sample(scenario_square(), np.zeros(4), seed=3)
    out = dilation_lower_rate(sample)
    assert out.passed
    # the plane spanned by the second complex coordinate is critical:
    # all four of its signed axes must be excluded
    assert len(out.excluded_directions) == 4
    for d in out.excluded_directions:
        assert abs(d[0]) < 1e-12 and abs(d[1]) < 1e-12
    # along the first coordinate axis, the sample's first direction, the
    # dilation is exactly 2r
    ray = sample.stack.dilation_sup[::len(sample.directions)]
    for r, v in zip(sample.radii, ray):
        assert v / (2.0 * r) == pytest.approx(1.0, abs=1e-12)


def count_calls(monkeypatch, owner, name) -> list:
    """Count calls of owner.name: a method when owner is a class, else a
    module function, through every package module that binds it."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
        return calls
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("morphoscope") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("name", ["pullback_z1z2", "z1z2_cubic"])
def test_rate_builds_one_sample_per_center(monkeypatch, metric_calls, name):
    # the three rate fits read one normal chart, one symbol and one shell of
    # point geometries at each center; the metric is evaluated at most once
    # per shell sample, plus once at the center for the normal chart
    config = ScenarioConfig.from_dict(catalog_configs()[name])
    scenario = build_scenario(config)
    charts = count_calls(monkeypatch, calculus, "normalized_scenario")
    symbols = count_calls(monkeypatch, symbol, "symbol_polynomial")
    points = metric_calls["matrix"]
    found = run_rate(config, scenario, config.analysis["seed"])
    n_centers = len(config.critical_points)
    n_radii = len(found.rates["center[0]"]["deviation"]["radii"])
    assert all(record["substitutions"] == () for record in found.records)
    assert len(charts) == n_centers
    assert len(symbols) == n_centers
    assert len(points) == len(set(points))
    assert len(points) <= n_centers * (n_radii * (8 + config.analysis["n_directions"]) + 1)


# ------------------------------------------------- the symbol solve, exactly


def reference_holomorphy_system(p_diffs, basis):
    """The holomorphy system built term by term with polynomial products and
    sums: the reference that symbol._holomorphy_system gathers bit for bit."""
    monomials = sorted({e for p in p_diffs for e in p.coeffs})
    index = {e: i for i, e in enumerate(monomials)}
    width = len(monomials)

    def vectorize(covector_polys) -> np.ndarray:
        out = np.zeros(2 * 4 * width)
        for j, poly in enumerate(covector_polys):
            for e, c in poly.coeffs.items():
                i = index[e]
                out[2 * (j * width + i)] = c.real
                out[2 * (j * width + i) + 1] = c.imag
        return out

    rho0 = vectorize([-1j * p_diffs[j] for j in range(4)])
    cols = []
    for Ja in basis:
        cols.append(vectorize([
            sum((p_diffs[k] * Ja[k, j] for k in range(4)), Poly.zero())
            for j in range(4)]))
    R = np.column_stack(cols)
    scale = float(np.linalg.norm(vectorize(p_diffs)))
    return rho0, R, scale


def reference_sphere_solve(rho0, R):
    """Minimize ||rho0 + R u|| over unit vectors u for any R, through the
    trust-region secular equation in the eigenbasis of R^T R, after the
    power-of-two step of _linalg.minimize_affine_on_sphere: the general
    solver, which the closed form of the package agrees with on the
    holomorphy system (R^T R = scale^2 I) and which the structure oracle of
    test_hermitian.py solves with. The hard case (right-hand side orthogonal
    to the bottom eigenspace) pads the solution with a bottom eigenvector."""
    top = float(np.max(np.abs(R), initial=0.0))
    shift = math.frexp(top)[1] - 1 if 0.0 < top < math.inf else 0
    R, rho0 = np.ldexp(R, -shift), np.ldexp(rho0, -shift)
    H = R.T @ R
    b = R.T @ rho0
    w, Q = np.linalg.eigh(H)
    beta = Q.T @ b
    lam0 = float(w[0])
    scale = max(1.0, float(abs(w[-1])), float(np.linalg.norm(b)))
    bottom = np.abs(w - lam0) <= 1e-12 * scale

    def phi(mu):
        return float(np.sum((beta / (w + mu)) ** 2))

    delta = 1e-14 * scale
    lo = -lam0 + delta
    if phi(lo) >= 1.0:
        hi = -lam0 + max(2.0 * delta, 2.0 * float(np.linalg.norm(b)) + 1.0)
        while phi(hi) > 1.0:
            hi = -lam0 + 2.0 * (hi + lam0)
        a, c = lo, hi
        for _ in range(300):
            mid = 0.5 * (a + c)
            if phi(mid) > 1.0:
                a = mid
            else:
                c = mid
            if c - a <= 1e-15 * max(1.0, abs(c)):
                break
        u = Q @ (-beta / (w + 0.5 * (a + c)))
    else:
        coeff = np.zeros_like(beta)
        mask = ~bottom
        coeff[mask] = -beta[mask] / (w[mask] - lam0)
        norm2 = float(np.sum(coeff ** 2))
        if norm2 > 1.0:
            coeff /= np.sqrt(norm2)
            norm2 = 1.0
        u = Q @ coeff + np.sqrt(max(0.0, 1.0 - norm2)) * Q[:, 0]
    u = u / float(np.linalg.norm(u))
    return u, float(np.linalg.norm(rho0 + R @ u)) * math.ldexp(1.0, shift)


def random_symbol(rng, degree) -> Poly:
    """A seeded homogeneous symbol: holomorphic in the chart's complex
    coordinates, a sparse real-and-imaginary mix, or dense, at a random scale."""
    monomials = [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) == degree]
    kind = rng.integers(3)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == 0:
        terms = {(a, degree - a): complex(*rng.standard_normal(2))
                 for a in range(degree + 1) if rng.random() < 0.6}
        return from_complex_pair(terms or {(degree, 0): 1.0}) * scale
    chosen = (rng.choice(len(monomials), size=min(3, len(monomials)), replace=False)
              if kind == 1 else range(len(monomials)))
    return Poly({monomials[i]: scale * complex(*rng.standard_normal(2)) for i in chosen})


def test_holomorphy_system_is_bit_equal_to_the_polynomial_route():
    # rho0, R and scale match the term-by-term system exactly, zero signs aside
    rng = np.random.default_rng(20261019)
    for _ in range(120):
        P0 = random_symbol(rng, int(rng.integers(2, 7)))
        p_diffs = [P0.diff(j) for j in range(4)]
        for orientation in (1, -1):
            basis = structure_basis(orientation)
            got = symbol._holomorphy_system(p_diffs, basis)
            want = reference_holomorphy_system(p_diffs, basis)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert got[1].flags["C_CONTIGUOUS"]


def exact_sphere_solve(rho0, R, u):
    """(-b / ||b||, ||b||, ||rho0 + R u||) for b = R^T rho0, evaluated in
    50-digit decimal from the exact values of the floats, at the given u."""
    with decimal.localcontext(decimal.Context(prec=50)):
        r = [Decimal(x) for x in rho0.tolist()]
        M = [[Decimal(x) for x in row] for row in R.tolist()]
        b = [sum((row[a] * r_k for row, r_k in zip(M, r)), Decimal(0)) for a in range(3)]
        norm_b = sum(x * x for x in b).sqrt()
        u_exact = [-x / norm_b for x in b] if norm_b else None
        residual = sum((r_k + sum(row[a] * Decimal(u_a) for a, u_a in enumerate(u.tolist())))
                       ** 2 for row, r_k in zip(M, r)).sqrt()
    return u_exact, norm_b, residual


# the rounding bounds of the closed-form solve, in units of 2^-52: u is
# within 2 of them of -b/||b||, times the condition scale^2 / ||b|| of the
# direction of b (1 for a holomorphic symbol, where b = -scale^2 u), and the
# residual within 2 of them times scale of the exact ||rho0 + R u||
SOLVE_ULPS = 2.0


def test_symbol_solve_is_the_closed_form_to_the_rounding_floor():
    # on the symbols of the bit test above: u and the residual agree with a
    # 50-digit evaluation of -b/||b|| and ||rho0 + R u||, and the residual
    # with the general secular solver's to 1e-15 scale
    rng = np.random.default_rng(20261019)
    eps = 2.0 ** -52
    for _ in range(120):
        P0 = random_symbol(rng, int(rng.integers(2, 7)))
        p_diffs = [P0.diff(j) for j in range(4)]
        for orientation in (1, -1):
            rho0, R, scale = symbol._holomorphy_system(p_diffs, structure_basis(orientation))
            u, res = minimize_affine_on_sphere(rho0, R)
            u_exact, norm_b, res_exact = exact_sphere_solve(rho0, R, u)
            if u_exact is None:
                assert u.tolist() == [1.0, 0.0, 0.0]
            else:
                condition = scale ** 2 / float(norm_b)
                assert max(abs(float(Decimal(a) - e)) for a, e in zip(u.tolist(), u_exact)) <= (
                    SOLVE_ULPS * eps * condition)
            assert abs(float(Decimal(res) - res_exact)) <= SOLVE_ULPS * eps * scale
            assert abs(res - reference_sphere_solve(rho0, R)[1]) <= 1e-15 * scale


@pytest.mark.parametrize("P0", [
    Poly.variable(0) * Poly.variable(2),
    Poly.variable(0) * Poly.variable(0) + Poly.variable(1) * Poly.variable(1),
], ids=["x1x3", "abs_w1_squared"])
def test_a_vanishing_right_hand_side_gives_the_first_axis_and_no_candidate(P0):
    # R^T rho0 = 0 in both orientations: every unit u is a minimiser, the
    # first axis is returned, and the residual sqrt(||rho0||^2 + scale^2)
    # rejects it
    for orientation in (1, -1):
        rho0, R, scale = symbol._holomorphy_system([P0.diff(j) for j in range(4)],
                                                   structure_basis(orientation))
        assert not np.any(R.T @ rho0)
        u, res = minimize_affine_on_sphere(rho0, R)
        assert u.tolist() == [1.0, 0.0, 0.0]
        assert res >= scale
    data = symbol_polynomial(MorphismScenario("flat", FlatMetric(Box.cube(1.5)), P0),
                             np.zeros(4))
    assert data.candidates == ()


def assert_holomorphy_system_is_conformal(P0, orientation):
    """R^T R = scale^2 I for the holomorphy system of the symbol P0, to
    1e-13 relative: R has full rank, so the symbol admits at most one
    compatible structure of the orientation."""
    rho0, R, scale = symbol._holomorphy_system([P0.diff(j) for j in range(4)],
                                               structure_basis(orientation))
    assert scale > 0
    assert np.max(np.abs(R.T @ R - scale ** 2 * np.eye(3))) <= 1e-13 * scale ** 2


def candidate_orientations(data) -> list:
    return sorted(c.orientation for c in data.candidates)


@st.composite
def homogeneous_symbols(draw) -> Poly:
    """A nonconstant homogeneous symbol of order 1 to 6 with coefficient
    moduli from 1e-6 to 1e6: holomorphic in (w1, w2) or in (w1, conj w2),
    so at least one orientation admits a structure, or a sparse mix of
    monomials in the real coordinates, which usually admits none."""
    degree = draw(st.integers(1, symbol.MAX_JET_ORDER))
    coefficient = st.builds(lambda log_modulus, phase: 10.0 ** log_modulus * cmath.exp(1j * phase),
                            st.floats(-6.0, 6.0), st.floats(0.0, 2.0 * math.pi))
    kind = draw(st.sampled_from(["plus", "minus", "mixed"]))
    if kind == "mixed":
        monomials = [e for e in itertools.product(range(degree + 1), repeat=4)
                     if sum(e) == degree]
        return Poly(draw(st.dictionaries(st.sampled_from(monomials), coefficient,
                                         min_size=1, max_size=4)))
    terms = draw(st.dictionaries(st.integers(0, degree), coefficient, min_size=1))
    P0 = from_complex_pair({(a, degree - a): c for a, c in terms.items()})
    if kind == "plus":
        return P0
    x = [Poly.variable(k) for k in range(4)]
    return P0.compose([x[0], x[1], x[2], -x[3]])


@settings(max_examples=60, deadline=None)
@given(P0=homogeneous_symbols())
def test_random_symbols_have_a_conformal_system_and_one_structure_per_orientation(P0):
    for orientation in (1, -1):
        assert_holomorphy_system_is_conformal(P0, orientation)
    data = symbol_polynomial(MorphismScenario("random", FlatMetric(Box.cube(1.5)), P0),
                             np.zeros(4))
    orientations = candidate_orientations(data)
    assert len(orientations) == len(set(orientations))


@pytest.mark.parametrize("name", ["pullback_z1z2", "z1sq", "z1z2", "z1z2_cubic"])
def test_catalog_centers_have_a_conformal_system_and_one_structure_per_orientation(name):
    config = ScenarioConfig.from_dict(catalog_configs()[name])
    scenario = build_scenario(config)
    for center in config.critical_points:
        data = symbol_polynomial(scenario, center)
        for orientation in (1, -1):
            assert_holomorphy_system_is_conformal(
                data.homogeneous, orientation * data.chart.scenario.orientation)
        orientations = candidate_orientations(data)
        assert orientations and len(orientations) == len(set(orientations))


def test_certifying_a_candidate_takes_two_wirtinger_derivatives(monkeypatch):
    # the conjugate derivatives in both complex directions certify; the
    # holomorphic coefficients are derived once, on their first read
    calls = count_calls(monkeypatch, symbol, "_wirtinger")
    data = symbol_polynomial(scenario_square(), np.zeros(4))
    assert len(data.candidates) == 2
    assert len(calls) == 2 * len(data.candidates)
    first = data.candidates[0].coefficients
    # order 2: two derivatives for each of the three coefficients
    assert len(calls) == 2 * len(data.candidates) + 6
    assert data.candidates[0].coefficients is first
    assert len(calls) == 2 * len(data.candidates) + 6


def scaled_catalog_config(name, factor) -> dict:
    cfg = catalog_configs()[name]
    for term in cfg["map"]["coefficients"]:
        term["re"] *= factor
        term["im"] *= factor
    return cfg


def test_a_symbol_scale_past_the_largest_float_is_rejected():
    # the coefficients of 1e308 z1 z2 are finite but their norm is not: a
    # gate against an infinite scale would accept any residual
    scenario = build_scenario(ScenarioConfig.from_dict(scaled_catalog_config("z1z2", 1e308)))
    with pytest.raises(SymbolError, match="overflow"):
        symbol_polynomial(scenario, np.zeros(4))


@pytest.mark.parametrize("factor", [1e-30, 1e-8, 1e8, 1e100, 1e155, 1e200, 1e300])
@pytest.mark.parametrize("name", ["z1z2", "z1sq", "pullback_z1z2"])
def test_symbol_is_scale_free(name, factor):
    # a map times a constant has the same symbol order, orientations and
    # compatible structures
    def solve(f):
        scenario = build_scenario(ScenarioConfig.from_dict(scaled_catalog_config(name, f)))
        return symbol_polynomial(scenario, np.zeros(4))

    base, scaled = solve(1.0), solve(factor)
    assert scaled.order == base.order
    assert [c.orientation for c in scaled.candidates] == [c.orientation for c in base.candidates]
    for got, want in zip(scaled.candidates, base.candidates):
        assert np.allclose(got.fiber, want.fiber, rtol=0, atol=1e-12)
        assert got.antiholomorphic_max <= symbol.ANTIHOLO_REL
        assert set(got.coefficients) == set(want.coefficients)
