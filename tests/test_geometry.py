"""Geometry module tests.

Oracles used here and nowhere in the package:
  * fd_christoffel: Christoffel symbols from raw central differences of the
    metric matrix, assembled independently of the package formulas.
  * rk4_transport: parallel transport along a straight chart line by RK4,
    used to certify covariant_derivative (a transported field must have
    vanishing derivative along its own line).
Closed-form sphere values are frozen as literals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphoscope._linalg import spd_failures
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import DomainError, GeometryError
from morphoscope.geometry import (
    DEFAULT_FD_STEP, Box, FailureColumn, FlatMetric, PolynomialMetric, ProductSphereMetric,
    PullbackMetric, central_difference, central_nodes, christoffel, covariant_derivative,
    curvature_data, einstein_defect, metric_point, metric_rows, orthonormalize,
)
from morphoscope.polynomials import Poly, evaluate

# frozen closed forms for the round sphere chart at theta = pi/3
GAMMA_THETA_PHIPHI_PI3 = -0.4330127018922193  # -sin(pi/3) cos(pi/3)
GAMMA_PHI_THETAPHI_PI3 = 0.5773502691896258   # cot(pi/3)

SPHERE_DOMAIN = Box((0.35, -3.0, -1.0, -1.0), (np.pi - 0.35, 3.0, 1.0, 1.0))


def fd_christoffel(metric, m, h=1e-6):
    """Oracle: Gamma^k_ij from one-shot central differences of g."""
    m = np.asarray(m, dtype=float)
    g = metric.matrix(m)
    ginv = np.linalg.inv(g)
    dg = np.zeros((4, 4, 4))
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        dg[k] = (metric.matrix(m + h * e) - metric.matrix(m - h * e)) / (2 * h)
    gamma = np.zeros((4, 4, 4))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                s = 0.0
                for l in range(4):
                    s += ginv[k, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


def rk4_transport(metric, m0, X, v0, t_end, nsteps=400):
    """Oracle: parallel transport of v0 along t -> m0 + t X."""
    m0 = np.asarray(m0, dtype=float)
    X = np.asarray(X, dtype=float)
    v = np.asarray(v0, dtype=float).copy()
    dt = t_end / nsteps

    def rhs(t, v):
        gamma = fd_christoffel(metric, m0 + t * X)
        return -np.einsum("kij,i,j->k", gamma, X, v)

    t = 0.0
    for _ in range(nsteps):
        k1 = rhs(t, v)
        k2 = rhs(t + dt / 2, v + dt / 2 * k1)
        k3 = rhs(t + dt / 2, v + dt / 2 * k2)
        k4 = rhs(t + dt, v + dt * k3)
        v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return v


def quadratic_bump_metric():
    """Curved polynomial metric g = I + small quadratic perturbation."""
    x = [Poly.variable(k) for k in range(4)]
    one = Poly.constant(1.0)
    entries = [[Poly.zero() for _ in range(4)] for _ in range(4)]
    entries[0][0] = one + 0.2 * x[1] * x[1]
    entries[1][1] = one + 0.1 * x[0] * x[2]
    entries[2][2] = one + 0.15 * x[3] * x[3]
    entries[3][3] = one
    e01 = 0.05 * x[2] * x[3]
    entries[0][1] = e01
    entries[1][0] = e01
    e23 = 0.08 * x[0] * x[1]
    entries[2][3] = e23
    entries[3][2] = e23
    return PolynomialMetric(entries, Box.cube(1.0))


def constant_metric(matrix, domain):
    """The polynomial metric whose entries are the constants of matrix."""
    return PolynomialMetric([[Poly.constant(v) for v in row] for row in np.asarray(matrix)],
                            domain)


def written_out_richardson(f, x, e, h):
    """The Richardson central difference spelled out along e with step h."""
    d1 = (f(x + h * e) - f(x - h * e)) / (2 * h)
    d2 = (f(x + 0.5 * h * e) - f(x - 0.5 * h * e)) / h
    return (4.0 * d2 - d1) / 3.0


def fd_fallback(metric, m, h1=1e-4, h2=5e-4):
    """Oracle: first derivatives of the metric matrix by Richardson central
    differences and second ones by plain central differences, each along the
    coordinate axes, with the steps scaled to max(1, |m|)."""
    scale = max(1.0, float(np.max(np.abs(m))))
    h1, h2 = h1 * scale, h2 * scale
    basis = np.eye(4)
    d1 = np.array([written_out_richardson(metric.matrix, m, e, h1) for e in basis])
    d2 = np.zeros((4, 4, 4, 4))
    g0 = metric.matrix(m)
    for k, ek in enumerate(basis):
        d2[k, k] = (metric.matrix(m + h2 * ek) - 2.0 * g0 + metric.matrix(m - h2 * ek)) / h2 ** 2
        for l in range(k + 1, 4):
            el = basis[l]
            d2[k, l] = d2[l, k] = (
                metric.matrix(m + h2 * (ek + el)) - metric.matrix(m + h2 * (ek - el))
                - metric.matrix(m - h2 * (ek - el)) + metric.matrix(m - h2 * (ek + el))
            ) / (4 * h2 ** 2)
    return d1, d2


def test_sphere_christoffel_matches_frozen_closed_forms():
    metric = ProductSphereMetric(1.0, SPHERE_DOMAIN)
    m = np.array([np.pi / 3, 0.4, 0.0, 0.0])
    gamma = christoffel(metric, m)
    assert gamma[0, 1, 1] == pytest.approx(GAMMA_THETA_PHIPHI_PI3, abs=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(GAMMA_PHI_THETAPHI_PI3, abs=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(GAMMA_PHI_THETAPHI_PI3, abs=1e-12)
    # everything not forced by the sphere factor vanishes
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask[0, 1, 1] = mask[1, 0, 1] = mask[1, 1, 0] = mask[0, 0, 0] = True
    assert np.max(np.abs(gamma[~mask])) < 1e-14


def test_christoffel_against_fd_oracle_on_curved_metric():
    metric = quadratic_bump_metric()
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.uniform(-0.6, 0.6, size=4)
        exact = christoffel(metric, m)
        oracle = fd_christoffel(metric, m)
        assert np.max(np.abs(exact - oracle)) < 5e-9


def test_polynomial_metric_derivatives_match_fd_fallback():
    metric = quadratic_bump_metric()
    m = np.array([0.3, -0.2, 0.5, 0.1])
    fd1, fd2 = fd_fallback(metric, m)
    assert np.max(np.abs(metric.first_derivatives(m) - fd1)) < 1e-9
    assert np.max(np.abs(metric.second_derivatives(m) - fd2)) < 1e-6


def pairing(mp, X, Y, Z, W) -> float:
    """<R(X, Y)Z, W> at the metric point mp."""
    return float(np.einsum("ijkp,i,j,k,p->", mp.lowered, X, Y, Z, W))


def test_sphere_sectional_curvature_frozen():
    # <R(e1,e2)e2, e1> = 1/r^2 on the sphere factor, frame e1 = dr(theta)/r
    for radius, expected in [(1.0, 1.0), (2.0, 0.25)]:
        metric = ProductSphereMetric(radius, SPHERE_DOMAIN)
        m = np.array([np.pi / 3, 0.4, 0.2, -0.3])
        e1 = np.array([1.0 / radius, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0 / (radius * np.sin(m[0])), 0.0, 0.0])
        data = curvature_data(metric, m)
        k = pairing(data, e1, e2, e2, e1)
        assert k == pytest.approx(expected, abs=1e-10)
        # plane factor and mixed blocks are flat
        e3 = np.array([0.0, 0.0, 1.0, 0.0])
        assert abs(pairing(data, e1, e3, e3, e1)) < 1e-12
        assert abs(pairing(data, e3, e2, e2, e3)) < 1e-12


def test_riemann_symmetries_on_curved_metric():
    metric = quadratic_bump_metric()
    data = curvature_data(metric, np.array([0.25, -0.4, 0.1, 0.3]))
    R = data.lowered
    assert np.max(np.abs(R + np.einsum("jikp->ijkp", R))) < 1e-12
    assert np.max(np.abs(R + np.einsum("ijpk->ijkp", R))) < 1e-12
    assert np.max(np.abs(R - np.einsum("kpij->ijkp", R))) < 1e-12
    bianchi = R + np.einsum("jkip->ijkp", R) + np.einsum("kijp->ijkp", R)
    assert np.max(np.abs(bianchi)) < 1e-12


def test_lowered_curvature_of_a_stack_is_that_of_its_points():
    # the curvature of a stack of points is derived over the whole stack,
    # and each row equals, bit for bit, the curvature at its point alone
    metric = quadratic_bump_metric()
    points = np.random.default_rng(1).uniform(-0.4, 0.4, size=(7, 4))
    stacked = metric_point(metric, points).lowered
    for row, m in zip(stacked, points):
        assert np.array_equal(row, metric_point(metric, m).lowered)


def einsum_lowered(mp) -> np.ndarray:
    """Reference: the lowered curvature of a record, contracted index by
    index with einsum."""
    dg, d2g, ginv, gamma = mp.dg, mp.d2g, mp.inverse, mp.gamma
    S = np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg) - dg
    dS = np.einsum("...ijmk->...imjk", d2g) + np.einsum("...ikmj->...imjk", d2g) - d2g
    dginv = -(ginv[..., None, :, :] @ dg @ ginv[..., None, :, :])
    dgamma = 0.5 * (np.einsum("...ilm,...mjk->...iljk", dginv, S)
                    + np.einsum("...lm,...imjk->...iljk", ginv, dS))
    upper = (np.einsum("...iljk->...lijk", dgamma) - np.einsum("...jlik->...lijk", dgamma)
             + np.einsum("...lim,...mjk->...lijk", gamma, gamma)
             - np.einsum("...ljm,...mik->...lijk", gamma, gamma))
    return np.einsum("...lijk,...lp->...ijkp", upper, mp.g)


def curved_pullback():
    """The product sphere pulled back by a gentle polynomial map, whose
    curvature is the sphere's, not rounding noise as on a flat base."""
    x = [Poly.variable(k) for k in range(4)]
    phi = [x[0] + 1.5 + 0.1 * x[1] * x[1], x[1] + 0.05 * x[2] * x[3],
           x[2] - 0.08 * x[0] * x[1], x[3] + 0.06 * x[0] * x[0]]
    return PullbackMetric(ProductSphereMetric(1.3, SPHERE_DOMAIN), phi, Box.cube(0.5))


@pytest.mark.parametrize("name", ["product_sphere", "pullback_product_sphere"])
def test_lowered_curvature_matches_the_einsum_contractions(name):
    if name == "product_sphere":
        metric, lo, hi = ProductSphereMetric(1.3, SPHERE_DOMAIN), SPHERE_DOMAIN.lo, SPHERE_DOMAIN.hi
    else:
        metric, lo, hi = curved_pullback(), -0.5, 0.5
    rng = np.random.default_rng(5)
    for _ in range(5):
        points = rng.uniform(lo, hi, size=(9, 4))
        expected = einsum_lowered(metric_point(metric, points))
        R = metric_point(metric, points).lowered
        assert np.max(np.abs(expected)) > 0.1
        assert np.max(np.abs(R - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_flat_metric_curvature_vanishes():
    metric = FlatMetric(Box.cube(1.0))
    data = curvature_data(metric, np.zeros(4))
    assert np.max(np.abs(data.lowered)) == 0.0


def test_pullback_polynomial_metric_exact_and_invariant():
    base = quadratic_bump_metric()
    x = [Poly.variable(k) for k in range(4)]
    # gentle polynomial diffeomorphism of the cube into the base domain
    phi = [x[0] + 0.1 * x[1] * x[1],
           x[1] + 0.05 * x[2] * x[3],
           x[2] - 0.08 * x[0] * x[1],
           x[3] + 0.06 * x[0] * x[0]]
    dom = Box.cube(0.5)
    pulled = PullbackMetric(base, phi, dom)
    rng = np.random.default_rng(3)
    for _ in range(4):
        m = rng.uniform(-0.4, 0.4, size=4)
        J = np.array([[phi[i].diff(a).eval(m).real for a in range(4)] for i in range(4)])
        y = np.array([phi[i].eval(m).real for i in range(4)])
        assert np.max(np.abs(pulled.record(m).g - J.T @ base.matrix(y) @ J)) < 1e-13
        # scalar invariance: sectional curvature of corresponding planes
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        k_pull = pairing(curvature_data(pulled, m), u, v, v, u)
        k_base = pairing(curvature_data(base, y), J @ u, J @ v, J @ v, J @ u)
        assert k_pull == pytest.approx(k_base, abs=1e-4 * max(1.0, abs(k_base)))


def test_orthonormalize_sphere_phi_direction_frozen():
    radius = 2.0
    metric = ProductSphereMetric(radius, SPHERE_DOMAIN)
    m = np.array([np.pi / 2, 0.0, 0.0, 0.0])
    fr = orthonormalize(metric_point(metric, m).g, [np.array([0.0, 1.0, 0.0, 0.0])])
    assert fr.shape == (1, 4)
    assert np.allclose(fr[0], [0.0, 1.0 / radius, 0.0, 0.0], atol=1e-14)


def test_orthonormalize_skips_dependent_seeds_and_completes():
    metric = FlatMetric(Box.cube(1.0))
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    fr = orthonormalize(metric_point(metric, np.zeros(4)).g,
                        [e1, 2.0 * e1, np.array([1.0, 1.0, 0.0, 0.0])], complete=True)
    assert fr.shape == (4, 4)
    gram = fr @ fr.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_orthonormalize_rejects_singular_metric():
    # a rank-degenerate metric is a geometry failure, caught before framing
    bad = constant_metric(np.diag([1.0, 1.0, 1.0, 0.0]), Box.cube(1.0))
    with pytest.raises(GeometryError):
        orthonormalize(metric_point(bad, np.zeros(4)).g, [], complete=True)


def test_covariant_derivative_of_transported_field_vanishes():
    metric = ProductSphereMetric(1.5, SPHERE_DOMAIN)
    m0 = np.array([1.1, 0.3, 0.0, 0.0])
    X = np.array([0.7, -0.4, 0.2, 0.0])
    v0 = np.array([0.3, 0.5, -0.2, 0.4])

    def field(x):
        # x sits on the line m0 + t X for the stencil samples
        t = float(np.dot(x - m0, X) / np.dot(X, X))
        return rk4_transport(metric, m0, X, v0, t, nsteps=60)

    d = covariant_derivative(metric, field, m0, X)
    assert np.linalg.norm(d) < 1e-6


def test_covariant_derivative_metric_compatibility():
    metric = quadratic_bump_metric()
    rng = np.random.default_rng(11)
    m = np.array([0.1, 0.2, -0.3, 0.15])
    X = rng.standard_normal(4)

    A = rng.standard_normal((4, 4)) * 0.3
    B = rng.standard_normal((4, 4)) * 0.3
    a0 = rng.standard_normal(4)
    b0 = rng.standard_normal(4)

    def V(x):
        return a0 + A @ (x - m)

    def W(x):
        return b0 + B @ (x - m)

    dV = covariant_derivative(metric, V, m, X)
    dW = covariant_derivative(metric, W, m, X)
    g = metric.matrix(m)
    lhs_fd = 0.0
    h = 1e-6
    gp = metric.matrix(m + h * X)
    gm = metric.matrix(m - h * X)
    lhs_fd = (V(m + h * X) @ gp @ W(m + h * X) - V(m - h * X) @ gm @ W(m - h * X)) / (2 * h)
    rhs = dV @ g @ W(m) + V(m) @ g @ dW
    assert lhs_fd == pytest.approx(rhs, abs=5e-8)


def test_covariant_derivative_tensor_leibniz():
    # (nabla_X (T v)) = (nabla_X T) v + T (nabla_X v) for a linear field pair
    metric = quadratic_bump_metric()
    rng = np.random.default_rng(5)
    m = np.array([-0.2, 0.1, 0.25, -0.1])
    X = rng.standard_normal(4)
    T0 = rng.standard_normal((4, 4))
    T1 = rng.standard_normal((4, 4, 4)) * 0.2
    v0 = rng.standard_normal(4)
    Vmat = rng.standard_normal((4, 4)) * 0.4

    def T(x):
        return T0 + np.einsum("ijk,k->ij", T1, x - m)

    def v(x):
        return v0 + Vmat @ (x - m)

    def Tv(x):
        return T(x) @ v(x)

    lhs = covariant_derivative(metric, Tv, m, X)
    rhs = covariant_derivative(metric, T, m, X) @ v0 + T0 @ covariant_derivative(metric, v, m, X)
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_difference_fallbacks_share_the_central_difference_rule():
    # the one central-difference rule of the package, which the covariant
    # and vertical derivatives read at their stencils, is the written-out
    # Richardson formula bit for bit, for a matrix field on the chart and
    # for a point of a surface patch
    def wavy(x):
        return (np.eye(4) + 0.1 * np.outer(np.sin(x), np.cos(x))
                + 0.1 * np.outer(np.cos(x), np.sin(x)))

    m = np.array([0.3, -0.9, 0.7, 0.2])
    h = 1e-4
    shared = np.array([central_difference([wavy(x) for x in central_nodes(m, e, h)], h)
                       for e in np.eye(4)])
    written = np.array([written_out_richardson(wavy, m, e, h) for e in np.eye(4)])
    assert np.array_equal(shared, written)

    def psi(p):
        s, t = p
        return np.array([s, t, np.sin(s * t), s * s - t])

    p = np.array([0.4, -0.35])
    h = 1e-5
    shared = np.column_stack([central_difference([psi(q) for q in central_nodes(p, e, h)], h)
                              for e in np.eye(2)])
    written = np.column_stack([written_out_richardson(psi, p, e, h) for e in np.eye(2)])
    assert np.array_equal(shared, written)
    s, t = p
    exact = np.array([[1.0, 0.0], [0.0, 1.0], [t * np.cos(s * t), s * np.cos(s * t)],
                      [2.0 * s, -1.0]])
    assert np.max(np.abs(shared - exact)) < 1e-9


def written_out_stencil(m, X, step):
    """(t, nodes) of one point's stencil by the scalar rule, written out."""
    h = step if step is not None else DEFAULT_FD_STEP * max(1.0, float(np.max(np.abs(m))))
    t = h / max(1.0, float(np.linalg.norm(X)))
    return t, tuple(m + s * X for s in (t, -t, 0.5 * t, -0.5 * t))


def test_covariant_derivative_samples_the_written_out_stencil():
    # the field is read at the four nodes of the scalar rule, bit for bit,
    # then at the point, for steps given and left to the default
    metric = FlatMetric(Box.cube(10.0))
    rng = np.random.default_rng(5)
    m = rng.uniform(-4.0, 4.0, (7, 4))
    X = rng.standard_normal((7, 4)) * [[0.1], [1.0], [3.0], [1.0], [1e-3], [7.0], [1.0]]
    steps = [None, 1e-3, 2e-4, None, 1e-5, 3e-2, None]
    for i in range(7):
        seen = []
        covariant_derivative(metric, lambda x: seen.append(x) or x, m[i], X[i], steps[i])
        _, nodes = written_out_stencil(m[i], X[i], steps[i])
        assert np.array_equal(np.array(seen), np.array([*nodes, m[i]]))


@pytest.mark.parametrize("m, X, step, error, message", [
    ([1.0 - 1e-4, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1e-3,
     DomainError, "point [1.0009, 0.0, 0.0, 0.0] leaves"),
    ([-1.0 + 1e-4, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1e-3,
     DomainError, "point [-1.0009, 0.0, 0.0, 0.0] leaves"),
    ([0.5, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], 1e-17,
     GeometryError, "finite difference step 1.000e-17 is below the resolution at "
                    "[0.5, 0.0, 0.0, 0.0]"),
    ([0.2, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], 1e-3, ValueError, "direction must be nonzero"),
], ids=["node_leaves_the_box", "backward_node_leaves_the_box", "step_below_the_resolution",
        "zero_direction"])
def test_covariant_derivative_rejects_its_stencil(m, X, step, error, message):
    # a node outside the box, on either side of the point, a step that moves no node past rounding and a
    # zero direction are each rejected before the field is read
    metric = FlatMetric(Box.cube(1.0))
    seen = []
    with pytest.raises(error) as info:
        covariant_derivative(metric, lambda x: seen.append(x) or x,
                             np.array(m), np.array(X), step)
    assert message in str(info.value)
    assert seen == []


def contains_converting_per_call(box, m):
    """Box.contains as it read with lo and hi converted on every call."""
    m = np.asarray(m, dtype=float)
    inside = np.all((m >= np.asarray(box.lo)) & (m <= np.asarray(box.hi)), axis=-1)
    return inside if inside.ndim else bool(inside)


@pytest.mark.parametrize("box", [
    Box.cube(1.0), SPHERE_DOMAIN, Box((-1, 0, -2, 3), (1, 2, 0, 5)),
    Box((0.6, -0.6), (1.6, 0.6)),
])
def test_box_contains_equals_the_per_call_conversion(box):
    lo, hi = np.asarray(box.lo, dtype=float), np.asarray(box.hi, dtype=float)
    centre = 0.5 * (lo + hi)
    points = [lo, hi, centre, np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf),
              np.where(np.arange(len(lo)) == 0, hi, lo),
              np.where(np.arange(len(lo)) == 1, np.nextafter(hi, np.inf), centre),
              np.where(np.arange(len(lo)) == 0, np.nan, centre),
              np.where(np.arange(len(lo)) == 0, np.inf, centre)]
    for x in points + [x.tolist() for x in points]:
        got, expected = box.contains(x), contains_converting_per_call(box, x)
        assert type(got) is type(expected) is bool
        assert got == expected
    stack = np.array(points)
    for m in (stack, stack.reshape(3, 3, -1), stack[:0]):
        got, expected = box.contains(m), contains_converting_per_call(box, m)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert box.size() == float(np.min(np.asarray(box.hi) - np.asarray(box.lo)))
    for x in points[:3]:
        assert box.boundary_distance(x) == float(min(np.min(x - np.asarray(box.lo)),
                                                     np.min(np.asarray(box.hi) - x)))


def test_domain_errors():
    metric = FlatMetric(Box.cube(1.0))
    with pytest.raises(DomainError):
        christoffel(metric, np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        covariant_derivative(metric, lambda x: x, np.array([1.0, 1.0, 1.0, 1.0]),
                             np.array([1.0, 0.0, 0.0, 0.0]))


def test_each_pullback_level_rejects_a_row_whose_image_leaves_its_base():
    # (x1 + 1/2, x2, x3, x4) into the pullback by (2 x1, x2, x3, x4) of the
    # flat cube 1, each on the cube 1: the first row leaves the middle
    # chart, the second only the flat base, two levels down
    x = [Poly.variable(k) for k in range(4)]
    middle = PullbackMetric(FlatMetric(Box.cube(1.0)), [2.0 * x[0], *x[1:]], Box.cube(1.0))
    metric = PullbackMetric(middle, [x[0] + 0.5, *x[1:]], Box.cube(1.0))
    m = np.array([[0.75, 0.0, 0.0, 0.0], [0.25, 0.0, 0.0, 0.0], [-0.75, 0.0, 0.0, 0.0]])
    failures = FailureColumn(np.zeros(3, dtype=bool))
    metric_rows(metric, m, failures)
    assert failures.failed.tolist() == [True, True, False]
    assert [failures.first[i] for i in (0, 1)] == [
        (DomainError, "point [0.75, 0.0, 0.0, 0.0] maps to [1.25, 0.0, 0.0, 0.0], "
                      "which leaves the base chart domain"),
        (DomainError, "point [0.25, 0.0, 0.0, 0.0] maps to [1.5, 0.0, 0.0, 0.0], "
                      "which leaves the base chart domain")]
    with pytest.raises(DomainError, match=r"^point \[0\.25, "):
        metric_point(metric, m[1])
    assert metric_point(metric, m[2]).g.tolist() == np.diag([4.0, 1.0, 1.0, 1.0]).tolist()


CATALOG_METRICS = {name: build_scenario(ScenarioConfig.from_dict(raw)).metric
                   for name, raw in sorted(catalog_configs().items())}


@pytest.mark.parametrize("name", sorted(CATALOG_METRICS))
def test_a_point_of_a_metric_stack_equals_the_metric_at_that_point_bitwise(name):
    metric = CATALOG_METRICS[name]
    lo, hi = np.asarray(metric.domain.lo), np.asarray(metric.domain.hi)
    margin = 0.05 * (hi - lo)
    stack = np.random.default_rng(5).uniform(lo + margin, hi - margin, size=(6, 4))
    record = metric_point(metric, stack)
    assert record.g.shape == (6, 4, 4)
    for i, m in enumerate(stack):
        alone = metric_point(metric, m)
        assert record.point[i].tobytes() == m.tobytes()
        for key in ("g", "dg", "inverse", "gamma", "sqrt_pair", "lowered"):
            stacked = np.asarray(getattr(record, key))
            # the square roots are a pair of stacks
            row = stacked[:, i] if key == "sqrt_pair" else stacked[i]
            assert row.tobytes() == np.asarray(getattr(alone, key)).tobytes(), (key, m.tolist())


@pytest.mark.parametrize("name", sorted(CATALOG_METRICS))
def test_the_einstein_defect_of_a_stack_is_that_of_each_point_alone_bitwise(name):
    # one defect per row of a 40-row record, each the defect of the record
    # of its point alone
    metric = CATALOG_METRICS[name]
    lo, hi = np.asarray(metric.domain.lo), np.asarray(metric.domain.hi)
    margin = 0.05 * (hi - lo)
    stack = np.random.default_rng(9).uniform(lo + margin, hi - margin, size=(40, 4))
    defects = einstein_defect(metric_point(metric, stack))
    assert defects.shape == (40,)
    alone = [einstein_defect(metric_point(metric, m)) for m in stack]
    assert all(np.shape(value) == () for value in alone)
    assert defects.tobytes() == np.array(alone).tobytes()


def test_a_point_of_a_stack_derives_nothing_again(metric_calls):
    # the curvature of a stack evaluates only the second derivatives, once
    # at each point; the pulled-back chart reads its base once at each
    # image point and evaluates nothing of its own
    metric = CATALOG_METRICS["pullback_z1z2"]
    stack = np.array([[0.1, -0.2, 0.05, 0.3], [-0.3, 0.1, 0.2, -0.1]])
    images = [(metric.base, *y) for y in evaluate(metric.diffeo, stack).real.tolist()]
    record = metric_point(metric, stack)
    record.gamma
    assert metric_calls["first_derivatives"] == images
    assert record.lowered.shape == (2, 4, 4, 4, 4)
    assert metric_calls["matrix"] == images
    assert metric_calls["first_derivatives"] == images
    assert metric_calls["second_derivatives"] == images


def test_non_spd_metric_raises():
    bad = constant_metric(np.diag([1.0, -1.0, 1.0, 1.0]), Box.cube(1.0))
    with pytest.raises(GeometryError):
        christoffel(bad, np.zeros(4))


def cholesky_fails(g) -> bool:
    """Whether np.linalg.cholesky rejects the one matrix g."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return True
    return False


def test_the_stacked_metric_checks_follow_cholesky_row_by_row():
    # symmetric matrices whose smallest eigenvalue spreads across zero, and
    # rows that are not finite or not symmetric: each row fails the first
    # check it breaks, and the pivots of the stack reject exactly the rows
    # that np.linalg.cholesky rejects one by one
    rng = np.random.default_rng(11)
    a = rng.standard_normal((400, 4, 4))
    g = a @ a.swapaxes(-1, -2) / 4 + rng.uniform(-3.0, 3.0, size=(400, 1, 1)) * np.eye(4)
    (non_finite, _), (asymmetric, _), (not_positive, _) = spd_failures(g)
    assert not non_finite.any() and not asymmetric.any()
    assert 0 < not_positive.sum() < len(g)
    assert not_positive.tolist() == [cholesky_fails(m) for m in g]
    g[3, 0, 1], g[5, 2, 2] = g[3, 0, 1] + 1e-3, np.inf
    checks = spd_failures(g)
    assert [rows[[3, 5]].tolist() for rows, _ in checks[:2]] == [[False, True], [True, False]]
    assert [reason for _, reason in checks] == [
        "has non-finite entries", "is not symmetric", "is not positive definite"]


@st.composite
def unit_vectors(draw):
    raw = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4))
    v = np.asarray(raw)
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([1.0, 0.0, 0.0, 0.0])
        n = 1.0
    return v / n


@settings(max_examples=40, deadline=None)
@given(u=unit_vectors(), v=unit_vectors(), w=unit_vectors())
def test_riemann_pairing_antisymmetry_property(u, v, w):
    metric = quadratic_bump_metric()
    m = np.array([0.2, -0.1, 0.3, 0.05])
    data = curvature_data(metric, m)
    assert pairing(data, u, v, w, w) == pytest.approx(0.0, abs=1e-10)
    assert pairing(data, u, v, v, u) == pytest.approx(-pairing(data, v, u, v, u), abs=1e-10)
