"""A 50-digit reference for the structures J+ and J-.

At dyadic points the metric g and the differential A = dF of a chart are
exact rationals, so the structures J = -g^-1 (w + s *w), s = +-1, of the
unit 2-form w = A_1 ^ A_2 / sqrt(det A g^-1 A^T), with (*w)_kl = 1/2
sqrt(det g) eps_ijkl w^ij, are taken here with fractions.Fraction, and only
the two square roots in decimal at 50 digits. The charts are
`pullback_z1z2`, whose metric and map are written out from the polynomial
chart change of its config, and z1 z2 under the conformally flat metric
(1 + (x1^2 + x2^2) / 2) delta. The error of a float structure is its largest
entry error in units of the ulp of the largest entry of the reference.

    PYTHONPATH=src python tests/test_structure_reference.py

prints the worst error of the closed form of the geometry stack and of the
frame structures B K B^-1 carried by its splitting frames, for both charts.
"""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from morphoscope.calculus import holomorphic_scenario
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.geometry import Box, PolynomialMetric
from morphoscope.morphism import geometry_stack
from morphoscope.polynomials import Poly

from test_morphism import field, frame_structures

DIGITS = 50
# the worst closed-form error is 3.5 ulps of the largest entry of J at the
# points below and 4.6 ulps over 450 more seeded dyadic points per chart,
# where the frame structures reach 22 ulps
ULP_BOUND = 16
EPS = {p: (-1) ** sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
       for p in itertools.permutations(range(4))}


def monomial_jet(terms, x):
    """(value, gradient) of a sum of monomials {"exponents", "value"} at
    the rational point x, exactly."""
    value, grad = Fraction(0), [Fraction(0)] * 4
    for term in terms:
        e, c = term["exponents"], Fraction(term["value"])
        value += c * math.prod([x[k] ** e[k] for k in range(4)])
        for a in range(4):
            if e[a]:
                grad[a] += c * e[a] * math.prod([x[k] ** (e[k] - (k == a)) for k in range(4)])
    return value, grad


def z1z2_differential(y):
    """dF of z1 z2 = (y1 y3 - y2 y4, y1 y4 + y2 y3) at y."""
    return [[y[2], -y[3], y[0], -y[1]], [y[3], y[2], y[1], y[0]]]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def inverse(a):
    """The inverse of a rational matrix by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [u - rows[r][col] * v for u, v in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def determinant(a):
    """The determinant of a 2 x 2 or 4 x 4 rational matrix, by the Leibniz
    formula."""
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return sum(sign * math.prod(a[i][p[i]] for i in range(4)) for p, sign in EPS.items())


def reference_structures(g, A, orientation):
    """(J+, J-) as (4, 4) lists of Decimals at DIGITS digits, from the
    exact rational g and A."""
    G = inverse(g)
    M = matmul(matmul(A, G), transpose(A))
    W = [[A[0][i] * A[1][j] - A[0][j] * A[1][i] for j in range(4)] for i in range(4)]
    P = matmul(G, W)
    up = matmul(P, G)
    H = [[Fraction(1, 2) * sum(EPS.get((i, j, k, l), 0) * up[i][j]
                               for i in range(4) for j in range(4)) for l in range(4)]
         for k in range(4)]
    Q = matmul(G, H)
    with localcontext() as ctx:
        ctx.prec = DIGITS

        def dec(q):
            return Decimal(q.numerator) / Decimal(q.denominator)

        size, volume = dec(determinant(M)).sqrt(), dec(determinant(g)).sqrt()
        return tuple([[-dec(P[i][j]) / size - s * volume / size * dec(Q[i][j]) for j in range(4)]
                      for i in range(4)] for s in (orientation, -orientation))


def ulps(J, reference) -> float:
    """The largest entry error of the float matrix J in ulps of the largest
    entry of the reference."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        error = max(abs(Decimal(float(J[i][j])) - reference[i][j])
                    for i in range(4) for j in range(4))
        scale = max(abs(v) for row in reference for v in row)
    return float(error) / float(np.spacing(float(scale)))


def pullback_chart():
    """pullback_z1z2 and its exact (g, dF) at a rational point: g = dPhi^T
    dPhi and dF = dF0(Phi) dPhi for the chart change Phi of the config."""
    raw = catalog_configs()["pullback_z1z2"]
    components = raw["diffeo"]["components"]

    def exact(x):
        jets = [monomial_jet(terms, x) for terms in components]
        image, dphi = [v for v, _ in jets], [d for _, d in jets]
        return matmul(transpose(dphi), dphi), matmul(z1z2_differential(image), dphi)

    return build_scenario(ScenarioConfig.from_dict(raw)), exact


def conformal_chart():
    """z1 z2 under (1 + (x1^2 + x2^2) / 2) delta and its exact (g, dF)."""
    x = [Poly.variable(k) for k in range(4)]
    factor = Poly.constant(1.0) + 0.5 * x[0] * x[0] + 0.5 * x[1] * x[1]
    entries = [[factor if i == j else Poly.zero() for j in range(4)] for i in range(4)]
    scenario = holomorphic_scenario("z1z2_conformal", {(1, 1): 1.0},
                                    PolynomialMetric(entries, Box.cube(1.0)))

    def exact(x):
        c = 1 + (x[0] ** 2 + x[1] ** 2) / 2
        return [[c * (i == j) for j in range(4)] for i in range(4)], z1z2_differential(x)

    return scenario, exact


CHARTS = {"pullback_z1z2": pullback_chart, "conformal_z1z2": conformal_chart}


def dyadic_points(n=12, seed=5):
    """n seeded points with coordinates k / 16, |k| <= 12, away from the
    critical plane z1 = z2 = 0."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        k = rng.integers(-12, 13, size=4)
        if (k ** 2).sum() >= 16:
            points.append(k / 16.0)
    return np.array(points)


def structure_errors(name) -> dict:
    """The worst error, in ulps, of J+ and J- of the closed form and of the
    frame structures over the chart's dyadic points."""
    scenario, exact = CHARTS[name]()
    points = dyadic_points()
    stack = geometry_stack(scenario, points)
    worst = {"closed_form": 0.0, "frame": 0.0}
    for i, m in enumerate(points):
        g, A = exact([Fraction(v) for v in m])
        references = reference_structures(g, A, scenario.orientation)
        frames = frame_structures(field(stack, i, "horizontal"), field(stack, i, "vertical"))
        closed = (field(stack, i, "j_plus"), field(stack, i, "j_minus"))
        for reference, J, frame in zip(references, closed, frames):
            worst["closed_form"] = max(worst["closed_form"], ulps(J, reference))
            worst["frame"] = max(worst["frame"], ulps(frame, reference))
    return worst


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_the_closed_form_structures_meet_a_50_digit_reference(name):
    assert structure_errors(name)["closed_form"] <= ULP_BOUND


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_the_reference_is_the_frame_structure(name):
    # the frames agree with the reference to rounding, so the reference
    # is the structure the splitting frames carry
    assert structure_errors(name)["frame"] <= 4 * ULP_BOUND


if __name__ == "__main__":
    for name in sorted(CHARTS):
        errors = structure_errors(name)
        print(f"{name}: closed form {errors['closed_form']:.2f} ulp, "
              f"frame {errors['frame']:.2f} ulp")
