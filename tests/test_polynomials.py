"""The one table-evaluation rule of polynomials.py.

Oracle: each entry of a table differentiated and evaluated on its own, filled
into its array by written-out loops. The metric, the map's jets and the
callable pullback must equal it bit for bit, and the flat-base pullback must
equal the sum over i of d_a Phi_i d_b Phi_i coefficient for coefficient. A
compiled table evaluated over a stack must equal Poly.eval at each point bit
for bit, overflows included.
"""

from __future__ import annotations

import numpy as np
import pytest

from morphoscope.calculus import MorphismScenario, normalized_scenario
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.geometry import (
    Box, CallableMetric, FlatMetric, PolynomialMetric, ProductSphereMetric, pullback_metric,
)
from morphoscope.polynomials import UPPER, Poly, Table, evaluate, from_complex_pair, symmetric

from test_geometry import quadratic_bump_metric


def written_out_metric(metric, m):
    g, d1, d2 = np.empty((4, 4)), np.empty((4, 4, 4)), np.empty((4, 4, 4, 4))
    for entry, (i, j) in zip(metric.upper, UPPER):
        g[i, j] = g[j, i] = entry.eval(m).real
        for k in range(4):
            dk = entry.diff(k)
            d1[k, i, j] = d1[k, j, i] = dk.eval(m).real
            for l in range(4):
                d2[k, l, i, j] = d2[k, l, j, i] = dk.diff(l).eval(m).real
    return g, d1, d2


def written_out_jets(scenario, m):
    jac, hess = np.zeros((2, 4)), np.zeros((2, 4, 4))
    for k in range(4):
        dk = scenario.component.diff(k)
        c = dk.eval(m)
        jac[0, k], jac[1, k] = c.real, c.imag
        for l in range(k, 4):
            c = dk.diff(l).eval(m)
            hess[0, k, l] = hess[0, l, k] = c.real
            hess[1, k, l] = hess[1, l, k] = c.imag
    return jac, hess


def catalog_pullback():
    return build_scenario(ScenarioConfig.from_dict(catalog_configs()["pullback_z1z2"]))


def gentle_diffeo():
    x = [Poly.variable(k) for k in range(4)]
    return [x[0] + 0.1 * x[1] * x[1], x[1] + 0.05 * x[2] * x[3],
            x[2] - 0.08 * x[0] * x[1], x[3] + 0.06 * x[0] * x[0]]


def test_symmetric_mirrors_the_upper_entries():
    upper = np.arange(2 * len(UPPER), dtype=float).reshape(2, -1)
    table = symmetric(upper)
    assert table.shape == (2, 4, 4) and table.flags["C_CONTIGUOUS"]
    for n, (i, j) in enumerate(UPPER):
        assert table[1, i, j] == table[1, j, i] == upper[1, n]


@pytest.mark.parametrize("chart", ["pullback_z1z2", "normal chart at 0"])
def test_tables_equal_the_written_out_loops_bitwise(chart):
    scenario = catalog_pullback()
    if chart != "pullback_z1z2":
        scenario = normalized_scenario(scenario, np.zeros(4)).scenario
    rng = np.random.default_rng(5)
    half = 0.5 * scenario.domain.size()
    for m in rng.uniform(-half, half, size=(6, 4)):
        metric = scenario.metric
        g, d1, d2 = written_out_metric(metric, m)
        assert np.array_equal(metric.matrix(m), g)
        assert np.array_equal(metric.first_derivatives(m), d1)
        assert np.array_equal(metric.second_derivatives(m), d2)
        jac, hess = written_out_jets(scenario, m)
        assert np.array_equal(scenario.jacobian(m), jac)
        assert np.array_equal(scenario.hessians(m), hess)


def test_callable_pullback_equals_the_written_out_product_bitwise():
    base = ProductSphereMetric(1.0, Box((0.5, -1.0, -1.0, -1.0), (2.5, 1.0, 1.0, 1.0)))
    phi = [p + (1.5 if k == 0 else 0.0) for k, p in enumerate(gentle_diffeo())]
    pulled = pullback_metric(base, phi, Box.cube(0.5))
    assert isinstance(pulled, CallableMetric)
    rng = np.random.default_rng(6)
    for m in rng.uniform(-0.4, 0.4, size=(6, 4)):
        J = np.array([[phi[i].diff(a).eval(m).real for a in range(4)] for i in range(4)])
        y = np.array([p.eval(m).real for p in phi])
        expected = J.T @ base.matrix(y) @ J
        assert np.array_equal(pulled.matrix(m), 0.5 * (expected + expected.T))


def flat_pullback_entry(phi, a, b):
    s = Poly.zero()
    for i in range(4):
        s = s + phi[i].diff(a) * phi[i].diff(b)
    return s.real_poly()


@pytest.mark.parametrize("diffeo", ["catalog", "gentle"])
def test_flat_pullback_equals_the_flat_formula_coefficient_for_coefficient(diffeo):
    if diffeo == "catalog":
        spec = catalog_configs()["pullback_z1z2"]["diffeo"]["components"]
        phi = [sum((Poly({tuple(m["exponents"]): m["value"]}) for m in comp), Poly.zero())
               for comp in spec]
    else:
        phi = gentle_diffeo()
    pulled = pullback_metric(FlatMetric(Box.cube(2.0)), phi, Box.cube(0.5))
    for entry, (a, b) in zip(pulled.upper, UPPER):
        expected = flat_pullback_entry(phi, a, b)
        assert list(entry.coeffs.items()) == list(expected.coeffs.items())


@pytest.fixture
def diff_calls(monkeypatch) -> list:
    calls = []
    diff = Poly.diff

    def counted(self, k):
        calls.append(k)
        return diff(self, k)

    monkeypatch.setattr(Poly, "diff", counted)
    return calls


def test_a_polynomial_metric_differentiates_only_what_it_reads(diff_calls):
    entries = symmetric(quadratic_bump_metric().upper)
    diff_calls.clear()
    metric = PolynomialMetric(entries, Box.cube(1.0))
    # 10 upper entries, 4 first and 16 second derivatives of each
    assert len(diff_calls) == 10 * 4 + 10 * 16
    assert metric.second_derivatives(np.zeros(4)).shape == (4, 4, 4, 4)


def test_a_scenario_differentiates_only_what_it_reads(diff_calls):
    component = Poly.variable(0) * Poly.variable(2)
    MorphismScenario("count", FlatMetric(Box.cube(1.0)), component)
    # 4 first derivatives and the 10 Hessian entries with k <= l
    assert len(diff_calls) == 4 + 10


# ------------------------------------------------------- compiled tables


def catalog_tables() -> dict:
    """Every table the catalog charts evaluate, their normal charts' included."""
    tables = {}
    for name, raw in sorted(catalog_configs().items()):
        config = ScenarioConfig.from_dict(raw)
        charts = [("", build_scenario(config))]
        charts += [(f" normal at {c}", normalized_scenario(charts[0][1], np.asarray(c, float)))
                   for c in config.critical_points or []]
        for label, chart in charts:
            scenario = chart if isinstance(chart, MorphismScenario) else chart.scenario
            tables[f"{name}{label} jacobian"] = (scenario, scenario._d1)
            tables[f"{name}{label} hessians"] = (scenario, scenario._d2)
            if isinstance(scenario.metric, PolynomialMetric):
                tables[f"{name}{label} metric"] = (scenario, scenario.metric.upper)
                tables[f"{name}{label} d1"] = (scenario, scenario.metric._d1)
                tables[f"{name}{label} d2"] = (scenario, scenario.metric._d2)
    return tables


CATALOG_TABLES = catalog_tables()


def assert_table_equals_poly_eval(table, points):
    values = evaluate(table, points)
    assert values.shape == points.shape[:-1] + (len(table),)
    assert values.flags["C_CONTIGUOUS"]
    expected = np.array([[p.eval(m) for p in table] for m in points.reshape(-1, 4)])
    assert values.reshape(expected.shape).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(CATALOG_TABLES))
def test_compiled_tables_equal_poly_eval_bitwise(name):
    scenario, table = CATALOG_TABLES[name]
    lo, hi = np.asarray(scenario.domain.lo), np.asarray(scenario.domain.hi)
    points = np.random.default_rng(11).uniform(lo, hi, size=(3, 20, 4))
    assert_table_equals_poly_eval(table, points)
    # a point alone gives the values of its row
    assert evaluate(table, points[1, 3]).tobytes() == evaluate(table, points)[1, 3].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("exponent", [0, 50, 100, 200, 300])
def test_compiled_z1_cubed_z2_cubed_equals_poly_eval_in_overflow_boxes(exponent):
    # the flat z1^3 z2^3 chart of the exit-code tests: the powers overflow
    # to inf and the products to nan exactly where Poly.eval's do
    half = 10.0 ** exponent
    component = from_complex_pair({(3, 3): 1.0})
    table = Table([component] + [component.diff(k) for k in range(4)]
                  + [component.diff(k).diff(l) for k, l in UPPER])
    points = np.random.default_rng(exponent).uniform(-half, half, size=(40, 4))
    points[:4] = [[0.0, -0.0, 0.0, 0.0], [half, half, -half, half],
                  [np.nan, 0.5, 0.5, 0.5], [np.inf, -np.inf, 0.5, 0.5]]
    assert_table_equals_poly_eval(table, points)


def test_an_empty_table_and_an_empty_stack():
    table = Table([Poly.zero(), Poly.constant(2.0 - 1.0j)])
    assert evaluate(table, np.zeros((0, 4))).shape == (0, 2)
    assert evaluate(Table([]), np.zeros((3, 4))).shape == (3, 0)
    assert evaluate(table, np.ones(4)).tolist() == [0j, 2.0 - 1.0j]
