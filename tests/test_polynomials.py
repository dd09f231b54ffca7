"""The one jet rule of polynomials.py, and the pullback rule.

Oracle: each entry of a jet's order is its Poly.diff chain evaluated by
Poly.eval on its own, filled into its array by written-out loops. A
polynomial metric and the map's jets must equal it bit for bit, and so must
every order up to 3 of every catalog jet, over a stack, at a point alone, on
an empty stack and in the overflow boxes. An identically zero entry has no
term array, and the jets are derived without Poly.diff.

A pulled-back metric is checked against two references kept here: the
symbolic expansion dPhi^T (g o Phi) dPhi into a polynomial metric (whose
flat-base entries must equal the sum over i of d_a Phi_i d_b Phi_i
coefficient for coefficient), and the chain rule written out in loops.

A map given in the complex coordinates w1 = x1 + i x2, w2 = x3 + i x4 is
expanded by one composition; its values are checked against the sum
c_ab w1^a w2^b taken directly in complex arithmetic.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphoscope import geometry, polynomials, symbol
from morphoscope.calculus import MorphismScenario, normalized_scenario
from morphoscope.catalog import catalog_configs
from morphoscope.cli import main
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.geometry import (
    Box, FlatMetric, PolynomialMetric, ProductSphereMetric, PullbackMetric, metric_point,
)
from morphoscope.polynomials import UPPER, Jet, Poly, evaluate, from_complex_pair, symmetric

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


def cubic_diffeo():
    """gentle_diffeo with cubic terms, so d^3 Phi does not vanish."""
    x = [Poly.variable(k) for k in range(4)]
    phi = gentle_diffeo()
    return [phi[0] + 0.02 * x[0] * x[1] * x[2], phi[1], phi[2], phi[3] + 0.03 * x[0] * x[0] * x[3]]


def symbolic_metric(metric):
    """The symbolic pullback rule the package used to apply to flat and
    polynomial bases: a pulled-back metric, its base expanded first, as the
    polynomial metric whose entries are those of dPhi^T (g o Phi) dPhi."""
    if not isinstance(metric, PullbackMetric):
        return metric
    base, diffeo = symbolic_metric(metric.base), list(metric.diffeo)
    jac = [[diffeo[i].diff(a) for a in range(4)] for i in range(4)]
    g = ([Poly.constant(float(i == j)) for i, j in UPPER] if isinstance(base, FlatMetric)
         else [p.compose(diffeo) for p in base.upper])
    pulled = symmetric(g)
    # a zero entry adds nothing, so it is skipped
    terms = [(i, j) for i in range(4) for j in range(4) if pulled[i, j].coeffs]
    upper = []
    for a, b in UPPER:
        s = Poly.zero()
        for i, j in terms:
            s = s + jac[i][a] * pulled[i, j] * jac[j][b]
        upper.append(s.real_poly())
    return PolynomialMetric(symmetric(upper), metric.domain)


@pytest.mark.parametrize("chart", ["pullback_z1z2", "normal chart at 0"])
def test_tables_equal_the_written_out_loops_bitwise(chart):
    # a pulled-back chart's tables are read through its symbolic expansion
    scenario = catalog_pullback()
    if chart != "pullback_z1z2":
        scenario = normalized_scenario(scenario, np.zeros(4)).scenario
    metric = symbolic_metric(scenario.metric)
    rng = np.random.default_rng(5)
    half = 0.5 * scenario.domain.size()
    for m in rng.uniform(-half, half, size=(6, 4)):
        g, d1, d2 = written_out_metric(metric, m)
        assert np.array_equal(metric.matrix(m), g)
        assert np.array_equal(metric.first_derivatives(m), d1)
        assert np.array_equal(metric.second_derivatives(m), d2)
        jac, hess = written_out_jets(scenario, m)
        assert np.array_equal(scenario.jacobian(m), jac)
        assert np.array_equal(scenario.hessians(m), hess)


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
    pulled = symbolic_metric(PullbackMetric(FlatMetric(Box.cube(2.0)), phi, Box.cube(0.5)))
    for entry, (a, b) in zip(pulled.upper, UPPER):
        expected = flat_pullback_entry(phi, a, b)
        assert list(entry.coeffs.items()) == list(expected.coeffs.items())


SPHERE_BASE = ProductSphereMetric(1.0, Box((0.5, -1.0, -1.0, -1.0), (2.5, 1.0, 1.0, 1.0)))
SPHERE_DIFFEO = [p + (1.5 if k == 0 else 0.0) for k, p in enumerate(cubic_diffeo())]


def pullback_charts() -> dict:
    scenario = catalog_pullback()
    off_origin = np.array([0.1, 0.05, -0.02, 0.03])
    return {
        "pullback_z1z2": scenario.metric,
        "normal chart off the origin": normalized_scenario(scenario, off_origin).scenario.metric,
        "polynomial base": PullbackMetric(quadratic_bump_metric(), cubic_diffeo(), Box.cube(0.5)),
        "product_sphere base": PullbackMetric(SPHERE_BASE, SPHERE_DIFFEO, Box.cube(0.5)),
    }


PULLBACK_CHARTS = pullback_charts()
# the largest difference seen on these charts is 1.6e-15
SYMBOLIC_TOL = 1e-14


def chart_points(metric, n, seed):
    half = 0.8 * 0.5 * metric.domain.size()
    return np.random.default_rng(seed).uniform(-half, half, size=(n, 4))


@pytest.mark.parametrize("name", sorted(set(PULLBACK_CHARTS) - {"product_sphere base"}))
def test_pullback_matches_the_symbolic_reference(name):
    metric = PULLBACK_CHARTS[name]
    reference = symbolic_metric(metric)
    points = chart_points(metric, 6, seed=7)
    record, expected_record = metric.record(points), reference.record(points)
    for key in ("g", "dg", "d2g"):
        got, expected = getattr(record, key), getattr(expected_record, key)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= SYMBOLIC_TOL, key


def written_out_chain_rule(base, phi, m):
    """g, dg[c] = d_c g and d2g[c, d] = d_c d_d g of dPhi^T (g o Phi) dPhi
    at m, term by term from the base's exact derivatives at Phi(m)."""
    y = np.array([p.eval(m).real for p in phi])
    d1 = [[p.diff(a) for a in range(4)] for p in phi]
    J = np.array([[d1[i][a].eval(m).real for a in range(4)] for i in range(4)])
    H = np.array([[[d1[i][a].diff(c).eval(m).real for c in range(4)] for a in range(4)]
                  for i in range(4)])
    T = np.array([[[[d1[i][a].diff(c).diff(d).eval(m).real for d in range(4)]
                    for c in range(4)] for a in range(4)] for i in range(4)])
    G, dG, d2G = base.matrix(y), base.first_derivatives(y), base.second_derivatives(y)
    # first and second derivatives of G o Phi
    DG = np.einsum("kc,kij->cij", J, dG)
    DDG = np.einsum("kc,ld,klij->cdij", J, J, d2G) + np.einsum("kcd,kij->cdij", H, dG)
    g = np.einsum("ia,ij,jb->ab", J, G, J)
    dg = (np.einsum("iac,ij,jb->cab", H, G, J) + np.einsum("ia,cij,jb->cab", J, DG, J)
          + np.einsum("ia,ij,jbc->cab", J, G, H))
    d2g = (np.einsum("iacd,ij,jb->cdab", T, G, J) + np.einsum("iac,dij,jb->cdab", H, DG, J)
           + np.einsum("iac,ij,jbd->cdab", H, G, H) + np.einsum("iad,cij,jb->cdab", H, DG, J)
           + np.einsum("ia,cdij,jb->cdab", J, DDG, J) + np.einsum("ia,cij,jbd->cdab", J, DG, H)
           + np.einsum("iad,ij,jbc->cdab", H, G, H) + np.einsum("ia,dij,jbc->cdab", J, DG, H)
           + np.einsum("ia,ij,jbcd->cdab", J, G, T))
    return g, dg, d2g


def test_sphere_pullback_equals_the_written_out_chain_rule():
    pulled = PULLBACK_CHARTS["product_sphere base"]
    for m in chart_points(pulled, 6, seed=6):
        g, dg, d2g = written_out_chain_rule(SPHERE_BASE, SPHERE_DIFFEO, m)
        # the matrix is J^T (G J), made symmetric from its upper triangle
        J = np.array([[p.diff(a).eval(m).real for a in range(4)] for p in SPHERE_DIFFEO])
        product = J.T @ (SPHERE_BASE.matrix(np.array([p.eval(m).real for p in SPHERE_DIFFEO])) @ J)
        record = pulled.record(m)
        assert np.array_equal(record.g, np.triu(product) + np.triu(product, 1).T)
        assert np.max(np.abs(record.g - g)) < 1e-12
        assert np.max(np.abs(record.dg - dg)) < 1e-12
        assert np.max(np.abs(record.d2g - d2g)) < 1e-12


@pytest.mark.parametrize("name", sorted(PULLBACK_CHARTS))
def test_a_pullback_stack_equals_its_points_alone_bitwise(name):
    metric = PULLBACK_CHARTS[name]
    points = chart_points(metric, 5, seed=8)
    stack = metric_point(metric, points)
    matrices = metric.record(points).g
    for i, m in enumerate(points):
        alone = metric_point(metric, m)
        assert matrices[i].tobytes() == metric.record(m).g.tobytes()
        for key in ("g", "dg", "d2g"):
            assert getattr(stack, key)[i].tobytes() == getattr(alone, key).tobytes(), key


def test_no_polynomial_product_forms_a_pullback(monkeypatch):
    # the pullback is evaluated from tables of Phi and its derivatives,
    # never expanded into polynomials
    bases = [FlatMetric(Box.cube(2.0)), quadratic_bump_metric(), SPHERE_BASE]
    diffeos = [gentle_diffeo(), cubic_diffeo(), SPHERE_DIFFEO]
    products = []
    mul = Poly.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    m = np.full(4, 0.1)
    for base, phi in zip(bases, diffeos):
        metric = PullbackMetric(base, phi, Box.cube(0.3))
        assert metric_point(metric, m).gamma.shape == (4, 4, 4)
        assert metric.record(m).d2g.shape == (4, 4, 4, 4)
    assert products == []


@pytest.fixture
def diff_calls(monkeypatch) -> list:
    calls = []
    diff = Poly.diff

    def counted(self, k):
        calls.append(k)
        return diff(self, k)

    monkeypatch.setattr(Poly, "diff", counted)
    return calls


@pytest.fixture
def lowered_orders(monkeypatch) -> list:
    """The entry count of every order a jet lowers to the next one."""
    calls = []
    lower = polynomials._lower

    def counted(level):
        calls.append(len(level))
        return lower(level)

    monkeypatch.setattr(polynomials, "_lower", counted)
    return calls


def test_a_polynomial_metric_differentiates_only_what_it_reads(diff_calls, lowered_orders):
    entries = symmetric(quadratic_bump_metric().upper)
    metric = PolynomialMetric(entries, Box.cube(1.0))
    # nothing is derived before the metric is read; its first read derives
    # the orders it has, once, without Poly.diff, and the derivatives read them
    assert lowered_orders == []
    assert metric.matrix(np.zeros(4)).shape == (4, 4) and len(lowered_orders) == 2
    assert metric.first_derivatives(np.zeros(4)).shape == (4, 4, 4)
    assert metric.second_derivatives(np.zeros(4)).shape == (4, 4, 4, 4)
    assert diff_calls == [] and len(lowered_orders) == 2


def test_a_scenario_differentiates_only_what_it_reads(diff_calls, lowered_orders):
    component = Poly.variable(0) * Poly.variable(2)
    scenario = MorphismScenario("count", FlatMetric(Box.cube(1.0)), component)
    # nothing is derived before a derivative is read; the Jacobian derives
    # the first and the second derivatives, once, without Poly.diff
    assert "jet" not in vars(scenario)
    assert scenario.jacobian(np.zeros(4)).shape == (2, 4) and lowered_orders == [1, 2]
    assert scenario.hessians(np.zeros(4)).shape == (2, 4, 4)
    assert diff_calls == [] and lowered_orders == [1, 2]


# ------------------------------------------------------------ polynomial jets


def diff_chains(jet, order: int) -> list:
    """The Poly.diff chain of every entry of an order, in the jet's layout."""
    chains = list(jet)
    for _ in range(order):
        chains = [p.diff(k) for p in chains for k in range(4)]
    return chains


def catalog_tables() -> dict:
    """(scenario, jet, order) of every jet order the catalog charts evaluate,
    their normal charts' included, and of their third orders."""
    tables = {}
    for name, raw in sorted(catalog_configs().items()):
        config = ScenarioConfig.from_dict(raw)
        charts = [("", build_scenario(config))]
        charts += [(f" normal at {c}", normalized_scenario(charts[0][1], np.asarray(c, float)))
                   for c in config.critical_points or []]
        for label, chart in charts:
            scenario = chart if isinstance(chart, MorphismScenario) else chart.scenario
            # the map's jet as the scenario reads it, and the same map through order 3
            for key, order in (("jacobian", 1), ("hessians", 2)):
                tables[f"{name}{label} {key}"] = (scenario, scenario.jet, order)
            for key, order in (("map", 0), ("map d3", 3)):
                tables[f"{name}{label} {key}"] = (scenario, Jet([scenario.component], range(4)),
                                                   order)
            # a pulled-back metric evaluates the jet of its map Phi
            metric = scenario.metric
            if isinstance(metric, (PolynomialMetric, PullbackMetric)):
                jet = metric.upper if isinstance(metric, PolynomialMetric) else metric.diffeo
                for key, order in (("metric", 0), ("d1", 1), ("d2", 2), ("d3", 3)):
                    if order not in jet.orders:
                        jet = Jet(jet, range(4))
                    tables[f"{name}{label} {key}"] = (scenario, jet, order)
            if not isinstance(chart, MorphismScenario):
                # the normal chart's map from the new coordinates to the old
                assert chart.identity or chart.chart_map is scenario.metric.diffeo
                tables[f"{name}{label} chart map"] = (scenario, chart.chart_map, 0)
    return tables


def extra_tables() -> dict:
    """The jets of the pulled-back charts with cubic maps and a polynomial
    base, whose third derivatives do not vanish, and of the polynomial
    metric they pull back."""
    tables = {}
    for name in ("polynomial base", "product_sphere base"):
        metric = PULLBACK_CHARTS[name]
        jets = [("map Phi", metric.diffeo)]
        if isinstance(metric.base, PolynomialMetric):
            jets.append(("base metric", metric.base.upper))
        for label, jet in jets:
            for order in range(4):
                if order not in jet.orders:
                    jet = Jet(jet, range(4))
                tables[f"{name} {label} order {order}"] = (metric, jet, order)
    return tables


CATALOG_TABLES = catalog_tables() | extra_tables()


def assert_jet_equals_poly_eval(jet, order, points):
    values = evaluate(jet, points, order)
    assert values.shape == points.shape[:-1] + (len(jet),) + (4,) * order
    assert values.flags["C_CONTIGUOUS"]
    chains = diff_chains(jet, order)
    # the reference's numpy scalar powers warn where they overflow
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.array([[p.eval(m) for p in chains] for m in points.reshape(-1, 4)])
    assert values.reshape(expected.shape).tobytes() == expected.tobytes()
    # an identically zero entry has no term array
    at = order - jet.orders[0]
    assert jet.terms.starts[at + 1] - jet.terms.starts[at] == sum(1 for p in chains if p.coeffs)


def assert_table_equals_poly_eval(table, points):
    assert_jet_equals_poly_eval(table, 0, points)


@pytest.mark.parametrize("name", sorted(CATALOG_TABLES))
def test_compiled_tables_equal_poly_eval_bitwise(name):
    scenario, jet, order = CATALOG_TABLES[name]
    lo, hi = np.asarray(scenario.domain.lo), np.asarray(scenario.domain.hi)
    points = np.random.default_rng(11).uniform(lo, hi, size=(3, 20, 4))
    assert_jet_equals_poly_eval(jet, order, points)
    # a point alone gives the values of its row, and an empty stack none
    assert (evaluate(jet, points[1, 3], order).tobytes()
            == evaluate(jet, points, order)[1, 3].tobytes())
    assert_jet_equals_poly_eval(jet, order, np.zeros((0, 4)))


def test_a_table_of_one_term_per_polynomial_equals_poly_eval_bitwise():
    # a width of one sums nothing, and adding zero still turns a negative
    # zero into the positive zero of Poly.eval's sum from 0j
    table = Jet([Poly.constant(2.0 - 1.0j), Poly.zero(), Poly({(1, 0, 2, 0): -3.0}),
                 Poly({(0, 1, 0, 0): -1.0j}), Poly({(0, 0, 0, 3): 0.5 + 0.25j})], range(1))
    points = np.random.default_rng(2).uniform(-1.0, 1.0, size=(4, 5, 4))
    points[0, 0] = [0.0, -0.0, 0.0, -0.0]
    points[0, 1] = [-0.0, 0.0, -0.0, 0.0]
    _, pulled, _ = CATALOG_TABLES["pullback_z1z2 d2"]
    for jet, order in [(table, 0), (pulled, 2)]:
        assert jet.terms.widths[order - jet.orders[0]] == 1
        assert_jet_equals_poly_eval(jet, order, points)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("exponent", [0, 50, 100, 200, 300])
def test_compiled_z1_cubed_z2_cubed_equals_poly_eval_in_overflow_boxes(exponent):
    # the flat z1^3 z2^3 chart of the exit-code tests: the powers overflow
    # to inf and the products to nan exactly where Poly.eval's do
    half = 10.0 ** exponent
    component = from_complex_pair({(3, 3): 1.0})
    table = Jet([component] + [component.diff(k) for k in range(4)]
                + [component.diff(k).diff(l) for k, l in UPPER], range(1))
    points = np.random.default_rng(exponent).uniform(-half, half, size=(40, 4))
    points[:4] = [[0.0, -0.0, 0.0, 0.0], [half, half, -half, half],
                  [np.nan, 0.5, 0.5, 0.5], [np.inf, -np.inf, 0.5, 0.5]]
    assert_table_equals_poly_eval(table, points)


@pytest.mark.parametrize("exponent", [0, 50, 100, 200, 300])
def test_jet_orders_equal_poly_diff_chains_in_overflow_boxes(exponent):
    # every order of the z1^3 z2^3 map, silent where the powers and the
    # products overflow, as Poly.eval is
    half = 10.0 ** exponent
    jet = Jet([from_complex_pair({(3, 3): 1.0}), from_complex_pair({(2, 0): 1.0 - 2.0j})], range(4))
    points = np.random.default_rng(exponent).uniform(-half, half, size=(40, 4))
    points[:4] = [[0.0, -0.0, 0.0, 0.0], [half, half, -half, half],
                  [np.nan, 0.5, 0.5, 0.5], [np.inf, -np.inf, 0.5, 0.5]]
    for order in range(4):
        assert_jet_equals_poly_eval(jet, order, points)
        assert_jet_equals_poly_eval(jet, order, points[5])


def cli_jets(monkeypatch, tmp_path, name, *argv) -> list:
    """(jet, orders, terms) of every jet compiled while the command line
    runs a command on a catalog config."""
    compiled = []
    terms = Jet.terms.func

    def recorded(jet):
        out = terms(jet)
        compiled.append((jet, jet.orders, out))
        return out

    monkeypatch.setattr(Jet, "terms", cached_property(recorded))
    Jet.terms.__set_name__(Jet, "terms")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(catalog_configs()[name]))
    assert main([*argv, "--config", str(path), "--out", str(tmp_path)]) == 0
    return compiled


def test_a_pulled_back_point_compiles_each_family_once(monkeypatch, tmp_path, diff_calls):
    # weingarten --point on the pulled-back chart: no Poly.diff call; the
    # map's and Phi's jets are each compiled once, and no entry that is
    # identically zero has a term array
    compiled = cli_jets(monkeypatch, tmp_path, "pullback_z1z2", "weingarten",
                        "--point=0.35,0.1,-0.2,0.3")
    assert diff_calls == []
    assert sorted(list(orders) for _, orders, _ in compiled) == [[0, 1, 2, 3], [1, 2]]
    assert len({id(jet) for jet, _, _ in compiled}) == 2
    for _, _, terms in compiled:
        assert (terms.coefficients != 0).any(axis=0).all()


def test_validate_evaluates_no_third_order_entry(monkeypatch, tmp_path):
    evaluated = []
    orders_of = polynomials.evaluate_orders

    def recorded(jet, points, orders):
        evaluated.append(orders)
        return orders_of(jet, points, orders)

    # every module that reads a jet calls evaluate_orders, itself or through evaluate
    for module in (polynomials, geometry, symbol):
        monkeypatch.setattr(module, "evaluate_orders", recorded)
    cli_jets(monkeypatch, tmp_path, "pullback_z1z2", "validate")
    assert evaluated and all(max(orders) < 3 for orders in evaluated)


def test_an_empty_table_and_an_empty_stack():
    table = Jet([Poly.zero(), Poly.constant(2.0 - 1.0j)], range(3))
    assert evaluate(table, np.zeros((0, 4))).shape == (0, 2)
    assert evaluate(Jet([], range(2)), np.zeros((3, 4)), 1).shape == (3, 0, 4)
    assert evaluate(table, np.ones(4)).tolist() == [0j, 2.0 - 1.0j]
    # the derivatives of a constant are zeros, with no term array
    assert evaluate(table, np.zeros((0, 4)), 2).shape == (0, 2, 4, 4)
    assert evaluate(table, np.ones(4), 1).tolist() == [[0j] * 4] * 2
    assert table.terms.starts == [0, 1, 1, 1]


FINITE = st.floats(-2.0, 2.0, allow_nan=False)
COMPLEX_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda ab: sum(ab) <= 6),
    st.builds(complex, FINITE, FINITE), min_size=1, max_size=6)
# the expansion evaluated at x and the direct complex sum at x differ by at
# most this many units of 2^-52 of sum |c_ab| (|x1| + |x2|)^a (|x3| + |x4|)^b,
# the size of the largest sum either can round, plus as many of the smallest
# normal float for products that underflow; the worst of 15,000 seeded
# random maps of up to six terms, at five points each, is 3.3 units
EXPANSION_ULPS = 32


@settings(max_examples=200, deadline=None)
@given(terms=COMPLEX_TERMS, x=st.lists(FINITE, min_size=4, max_size=4))
def test_a_complex_pair_expands_to_its_direct_sum(terms, x):
    w1, w2 = complex(x[0], x[1]), complex(x[2], x[3])
    direct = sum(c * w1 ** a * w2 ** b for (a, b), c in terms.items())
    size = sum(abs(c) * (abs(x[0]) + abs(x[1])) ** a * (abs(x[2]) + abs(x[3])) ** b
               for (a, b), c in terms.items())
    info = np.finfo(float)
    bound = EXPANSION_ULPS * (float(info.eps) * size + float(info.tiny))
    assert abs(from_complex_pair(terms).eval(x) - direct) <= bound
