"""Structure pairs, reference structures, and their decay rates.

The independent oracle for the closed-form structures is the affine sphere
minimizer of the pseudo holomorphy residual, written out here, which never
sees the map's 2-form or the kernel splitting. Its system is not conformal
in general, so it solves through the general secular solver
reference_sphere_solve of test_symbol.py, the only copy of that solver. For
pullback scenarios a second oracle transports the flat structure through the
exact chart change.
"""

import numpy as np
import pytest

from morphoscope.calculus import TARGET_ROTATION, pullback_scenario
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import DomainError, NonIsolatedCriticalError, SymbolError
from morphoscope.hermitian import (hermitian_pair, isolated_extension,
                                   pseudo_holomorphy_residual, reference_field,
                                   structure_deviation_rate)
from morphoscope.geometry import metric_point
from morphoscope import hermitian, morphism, symbol
from morphoscope.morphism import geometry_stack
from morphoscope.ratefit import N_AXES, shell_samples
from morphoscope.structures import STRUCTURES_MINUS, STRUCTURES_PLUS, structure_basis
from morphoscope.symbol import CenterSample, center_sample, symbol_polynomial

from test_frame_orientation import frame_orientations
from test_morphism import (bits, field, pullback_diffeo, refuse_frames, scenario_anisotropic,
                           scenario_product, scenario_pullback_product, scenario_square)
from test_symbol import reference_sphere_solve


def transported_structure(diffeo, x, base_matrix):
    """Oracle: conjugate a constant base structure by the exact chart jacobian."""
    jac = np.array([[p.real_poly().diff(a).eval(x).real for a in range(4)]
                    for p in diffeo])
    return np.linalg.solve(jac, base_matrix @ jac)


def best_compatible_structure(scenario, m, orientation=1):
    """Oracle: minimize the pseudo holomorphy residual over compatible
    structures.

    The compatible structures of one orientation at m form a sphere in the
    coordinates of the structure basis conjugated by any positively oriented
    orthonormal frame; the residual is affine in those coordinates. Returns
    (structure, fiber coordinates, residual). It never sees the 2-form of
    the map, so it cross-checks the closed-form structures.
    """
    # the coordinate axes orthonormalized in index order, B = L^{-T} for the
    # Cholesky factor g = L L^T
    Binv = np.linalg.cholesky(metric_point(scenario.metric, m).g).T
    B = np.linalg.inv(Binv)
    jac = scenario.jacobian(m)
    rho0 = (-TARGET_ROTATION @ jac).ravel()
    basis = structure_basis(orientation * scenario.orientation)
    cols = [(jac @ (B @ K @ Binv)).ravel() for K in basis]
    u, res = reference_sphere_solve(rho0, np.column_stack(cols))
    J = B @ sum(u[a] * basis[a] for a in range(3)) @ Binv
    return J, u, res


def sample_points(scenario, count, seed):
    rng = np.random.default_rng(seed)
    box = scenario.domain
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    pts = []
    while len(pts) < count:
        p = lo + (hi - lo) * rng.uniform(0.15, 0.85, size=4)
        if np.linalg.norm(scenario.jacobian(p)) > 1e-3:
            pts.append(p)
    return pts


# ------------------------------------------------------------ pair algebra


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_pair_is_metric_compatible_square_root_of_minus_one(factory):
    sc = factory()
    for m in sample_points(sc, 6, seed=11):
        hp = hermitian_pair(sc, m)
        g = sc.metric.record(m).g
        for J in (field(hp, 0, "j_plus"), field(hp, 0, "j_minus")):
            assert np.allclose(J @ J, -np.eye(4), atol=1e-9)
            assert np.allclose(J.T @ g @ J, g, atol=1e-9)


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_pair_agrees_horizontally_and_opposes_vertically(factory):
    sc = factory()
    for m in sample_points(sc, 5, seed=23):
        hp = hermitian_pair(sc, m)
        j_plus, j_minus = field(hp, 0, "j_plus"), field(hp, 0, "j_minus")
        for e in field(hp, 0, "horizontal"):
            assert np.allclose(j_plus @ e, j_minus @ e, atol=1e-9)
        for v in field(hp, 0, "vertical"):
            assert np.allclose(j_plus @ v, -(j_minus @ v), atol=1e-9)


def test_pair_orientations_are_opposite():
    sc = scenario_product()
    m = np.array([0.4, -0.2, 0.3, 0.1])
    hp = hermitian_pair(sc, m)
    j_plus, j_minus = field(hp, 0, "j_plus"), field(hp, 0, "j_minus")
    e1, v1 = field(hp, 0, "horizontal")[0], field(hp, 0, "vertical")[0]
    plus_frame = np.array([e1, j_plus @ e1, v1, j_plus @ v1])
    minus_frame = np.array([e1, j_minus @ e1, v1, j_minus @ v1])
    signs, failures = frame_orientations(np.array([plus_frame, minus_frame]))
    assert signs.tolist() == [1, -1] and failures == [None, None]


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_both_structures_intertwine_the_differential(factory):
    # the differential kills the vertical plane, so the vertical sign
    # difference between the pair members is invisible to the residual
    sc = factory()
    for m in sample_points(sc, 5, seed=37):
        hp = hermitian_pair(sc, m)
        assert pseudo_holomorphy_residual(hp.jac[0], field(hp, 0, "j_plus")) < 1e-8
        assert pseudo_holomorphy_residual(hp.jac[0], field(hp, 0, "j_minus")) < 1e-8


# -------------------------------------------------------------- minimizer


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_minimizer_recovers_the_split_frame_structures(factory):
    sc = factory()
    for m in sample_points(sc, 10, seed=5):
        hp = hermitian_pair(sc, m)
        for orientation, expected in ((1, field(hp, 0, "j_plus")),
                                      (-1, field(hp, 0, "j_minus"))):
            J, _, res = best_compatible_structure(sc, m, orientation)
            assert res < 1e-8
            assert np.allclose(J, expected, atol=1e-6)


def test_minimizer_residual_floor_without_conformality():
    sc = scenario_anisotropic()
    _, _, res = best_compatible_structure(sc, np.zeros(4), 1)
    assert res > 0.1


def test_structure_transports_through_chart_changes():
    base = scenario_product()
    diffeo = pullback_diffeo()
    pulled = pullback_scenario(base, diffeo, base.domain.__class__.cube(0.8),
                               name="pulled")
    for x in sample_points(pulled, 5, seed=71):
        J = field(hermitian_pair(pulled, x), 0, "j_plus")
        expected = transported_structure(diffeo, x, STRUCTURES_PLUS[2])
        assert np.allclose(J, expected, atol=1e-9)


# -------------------------------------------------------------- references


def test_reference_structure_of_product_map():
    data = symbol_polynomial(scenario_product(), np.zeros(4))
    ref = reference_field(data, orientation=1)
    assert data.order == 2
    assert np.allclose(ref.matrix, STRUCTURES_PLUS[2], atol=1e-12)
    assert np.allclose(ref.fiber, [0.0, 0.0, 1.0], atol=1e-12)


def test_reference_structure_missing_orientation_raises():
    data = symbol_polynomial(scenario_product(), np.zeros(4))
    with pytest.raises(SymbolError):
        reference_field(data, orientation=-1)


def test_reference_structures_of_square_map_cover_both_orientations():
    data = symbol_polynomial(scenario_square(), np.zeros(4))
    plus = reference_field(data, orientation=1)
    minus = reference_field(data, orientation=-1)
    assert np.allclose(plus.matrix, STRUCTURES_PLUS[2], atol=1e-12)
    assert np.allclose(minus.matrix, STRUCTURES_MINUS[2], atol=1e-12)


# ------------------------------------------------------------------ rates


def test_deviation_rate_flat_holomorphic_is_identically_zero():
    rates = structure_deviation_rate(center_sample(scenario_product(), np.zeros(4)))
    assert rates.deviation_fit.zero_branch
    assert rates.metric_orth_fit.zero_branch
    assert rates.metric_skew_fit.zero_branch
    assert rates.substitutions == ()
    assert rates.passed


def test_deviation_rate_square_map_both_orientations():
    sample = center_sample(scenario_square(), np.zeros(4))
    for orientation in (1, -1):
        rates = structure_deviation_rate(sample, orientation=orientation)
        assert rates.deviation_fit.zero_branch
        assert rates.passed


def test_deviation_rate_pullback_slopes():
    rates = structure_deviation_rate(center_sample(scenario_pullback_product(), np.zeros(4)))
    assert not rates.deviation_fit.zero_branch
    assert rates.deviation_fit.slope >= 0.9
    assert rates.metric_orth_fit.slope >= 1.9
    assert rates.metric_skew_fit.slope >= 1.9
    assert rates.passed


def test_deviation_rate_evaluates_the_metric_once_per_point(metric_calls):
    # the catalog's pulled-back chart at its own radii, directions and seed;
    # the deviation and both metric defects read one geometry per sample, so
    # no metric is evaluated twice at one point (the per-center bound on the
    # number of evaluations is test_symbol's rate call budget)
    config = ScenarioConfig.from_dict(catalog_configs()["pullback_z1z2"])
    scenario = build_scenario(config)
    points = metric_calls["matrix"]
    analysis = config.analysis
    sample = center_sample(scenario, config.critical_points[0],
                           radii=analysis["radii"],
                           n_directions=analysis["n_directions"],
                           seed=analysis["seed"])
    rates = structure_deviation_rate(sample)
    assert rates.substitutions == ()
    assert len(points) == len(set(points))


def test_isolated_extension_flat_product():
    ext = isolated_extension(center_sample(scenario_product(), np.zeros(4), n_directions=24))
    assert ext.passed
    assert ext.fit.zero_branch


def test_isolated_extension_pullback_decays():
    ext = isolated_extension(center_sample(scenario_pullback_product(), np.zeros(4),
                                           n_directions=24))
    assert ext.passed
    assert not ext.fit.zero_branch
    assert ext.fit.slope >= 0.9
    sups = ext.fit.values
    assert all(sups[i + 1] <= sups[i] for i in range(len(sups) - 1))


def test_isolated_extension_square_map_hits_critical_plane():
    with pytest.raises(NonIsolatedCriticalError) as info:
        isolated_extension(center_sample(scenario_square(), np.zeros(4), n_directions=24))
    p = info.value.point
    assert p is not None
    assert np.hypot(p[0], p[1]) < 1e-12
    assert np.linalg.norm(p) > 0


def catalog_sample(name):
    """The center sample of a catalog chart at its own radii, directions and
    seed. On z1sq two seeded directions are moved onto signed axes inside
    the critical plane, so the rate substitutes their rays."""
    config = ScenarioConfig.from_dict(catalog_configs()[name])
    analysis = config.analysis
    sample = center_sample(build_scenario(config), config.critical_points[0],
                           radii=analysis["radii"], n_directions=analysis["n_directions"],
                           seed=analysis["seed"])
    if name != "z1sq":
        return sample
    critical = sample.directions[:N_AXES][~sample.stack.regular[:N_AXES]]
    directions = sample.directions.copy()
    directions[[N_AXES + 1, N_AXES + 4]] = critical[:2]
    return CenterSample(symbol=sample.symbol, seed=sample.seed, directions=directions,
                        radii=sample.radii, points=shell_samples(directions, sample.radii)[1])


def written_out_deviation(scenario, y, J0) -> float:
    """||J+ - J0|| at the point y alone, as np.linalg.norm takes it."""
    return float(np.linalg.norm(field(geometry_stack(scenario, [y]), 0, "j_plus") - J0,
                                ord="fro"))


@pytest.mark.parametrize("name", ["z1sq", "pullback_z1z2"])
def test_deviation_columns_equal_a_written_out_norm_loop_bitwise(monkeypatch, name):
    # the deviations read as one column of the sample's stack against a
    # loop over the samples one by one, each ray substituted as the rate
    # substitutes it, with one geometry stack per center plus one stack per
    # substituted ray
    sample = catalog_sample(name)
    scenario = sample.symbol.chart.scenario
    J0 = reference_field(sample.symbol, 1).matrix
    sizes = []
    original = morphism.geometry_stack

    def counted(scenario, points):
        sizes.append(len(np.reshape(points, (-1, 4))))
        return original(scenario, points)

    for module in (symbol, hermitian):
        monkeypatch.setattr(module, "geometry_stack", counted)
    rates = structure_deviation_rate(sample)
    monkeypatch.undo()

    rng = np.random.default_rng(sample.seed + 7919)
    table, substitutions = [], []
    for i, direction in enumerate(sample.directions[N_AXES:]):
        ray, attempt = sample.points[:, N_AXES + i], 0
        while not all(geometry_stack(scenario, [y]).regular[0] for y in ray):
            attempt += 1
            d = direction + 0.05 * attempt * rng.standard_normal(4)
            ray = shell_samples((d / np.linalg.norm(d))[None], sample.radii)[1][:, 0]
        if attempt:
            substitutions.append((i, attempt))
        table.append([written_out_deviation(scenario, y, J0) for y in ray])
    assert rates.substitutions == tuple(substitutions)
    assert bool(substitutions) == (name == "z1sq")
    attempts = sum(a for _, a in substitutions)
    assert sizes == [len(sample.points.reshape(-1, 4))] + [len(sample.radii)] * attempts
    assert bits(rates.deviation_fit.values) == bits(np.max(table, axis=0))

    if name == "z1sq":
        # the signed axes in the critical plane: the first critical sample,
        # radius-major, is named
        with pytest.raises(NonIsolatedCriticalError) as info:
            isolated_extension(sample)
        first = next(y for y in sample.points.reshape(-1, 4)
                     if not geometry_stack(scenario, [y]).regular[0])
        assert bits(info.value.point) == bits(sample.symbol.chart.to_original(first))
    else:
        sups = [max([0.0] + [written_out_deviation(scenario, y, J0) for y in shell])
                for shell in sample.points]
        assert bits(isolated_extension(sample).fit.values) == bits(sups)


@pytest.mark.parametrize("read, row", [(structure_deviation_rate, N_AXES),
                                       (isolated_extension, 0)],
                         ids=["deviation", "isolated"])
def test_a_shell_row_outside_the_domain_raises_through_the_structures(monkeypatch, read, row):
    # a sample stack built by the pass without raising, whose outer shell
    # leaves the chart: the structures' column, seeded from the pass, raises
    # the DomainError of the first such row the reader meets (the first
    # seeded ray, or the first sample radius-major), with no frame built
    sample = catalog_sample("z1z2")
    radii = (4.0,) + sample.radii[1:]
    outside = CenterSample(symbol=sample.symbol, seed=sample.seed, directions=sample.directions,
                           radii=radii, points=shell_samples(sample.directions, radii)[1])
    outside.stack = morphism.stack_pass(sample.symbol.chart.scenario, outside.points)
    refuse_frames(monkeypatch)
    with pytest.raises(DomainError) as info:
        read(outside)
    assert str(info.value) == outside.stack.failures.first[row][1]
    assert str(info.value).endswith("leaves the chart domain (margin 0)")
