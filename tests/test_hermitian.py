"""Structure pairs, reference structures, and their decay rates.

The independent oracle for the split-frame construction of the structures is
the affine sphere minimizer of the pseudo holomorphy residual, which never
sees the kernel splitting; for pullback scenarios a second oracle transports
the flat structure through the exact chart change.
"""

import numpy as np
import pytest

from morphoscope.calculus import pullback_scenario
from morphoscope.catalog import catalog_configs
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.errors import NonIsolatedCriticalError, SymbolError
from morphoscope.hermitian import (best_compatible_structure, hermitian_pair,
                                   isolated_extension, pseudo_holomorphy_residual,
                                   reference_field, structure_deviation_rate)
from morphoscope.geometry import orientation_sign
from morphoscope.morphism import point_geometry
from morphoscope.structures import K_MINUS, K_PLUS
from morphoscope.symbol import center_sample, symbol_polynomial

from test_morphism import (pullback_diffeo, scenario_anisotropic, scenario_product,
                           scenario_pullback_product, scenario_square)


def transported_structure(diffeo, x, base_matrix):
    """Oracle: conjugate a constant base structure by the exact chart jacobian."""
    jac = np.array([[p.real_poly().diff(a).eval(x).real for a in range(4)]
                    for p in diffeo])
    return np.linalg.solve(jac, base_matrix @ jac)


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
        g = sc.metric.matrix(m)
        for J in (hp.j_plus, hp.j_minus):
            assert np.allclose(J @ J, -np.eye(4), atol=1e-9)
            assert np.allclose(J.T @ g @ J, g, atol=1e-9)


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_pair_agrees_horizontally_and_opposes_vertically(factory):
    sc = factory()
    for m in sample_points(sc, 5, seed=23):
        hp = hermitian_pair(sc, m)
        for e in hp.horizontal:
            assert np.allclose(hp.j_plus @ e, hp.j_minus @ e, atol=1e-9)
        for v in hp.vertical:
            assert np.allclose(hp.j_plus @ v, -(hp.j_minus @ v), atol=1e-9)


def test_pair_orientations_are_opposite():
    sc = scenario_product()
    m = np.array([0.4, -0.2, 0.3, 0.1])
    hp = hermitian_pair(sc, m)
    e1, v1 = hp.horizontal[0], hp.vertical[0]
    plus_frame = np.array([e1, hp.j_plus @ e1, v1, hp.j_plus @ v1])
    minus_frame = np.array([e1, hp.j_minus @ e1, v1, hp.j_minus @ v1])
    assert orientation_sign(plus_frame) == 1
    assert orientation_sign(minus_frame) == -1


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_both_structures_intertwine_the_differential(factory):
    # the differential kills the vertical plane, so the vertical sign
    # difference between the pair members is invisible to the residual
    sc = factory()
    for m in sample_points(sc, 5, seed=37):
        hp = hermitian_pair(sc, m)
        geo = point_geometry(sc, m)
        assert pseudo_holomorphy_residual(geo, hp.j_plus) < 1e-8
        assert pseudo_holomorphy_residual(geo, hp.j_minus) < 1e-8


# -------------------------------------------------------------- minimizer


@pytest.mark.parametrize("factory", [scenario_product, scenario_pullback_product])
def test_minimizer_recovers_the_split_frame_structures(factory):
    sc = factory()
    for m in sample_points(sc, 10, seed=5):
        hp = hermitian_pair(sc, m)
        for orientation, expected in ((1, hp.j_plus), (-1, hp.j_minus)):
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
        J = hermitian_pair(pulled, x).j_plus
        expected = transported_structure(diffeo, x, K_PLUS)
        assert np.allclose(J, expected, atol=1e-9)


# -------------------------------------------------------------- references


def test_reference_structure_of_product_map():
    data = symbol_polynomial(scenario_product(), np.zeros(4))
    ref = reference_field(data, orientation=1)
    assert data.order == 2
    assert np.allclose(ref.matrix, K_PLUS, atol=1e-12)
    assert np.allclose(ref.fiber, [0.0, 0.0, 1.0], atol=1e-12)


def test_reference_structure_missing_orientation_raises():
    data = symbol_polynomial(scenario_product(), np.zeros(4))
    with pytest.raises(SymbolError):
        reference_field(data, orientation=-1)


def test_reference_structures_of_square_map_cover_both_orientations():
    data = symbol_polynomial(scenario_square(), np.zeros(4))
    plus = reference_field(data, orientation=1)
    minus = reference_field(data, orientation=-1)
    assert np.allclose(plus.matrix, K_PLUS, atol=1e-12)
    assert np.allclose(minus.matrix, K_MINUS, atol=1e-12)


# ------------------------------------------------------------------ rates


def test_deviation_rate_flat_holomorphic_is_identically_zero():
    rates = structure_deviation_rate(center_sample(scenario_product(), np.zeros(4)))
    assert rates.deviation_fit.zero_branch
    assert rates.metric_orth_fit.zero_branch
    assert rates.metric_skew_fit.zero_branch
    assert rates.substitutions == ()
    assert rates.verdict == "PASS"


def test_deviation_rate_square_map_both_orientations():
    sample = center_sample(scenario_square(), np.zeros(4))
    for orientation in (1, -1):
        rates = structure_deviation_rate(sample, orientation=orientation)
        assert rates.deviation_fit.zero_branch
        assert rates.verdict == "PASS"


def test_deviation_rate_pullback_slopes():
    rates = structure_deviation_rate(center_sample(scenario_pullback_product(), np.zeros(4)))
    assert not rates.deviation_fit.zero_branch
    assert rates.deviation_fit.slope >= 0.9
    assert rates.metric_orth_fit.slope >= 1.9
    assert rates.metric_skew_fit.slope >= 1.9
    assert rates.verdict == "PASS"


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
    assert ext.verdict == "PASS"
    assert ext.fit.zero_branch


def test_isolated_extension_pullback_decays():
    ext = isolated_extension(center_sample(scenario_pullback_product(), np.zeros(4),
                                           n_directions=24))
    assert ext.verdict == "PASS"
    assert not ext.fit.zero_branch
    assert ext.fit.slope >= 0.9
    assert all(ext.sups[i + 1] <= ext.sups[i] for i in range(len(ext.sups) - 1))


def test_isolated_extension_square_map_hits_critical_plane():
    with pytest.raises(NonIsolatedCriticalError) as info:
        isolated_extension(center_sample(scenario_square(), np.zeros(4), n_directions=24))
    p = info.value.point
    assert p is not None
    assert np.hypot(p[0], p[1]) < 1e-12
    assert np.linalg.norm(p) > 0
