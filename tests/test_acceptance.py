"""Acceptance suite: one test and one printed verdict line per criterion.

Each criterion is exercised at its stated tolerance through the public API
or the command line, on the built-in catalog. A failing assertion fails the
matching criterion and nothing else.
"""

import contextlib
import io
import json

import numpy as np

from morphoscope._linalg import spd_sqrt_pair
from morphoscope.calculus import real_scenario
from morphoscope.catalog import catalog_configs, catalog_patch, patch_grid
from morphoscope.cli import main
from morphoscope.config import ScenarioConfig, build_scenario
from morphoscope.geometry import Box, FlatMetric
from morphoscope.hermitian import structure_deviation_rate
from morphoscope.morphism import (along, classify_point, geometry_stack, hwc_residual,
                                  tension_norm, validate_morphism)
from morphoscope.polynomials import Poly, from_complex_pair
from morphoscope.symbol import (center_sample, dilation_lower_rate,
                                remainder_rates, symbol_polynomial)
from morphoscope.twistor import curvature_densities, lift_stack, script_J_residual
from morphoscope.weingarten import (commutator_matrix, nabla_J_norms,
                                    product_bound_scan, product_identity,
                                    product_polar, polar_form,
                                    weingarten_matrix)

from test_twistor import pulled_back_patch, quadratic_patch


def _scenario(name):
    return build_scenario(ScenarioConfig.from_dict(catalog_configs()[name]))


def _sample(scenario, n, seed, margin=0.1):
    rng = np.random.default_rng(seed)
    lo = np.asarray(scenario.domain.lo)
    hi = np.asarray(scenario.domain.hi)
    pad = margin * (hi - lo)
    return [rng.uniform(lo + pad, hi - pad) for _ in range(n)]


def _regular_sample(scenario, n, seed):
    points = []
    for p in _sample(scenario, 4 * n, seed):
        if classify_point(scenario, p).regular[0]:
            points.append(p)
        if len(points) == n:
            break
    assert len(points) == n
    return points


def _verdict(line):
    print(f"PASS {line}")


def test_criterion_1_validation():
    for name in ("z1z2", "z1sq", "z1z2_cubic", "proj"):
        sc = _scenario(name)
        _, max_defect, max_tension = validate_morphism(sc, _sample(sc, 100, seed=7))
        assert max_defect <= 1e-8 and max_tension <= 1e-8, name
    control = real_scenario("aniso", Poly.variable(0), 2.0 * Poly.variable(1),
                            FlatMetric(Box.cube(1.5)))
    _, bad_defect, bad_tension = validate_morphism(control, _sample(control, 100, seed=7))
    assert not (bad_defect <= 1e-8 and bad_tension <= 1e-8)
    assert abs(bad_defect - 2.1213203435596424) < 1e-6
    _verdict("criterion 1 validation: four catalog maps within 1e-8, "
             f"control defect {bad_defect:.10f}")


def test_criterion_2_symbol_extraction():
    zero = np.zeros(4)
    data = symbol_polynomial(_scenario("z1z2"), zero)
    assert data.order == 2 and len(data.candidates) == 1

    data_sq = symbol_polynomial(_scenario("z1sq"), zero)
    assert data_sq.order == 2 and len(data_sq.candidates) == 2
    assert sorted(c.orientation for c in data_sq.candidates) == [-1, 1]

    cubic = _scenario("z1z2_cubic")
    data_cubic = symbol_polynomial(cubic, zero)
    expected = from_complex_pair({(1, 1): 1.0})
    diff = expected + Poly({e: -c for e, c in data_cubic.homogeneous.coeffs.items()})
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-12

    radii = [0.1 * 2.0 ** (-i) for i in range(8)]
    rates = remainder_rates(center_sample(cubic, zero, radii=radii))
    assert rates.value_fit.slope >= 2.9
    assert rates.differential_fit.slope >= 1.9
    _verdict("criterion 2 symbol: z1z2 unique, z1sq twin tags, cubic "
             f"slopes {rates.value_fit.slope:.3f}/{rates.differential_fit.slope:.3f}")


def test_criterion_3_structure_deviation_rate():
    zero = np.zeros(4)
    pulled = structure_deviation_rate(center_sample(_scenario("pullback_z1z2"), zero))
    assert pulled.deviation_fit.slope is not None
    assert pulled.deviation_fit.slope >= 0.9
    assert np.isfinite(pulled.deviation_fit.constant)
    assert pulled.metric_orth_fit.meets_lower_slope(1.9)
    assert pulled.metric_skew_fit.meets_lower_slope(1.9)

    flat = structure_deviation_rate(center_sample(_scenario("z1z2"), zero))
    assert flat.deviation_fit.zero_branch
    assert max(flat.deviation_fit.values) < 1e-12
    _verdict("criterion 3 deviation rate: pullback slope "
             f"{pulled.deviation_fit.slope:.3f}, defect slopes "
             f"{pulled.metric_orth_fit.slope:.3f}/{pulled.metric_skew_fit.slope:.3f}, "
             "flat zero branch")


def test_criterion_4_dilation_lower_bound():
    radii = (1e-1, 1e-2, 1e-3)
    zero = np.zeros(4)
    prod = dilation_lower_rate(center_sample(_scenario("z1z2"), zero, radii=radii))
    ratios = [v / r for v, r in zip(prod.values, radii)]
    assert all(0.999 <= q <= 1.001 for q in ratios)

    # the +x1 axis leads the sample's directions
    sq = center_sample(_scenario("z1sq"), zero, radii=radii)
    ray = sq.stack.singular_values[::len(sq.directions), 0]
    ratios_sq = [v / (2.0 * r) for v, r in zip(ray, radii)]
    assert all(0.999 <= q <= 1.001 for q in ratios_sq)
    _verdict("criterion 4 dilation: z1z2 ratios "
             f"{min(ratios):.6f}..{max(ratios):.6f}, z1sq ray "
             f"{min(ratios_sq):.6f}..{max(ratios_sq):.6f}")


def test_criterion_5_shape_identities():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        a, b, c, d = rng.uniform(-1.0, 1.0, 4)
        gap = abs(product_identity(a, b, c, d)
                  - product_polar(*polar_form(a, b, c, d)))
        worst = max(worst, gap)
    assert worst <= 1e-12

    worst_rel = 0.0
    for name in ("z1z2", "pullback_z1z2"):
        sc = _scenario(name)
        for m in _regular_sample(sc, 20, seed=13):
            norms = nabla_J_norms(sc, m)
            for closed, direct in zip(norms.closed, norms.direct):
                worst_rel = max(worst_rel,
                                abs(closed - direct) / max(1.0, closed))
    assert worst_rel <= 1e-3

    worst_comm = 0.0
    for name in ("z1z2", "pullback_z1z2"):
        sc = _scenario(name)
        for m in _regular_sample(sc, 20, seed=17):
            worst_comm = max(worst_comm, float(np.linalg.norm(
                commutator_matrix(*weingarten_matrix(sc, m)))))
    assert worst_comm <= 1e-4

    scan = product_bound_scan(_scenario("pullback_z1z2"), np.zeros(4),
                              radii=np.geomspace(1e-1, 1e-3, 7))
    assert scan.verdict == "PASS"
    assert min(scan.radii) <= 1e-3 and max(scan.radii) >= 1e-1
    _verdict("criterion 5 shape identities: algebra gap "
             f"{worst:.2e}, closed-vs-direct {worst_rel:.2e}, commutator "
             f"{worst_comm:.2e}, annulus max {max(scan.annulus_max):.2e} "
             f"within bound {scan.bound:.2e}")


def test_criterion_6_lift_residuals_and_curvature():
    proj = _scenario("proj")
    sphere = _scenario("product_sphere")
    failures = []
    for patch_name, sc in (("plane", proj), ("reciprocal", proj)):
        spec = catalog_patch(patch_name)
        stack = lift_stack(sc, spec["patch"], patch_grid(spec["patch"]),
                           orientation=spec["orientation"])
        failures += [(patch_name, r) for r in script_J_residual(stack) if r > 1e-5]
    assert not failures

    bowl = catalog_patch("bowl")
    bowl_min = min(script_J_residual(lift_stack(proj, bowl["patch"], patch_grid(bowl["patch"]))))
    assert bowl_min >= 1e-2

    sph = catalog_patch("sphere_factor")
    flat = catalog_patch("flat_factor")
    omega_t, _ = curvature_densities(lift_stack(sphere, sph["patch"], patch_grid(sph["patch"])))
    worst_t = max(abs(abs(omega_t) - 1.0))
    assert worst_t <= 1e-4
    worst_flat = max(np.max(np.abs(omega)) for omega in
                     curvature_densities(lift_stack(sphere, flat["patch"],
                                                    patch_grid(flat["patch"]))))
    assert worst_flat <= 1e-4
    _verdict("criterion 6 lifts: minimal patches within 1e-5, control min "
             f"{bowl_min:.3f}, sphere density error {worst_t:.2e}")


def test_criterion_7_metamorphic_invariance():
    base = _scenario("z1z2")
    pulled = _scenario("pullback_z1z2")
    shift = catalog_configs()["pullback_z1z2"]["diffeo"]["components"]
    comps = [Poly({tuple(m["exponents"]): complex(m["value"]) for m in spec})
             for spec in shift]

    def phi(y):
        return np.array([c.eval(y).real for c in comps])

    def dphi(y):
        return np.array([[c.diff(k).eval(y).real for k in range(4)]
                         for c in comps])

    worst = 0.0
    direction = np.array([0.3, -0.2, 0.5, 0.4])
    for y in _sample(pulled, 50, seed=23):
        if not classify_point(pulled, y).regular[0]:
            continue
        x = phi(y)
        at_y, at_x = geometry_stack(pulled, [y]), geometry_stack(base, [x])
        worst = max(worst, abs(at_y.singular_values[0, 0] - at_x.singular_values[0, 0]))
        worst = max(worst, abs(hwc_residual(pulled, y).defect[0]
                               - hwc_residual(base, x).defect[0]))
        worst = max(worst, abs(tension_norm(pulled, y).tension_norm[0]
                               - tension_norm(base, x).tension_norm[0]))
        dx = dphi(y) @ direction
        for k in (0, 1):  # J+ then J-
            dj_pulled = along(at_y.structure_jets[k][1], direction[None])[0]
            dj_base = along(at_x.structure_jets[k][1], dx[None])[0]
            gs_p, gis_p = spd_sqrt_pair(pulled.metric.matrix(y))
            gs_b, gis_b = spd_sqrt_pair(base.metric.matrix(x))
            n_pulled = float(np.linalg.norm(gs_p @ dj_pulled @ gis_p))
            n_base = float(np.linalg.norm(gs_b @ dj_base @ gis_b))
            worst = max(worst, abs(n_pulled - n_base))
    assert worst <= 1e-4

    patch_pulled = quadratic_patch()
    patch_base = pulled_back_patch(patch_pulled, comps)
    rng = np.random.default_rng(29)
    params = rng.uniform(-0.35, 0.35, (50, 2))
    stack_pulled = lift_stack(pulled, patch_pulled, params)
    stack_base = lift_stack(base, patch_base, params)
    om_p = curvature_densities(stack_pulled)
    om_b = curvature_densities(stack_base)
    worst_lift = max(np.max(np.abs(script_J_residual(stack_pulled)
                                   - script_J_residual(stack_base))),
                     np.max(np.abs(om_p[0] - om_b[0])), np.max(np.abs(om_p[1] - om_b[1])))
    assert worst_lift <= 1e-4
    _verdict("criterion 7 metamorphic: chart quantities within "
             f"{worst:.2e}, lift quantities within {worst_lift:.2e}, "
             "tolerance 1e-4")


def test_criterion_8_determinism(tmp_path):
    battery = [
        ("validate", "pullback_z1z2", []),
        ("rate", "pullback_z1z2", []),
        ("weingarten", "pullback_z1z2", ["--scan"]),
        ("twistor", "proj", ["--patch", "catenoid"]),
        ("twistor", "product_sphere", ["--patch", "sphere_factor"]),
    ]
    configs = {}
    for _, name, _ in battery:
        if name not in configs:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(catalog_configs()[name]))
            configs[name] = path
    fingerprints = {}
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        for command, name, extra in battery:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(configs[name]), *extra,
                             "--seed", "0", "--workers", workers,
                             "--out", str(out)])
            assert code == 0, (command, name)
        fps = []
        for report_file in sorted(out.glob("*.json")):
            fps.append(json.loads(report_file.read_text())["fingerprint"])
        fingerprints[workers] = fps
    assert len(fingerprints["1"]) == len(battery)
    assert fingerprints["1"] == fingerprints["8"]
    _verdict("criterion 8 determinism: "
             f"{len(battery)} reports byte-stable across worker counts")
