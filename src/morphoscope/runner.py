"""Command implementations behind the CLI.

Each scenario command returns its `Findings`, and `scenario_report` turns
them into the report. All verdicts come with the numbers that produced
them, and every sampling decision flows from the configured seed so reruns
with the same config are byte-identical up to the timestamp. Each command
imports the modules only it uses at its own head: a CLI process runs one
command, and loads only the modules that command runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import MorphismScenario
from .config import ScenarioConfig
from .errors import ConfigError
from .geometry import einstein_defect
from .morphism import geometry_stack, validate_morphism
from .report import Columns, build_report, check, fingerprint

EINSTEIN_GATE = 1e-8
# the rate table's label of a fit, where it differs from the fit's rates key
RATE_TABLE_LABELS = {"remainder_differential": "remainder_diff",
                     "dilation_lower": "dilation_min"}


@dataclass
class Findings:
    """What one scenario command found: `records` is a list, or Columns for
    tabular records, and `table` the Columns of its CSV table, if any."""

    checks: list
    records: list | Columns
    rates: dict | None = None
    extras: dict | None = None
    table: Columns | None = None


def scenario_fingerprint(config: ScenarioConfig) -> str:
    return fingerprint(config.to_canonical())


def scenario_report(command: str, config: ScenarioConfig, found: Findings,
                    seed: int, workers: int) -> tuple:
    """(report, file text) of the findings, see report.build_report."""
    return build_report(command, config.name, scenario_fingerprint(config),
                        found.checks, records=found.records, rates=found.rates,
                        seed=seed, workers=workers, extras=found.extras)


def _sample_points(scenario: MorphismScenario, n: int, seed: int) -> np.ndarray:
    """(n, 4) seeded points inside the domain, off a 5% margin: one draw,
    equal to n draws of one point each."""
    rng = np.random.default_rng(seed)
    lo = np.asarray(scenario.domain.lo, dtype=float)
    hi = np.asarray(scenario.domain.hi, dtype=float)
    margin = 0.05 * (hi - lo)
    return rng.uniform(lo + margin, hi - margin, size=(n, 4))


def _critical_centers(config: ScenarioConfig, command: str) -> list:
    if not config.critical_points:
        raise ConfigError(
            f"config.critical_points: {command} needs at least one center")
    return [np.asarray(p, dtype=float) for p in config.critical_points]


# ----------------------------------------------------------------- commands


def run_validate(config: ScenarioConfig, scenario: MorphismScenario,
                 seed: int) -> Findings:
    tol = config.analysis["tolerances"]
    points = _sample_points(scenario, config.analysis["n_points"], seed)
    stack, max_defect, max_tension = validate_morphism(scenario, points)
    # the columns of the stack are the records and the table
    records = Columns({
        "point": stack.metric.point,
        "status": ["regular" if r else "critical" for r in stack.regular.tolist()],
        "dilation_sup": stack.dilation_sup,
        "defect": stack.defect,
        "tension": stack.tension_norm,
    }, spread={"point": ("x1", "x2", "x3", "x4")})
    # with no regular sample neither maximum is measured
    unmeasured = {} if stack.regular.any() else {"n_regular": 0}
    checks = [
        check("hwc_defect", max_defect <= tol["defect"] and not unmeasured,
              max_defect=max_defect, tolerance=tol["defect"],
              n_points=len(points), **unmeasured),
        check("tension", max_tension <= tol["tension"] and not unmeasured,
              max_tension=max_tension, tolerance=tol["tension"],
              n_points=len(points), **unmeasured),
    ]
    return Findings(checks, records, table=records)


def run_analyze(config: ScenarioConfig, scenario: MorphismScenario,
                point) -> Findings:
    from .hermitian import pseudo_holomorphy_residual

    tol = config.analysis["tolerances"]
    m = np.asarray(point, dtype=float)
    stack = geometry_stack(scenario, [m])
    status = "regular" if stack.regular[0] else "critical"
    dilation_sup = float(stack.dilation_sup[0])
    record = {"point": m, "status": status, "dilation_sup": dilation_sup}
    if stack.regular[0]:
        stack.check(0)
        defect = float(stack.defect[0])
        j_plus, j_minus = (J[0] for J in stack.structures[:2])
        res_plus = pseudo_holomorphy_residual(stack.jac[0], j_plus)
        res_minus = pseudo_holomorphy_residual(stack.jac[0], j_minus)
        record.update({
            "defect": defect,
            "horizontal": stack.splitting[0][0], "vertical": stack.splitting[1][0],
            "j_plus": j_plus, "j_minus": j_minus,
            "residual_plus": res_plus, "residual_minus": res_minus,
        })
        checks = [
            check("hwc_defect", defect <= tol["defect"],
                  defect=defect, dilation=dilation_sup,
                  tolerance=tol["defect"]),
            check("structure_residual",
                  max(res_plus, res_minus) <= tol["residual"],
                  residual_plus=res_plus, residual_minus=res_minus,
                  tolerance=tol["residual"]),
        ]
    else:
        checks = [check("classification", True, status=status,
                        dilation_sup=dilation_sup)]
    return Findings(checks, [record])


def run_symbol(config: ScenarioConfig, scenario: MorphismScenario) -> Findings:
    from .symbol import symbol_polynomial

    records = []
    checks = []
    for idx, center in enumerate(_critical_centers(config, "symbol")):
        data = symbol_polynomial(scenario, center)
        cands = [{"orientation": c.orientation, "fiber": c.fiber,
                  "residual": c.residual,
                  "antiholomorphic_max": c.antiholomorphic_max,
                  "matrix": c.matrix} for c in data.candidates]
        homogeneous = [{"exponents": list(e), "re": c.real, "im": c.imag}
                       for e, c in sorted(data.homogeneous.coeffs.items())]
        records.append({"center": center, "order": data.order,
                        "candidates": cands, "homogeneous": homogeneous})
        worst = ({"max_residual": max(c.residual for c in data.candidates)}
                 if data.candidates else {})
        checks.append(check(
            f"symbol_certified[{idx}]", bool(data.candidates), order=data.order,
            n_candidates=len(data.candidates),
            orientations=[c.orientation for c in data.candidates], **worst))
    return Findings(checks, records)


def _certified_orientation(symbol) -> int:
    """The orientation label the structure deviation is measured in: the
    config's own (+1) when the symbol certifies it, else the opposite one
    when that is certified; with neither, +1, which the deviation rejects."""
    certified = {c.orientation for c in symbol.candidates}
    return -1 if 1 not in certified and -1 in certified else 1


def run_rate(config: ScenarioConfig, scenario: MorphismScenario,
             seed: int) -> Findings:
    from .hermitian import structure_deviation_rate
    from .symbol import center_sample, dilation_lower_rate, remainder_rates

    records = []
    checks = []
    rates = {}
    rows = {"quantity": [], "radius": [], "value": []}
    for idx, center in enumerate(_critical_centers(config, "rate")):
        sample = center_sample(scenario, center, radii=config.analysis["radii"],
                               n_directions=config.analysis["n_directions"], seed=seed)
        orientation = _certified_orientation(sample.symbol)
        deviation = structure_deviation_rate(sample, orientation)
        remainder = remainder_rates(sample)
        dilation = dilation_lower_rate(sample)
        fits = {"deviation": deviation.deviation_fit,
                "metric_orth": deviation.metric_orth_fit,
                "metric_skew": deviation.metric_skew_fit,
                "remainder_value": remainder.value_fit,
                "remainder_differential": remainder.differential_fit,
                "dilation_lower": dilation.fit}
        rates[f"center[{idx}]"] = {
            key: {"slope": fit.slope, "constant": fit.constant,
                  "zero_branch": fit.zero_branch,
                  "log_residual": fit.log_residual, "threshold": fit.threshold,
                  "radii": fit.radii, "values": fit.values}
            for key, fit in fits.items()}
        records.append({
            "center": center, "order": sample.symbol.order,
            "envelope_constant": dilation.envelope_constant,
            "substitutions": deviation.substitutions,
            "excluded_directions": dilation.excluded_directions,
        })
        checks.extend([
            check(f"structure_deviation[{idx}]", deviation.passed,
                  slope=deviation.deviation_fit.slope,
                  zero_branch=deviation.deviation_fit.zero_branch,
                  orth_slope=deviation.metric_orth_fit.slope,
                  skew_slope=deviation.metric_skew_fit.slope,
                  **({"orientation": orientation} if orientation != 1 else {})),
            check(f"remainder_decay[{idx}]", remainder.passed,
                  order=sample.symbol.order,
                  value_slope=remainder.value_fit.slope,
                  differential_slope=remainder.differential_fit.slope),
            check(f"dilation_lower[{idx}]", dilation.passed,
                  slope=dilation.fit.slope,
                  envelope_constant=dilation.envelope_constant),
        ])
        for key, fit in fits.items():
            rows["quantity"] += [f"{RATE_TABLE_LABELS.get(key, key)}[{idx}]"] * len(fit.radii)
            rows["radius"] += fit.radii
            rows["value"] += fit.values
    return Findings(checks, records, rates=rates, table=Columns(rows))


def run_weingarten_point(config: ScenarioConfig, scenario: MorphismScenario,
                         point) -> Findings:
    from .weingarten import shape_stack

    tol = config.analysis["tolerances"]
    m = np.asarray(point, dtype=float)
    # the point alone is the shape stack of one: its report is row 0 of the columns
    shapes = shape_stack(geometry_stack(scenario, [m]), [0], config.analysis["angle"])
    a, b, c, d = shapes.coefficient_array[0].tolist()
    (plus_closed, minus_closed), (plus_direct, minus_direct) = (shapes.closed[0].tolist(),
                                                                shapes.direct[0].tolist())
    scale, gap = float(shapes.identity_scale[0]), float(shapes.identity_gap[0])
    rel_plus = abs(plus_closed - plus_direct) / max(1.0, plus_closed)
    rel_minus = abs(minus_closed - minus_direct) / max(1.0, minus_closed)
    record = {
        "point": m, "vertical_unit": shapes.frames[0, 0],
        "coefficients": {"a": a, "b": b, "c": c, "d": d},
        "polar": dict(zip(("r1", "r2", "theta", "alpha"), shapes.polar[0].tolist())),
        "commutator": shapes.commutator[0],
        "norm_plus_closed": plus_closed,
        "norm_minus_closed": minus_closed,
        "norm_plus_direct": plus_direct,
        "norm_minus_direct": minus_direct,
        "product": float(shapes.product[0]),
        "product_expanded": float(shapes.product_expanded[0]),
        "product_polar": float(shapes.product_polar[0]),
    }
    checks = [
        check("product_identity", gap <= tol["identity_gap"],
              identity_gap=gap, scale=scale, tolerance=tol["identity_gap"]),
        check("closed_vs_direct",
              max(rel_plus, rel_minus) <= tol["direct_rel"],
              rel_plus=rel_plus, rel_minus=rel_minus,
              tolerance=tol["direct_rel"]),
    ]
    einstein = float(einstein_defect(shapes.stack.metric)[0])
    record["einstein_defect"] = einstein
    if einstein <= EINSTEIN_GATE:
        # the commutation identity for the shape product only holds on
        # Einstein charts, so the check is gated on the pointwise defect
        cdef = float(np.linalg.norm(shapes.commutator[0]))
        record["commutator_defect"] = cdef
        checks.append(check("einstein_commutation", cdef <= tol["commutator"],
                            commutator_defect=cdef, einstein_defect=einstein,
                            tolerance=tol["commutator"]))
    return Findings(checks, [record])


def run_weingarten_scan(config: ScenarioConfig, scenario: MorphismScenario,
                        point, seed: int) -> Findings:
    from .weingarten import product_bound_scan

    tol = config.analysis["tolerances"]
    if point is not None:
        center = np.asarray(point, dtype=float)
    else:
        center = _critical_centers(config, "weingarten --scan")[0]
    scan = product_bound_scan(scenario, center,
                              radii=config.analysis["scan_radii"],
                              n_directions=config.analysis["n_directions"],
                              seed=seed, angle=config.analysis["angle"])
    record = {"center": scan.center, "radii": scan.radii,
              "annulus_max": scan.annulus_max, "skipped": scan.skipped,
              "plateau": scan.plateau, "bound": scan.bound,
              "identity_gap": scan.identity_gap}
    empty = {"empty_annuli": scan.empty} if scan.empty else {}
    # with no certified sample the identity gap is never measured
    unmeasured = empty if len(scan.empty) == len(scan.radii) else {}
    checks = [
        check("product_bounded", scan.passed,
              plateau=scan.plateau, bound=scan.bound,
              worst_annulus=max(scan.annulus_max), **empty),
        check("product_identity",
              scan.identity_gap <= tol["identity_gap"] and not unmeasured,
              identity_gap=scan.identity_gap, tolerance=tol["identity_gap"],
              **unmeasured),
    ]
    table = Columns({"radius": scan.radii, "annulus_max": scan.annulus_max,
                     "skipped": scan.skipped})
    return Findings(checks, [record], table=table)


def run_twistor(config: ScenarioConfig, scenario: MorphismScenario,
                patch_name: str) -> Findings:
    from .catalog import catalog_patch, patch_grid
    from .twistor import (curvature_densities, lift_stack, script_J_residual,
                          vertical_energy_density)

    tol = config.analysis["tolerances"]
    spec = catalog_patch(patch_name)
    patch = spec["patch"]
    tag = spec["orientation"]
    stack = lift_stack(scenario, patch, patch_grid(patch), orientation=tag)
    energy = vertical_energy_density(stack)
    residuals = script_J_residual(stack)
    omega_t, omega_n = curvature_densities(stack)
    records = Columns({
        "parameter": stack.parameters, "fiber": stack.fiber, "residual": residuals,
        "energy": energy.value, "area_element": energy.area_element,
        "omega_tangent": omega_t, "omega_normal": omega_n,
    }, spread={"parameter": ("s", "t")}, drop=("fiber",))
    checks = []
    if spec["classification"] == "minimal":
        worst = float(residuals.max())
        checks.append(check(
            "lift_residual_minimal", worst <= tol["residual_minimal"],
            max_residual=worst, patch=patch_name, tolerance=tol["residual_minimal"]))
    else:
        least = float(residuals.min())
        checks.append(check(
            "lift_residual_control", least >= tol["residual_control"],
            min_residual=least, patch=patch_name, floor=tol["residual_control"]))
    if spec["omega"] is not None:
        worst_t = float(np.max(np.abs(np.abs(omega_t) - spec["omega"]["tangent_abs"])))
        worst_n = float(np.max(np.abs(np.abs(omega_n) - spec["omega"]["normal_abs"])))
        checks.append(check(
            "curvature_densities",
            max(worst_t, worst_n) <= tol["curvature"],
            tangent_error=worst_t, normal_error=worst_n,
            expected_tangent_abs=spec["omega"]["tangent_abs"],
            tolerance=tol["curvature"]))
    return Findings(checks, records, extras={"patch": patch_name, "orientation": tag},
                    table=records)


def run_catalog(seed: int, workers: int) -> tuple:
    """(report, file text) of the catalog listing, see report.build_report."""
    from .catalog import CATALOG_PATCHES, catalog_configs

    entries = []
    for name, raw in sorted(catalog_configs().items()):
        cfg = ScenarioConfig.from_dict(raw)
        entries.append({
            "name": name,
            "metric_kind": cfg.metric["kind"],
            "map_kind": cfg.map["kind"],
            "pulled_back": cfg.diffeo is not None,
            "critical_points": cfg.critical_points,
            "scenario_fingerprint": scenario_fingerprint(cfg),
        })
    patches = [{"name": name, "classification": spec["classification"],
                "scenario": spec["scenario"]}
               for name, spec in sorted(CATALOG_PATCHES.items())]
    checks = [check("catalog_listed", True, n_scenarios=len(entries),
                    n_patches=len(patches))]
    return build_report("catalog", "catalog", fingerprint(
        {"builtin": [e["name"] for e in entries]}), checks,
        records=entries, seed=seed, workers=workers,
        extras={"patches": patches})
