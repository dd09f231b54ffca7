"""Command implementations behind the CLI.

Each scenario command returns its `Findings`, and `scenario_report` turns
them into the report. All verdicts come with the numbers that produced
them, and every sampling decision flows from the configured seed so reruns
with the same config are byte-identical up to the timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import MorphismScenario
from .catalog import CATALOG_PATCHES, catalog_configs, catalog_patch, patch_grid
from .config import ScenarioConfig
from .errors import ConfigError
from .geometry import einstein_defect
from .hermitian import pseudo_holomorphy_residual, structure_deviation_rate
from .morphism import point_geometry, validate_morphism
from .parallel import ordered_map
from .report import build_report, check, fingerprint
from .symbol import (center_sample, dilation_lower_rate, remainder_rates,
                     symbol_polynomial)
from .twistor import (LiftGeometry, curvature_densities, script_J_residual,
                      vertical_energy_density)
from .weingarten import identity_scale, product_bound_scan, weingarten_report

EINSTEIN_GATE = 1e-8
# the rate table's label of a fit, where it differs from the fit's rates key
RATE_TABLE_LABELS = {"remainder_differential": "remainder_diff",
                     "dilation_lower": "dilation_min"}


@dataclass
class Findings:
    """What one scenario command found; `table` holds its CSV rows, if any."""

    checks: list
    records: list
    rates: dict | None = None
    extras: dict | None = None
    table: list | None = None


def scenario_fingerprint(config: ScenarioConfig) -> str:
    return fingerprint(config.to_canonical())


def scenario_report(command: str, config: ScenarioConfig, found: Findings,
                    seed: int, workers: int) -> dict:
    return build_report(command, config.name, scenario_fingerprint(config),
                        found.checks, records=found.records, rates=found.rates,
                        seed=seed, workers=workers, extras=found.extras)


def _sample_points(scenario: MorphismScenario, n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    lo = np.asarray(scenario.domain.lo, dtype=float)
    hi = np.asarray(scenario.domain.hi, dtype=float)
    margin = 0.05 * (hi - lo)
    return [rng.uniform(lo + margin, hi - margin) for _ in range(n)]


def _record_table(records: list, key: str, columns: tuple, drop: tuple = ()) -> list:
    """CSV rows of records, with records[key] spread into `columns` and the
    keys in `drop` left out."""
    return [{**dict(zip(columns, r[key])),
             **{k: v for k, v in r.items() if k != key and k not in drop}}
            for r in records]


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
    result = validate_morphism(scenario, points, tol=tol["defect"])
    records = [{"point": r.point, "status": r.status,
                "dilation_sup": r.dilation_sup, "defect": r.defect,
                "tension": r.tension} for r in result.records]
    checks = [
        check("hwc_defect", result.max_defect <= tol["defect"],
              max_defect=result.max_defect, tolerance=tol["defect"],
              n_points=len(points)),
        check("tension", result.max_tension <= tol["tension"],
              max_tension=result.max_tension, tolerance=tol["tension"],
              n_points=len(points)),
    ]
    return Findings(checks, records, table=_record_table(
        records, "point", ("x1", "x2", "x3", "x4")))


def run_analyze(config: ScenarioConfig, scenario: MorphismScenario,
                point) -> Findings:
    tol = config.analysis["tolerances"]
    m = np.asarray(point, dtype=float)
    geo = point_geometry(scenario, m)
    cls = geo.classification
    record = {"point": m, "status": cls.status, "dilation_sup": cls.dilation_sup}
    if cls.is_regular:
        split = geo.split
        pair = geo.pair
        res_plus = pseudo_holomorphy_residual(scenario, m, pair.j_plus)
        res_minus = pseudo_holomorphy_residual(scenario, m, pair.j_minus)
        record.update({
            "defect": split.defect,
            "horizontal": split.horizontal, "vertical": split.vertical,
            "j_plus": pair.j_plus, "j_minus": pair.j_minus,
            "residual_plus": res_plus, "residual_minus": res_minus,
        })
        checks = [
            check("hwc_defect", split.defect <= tol["defect"],
                  defect=split.defect, dilation=cls.dilation_sup,
                  tolerance=tol["defect"]),
            check("structure_residual",
                  max(res_plus, res_minus) <= tol["residual"],
                  residual_plus=res_plus, residual_minus=res_minus,
                  tolerance=tol["residual"]),
        ]
    else:
        checks = [check("classification", True, status=cls.status,
                        dilation_sup=cls.dilation_sup)]
    return Findings(checks, [record])


def run_symbol(config: ScenarioConfig, scenario: MorphismScenario) -> Findings:
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


def run_rate(config: ScenarioConfig, scenario: MorphismScenario,
             seed: int) -> Findings:
    records = []
    checks = []
    rates = {}
    rows = []
    for idx, center in enumerate(_critical_centers(config, "rate")):
        sample = center_sample(scenario, center, radii=config.analysis["radii"],
                               n_directions=config.analysis["n_directions"], seed=seed)
        deviation = structure_deviation_rate(sample)
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
            check(f"structure_deviation[{idx}]", deviation.verdict == "PASS",
                  slope=deviation.deviation_fit.slope,
                  zero_branch=deviation.deviation_fit.zero_branch,
                  orth_slope=deviation.metric_orth_fit.slope,
                  skew_slope=deviation.metric_skew_fit.slope),
            check(f"remainder_decay[{idx}]", remainder.verdict == "PASS",
                  order=sample.symbol.order,
                  value_slope=remainder.value_fit.slope,
                  differential_slope=remainder.differential_fit.slope),
            check(f"dilation_lower[{idx}]", dilation.verdict == "PASS",
                  slope=dilation.fit.slope,
                  envelope_constant=dilation.envelope_constant),
        ])
        rows.extend({"quantity": f"{RATE_TABLE_LABELS.get(key, key)}[{idx}]",
                     "radius": r, "value": v}
                    for key, fit in fits.items()
                    for r, v in zip(fit.radii, fit.values))
    return Findings(checks, records, rates=rates, table=rows)


def run_weingarten_point(config: ScenarioConfig, scenario: MorphismScenario,
                         point) -> Findings:
    tol = config.analysis["tolerances"]
    m = np.asarray(point, dtype=float)
    rep = weingarten_report(scenario, m, angle=config.analysis["angle"],
                            step=config.analysis["fd_step"], include_direct=True)
    scale = identity_scale(rep.a, rep.b, rep.c, rep.d)
    gap = abs(rep.product_expanded - rep.product_polar) / scale
    rel_plus = abs(rep.norm_plus_closed - rep.norm_plus_direct) / max(
        1.0, rep.norm_plus_closed)
    rel_minus = abs(rep.norm_minus_closed - rep.norm_minus_direct) / max(
        1.0, rep.norm_minus_closed)
    record = {
        "point": m, "vertical_unit": rep.vertical_unit,
        "coefficients": {"a": rep.a, "b": rep.b, "c": rep.c, "d": rep.d},
        "polar": {"r1": rep.r1, "r2": rep.r2,
                  "theta": rep.theta, "alpha": rep.alpha},
        "commutator": rep.commutator,
        "norm_plus_closed": rep.norm_plus_closed,
        "norm_minus_closed": rep.norm_minus_closed,
        "norm_plus_direct": rep.norm_plus_direct,
        "norm_minus_direct": rep.norm_minus_direct,
        "product": rep.product,
        "product_expanded": rep.product_expanded,
        "product_polar": rep.product_polar,
    }
    checks = [
        check("product_identity", gap <= tol["identity_gap"],
              identity_gap=gap, scale=scale, tolerance=tol["identity_gap"]),
        check("closed_vs_direct",
              max(rel_plus, rel_minus) <= tol["direct_rel"],
              rel_plus=rel_plus, rel_minus=rel_minus,
              tolerance=tol["direct_rel"]),
    ]
    einstein = einstein_defect(rep.geometry.metric_point)
    record["einstein_defect"] = einstein
    if einstein <= EINSTEIN_GATE:
        # the commutation identity for the shape product only holds on
        # Einstein charts, so the check is gated on the pointwise defect
        cdef = float(np.linalg.norm(rep.commutator))
        record["commutator_defect"] = cdef
        checks.append(check("einstein_commutation", cdef <= tol["commutator"],
                            commutator_defect=cdef, einstein_defect=einstein,
                            tolerance=tol["commutator"]))
    return Findings(checks, [record])


def run_weingarten_scan(config: ScenarioConfig, scenario: MorphismScenario,
                        point, seed: int) -> Findings:
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
    checks = [
        check("product_bounded", scan.verdict == "PASS",
              plateau=scan.plateau, bound=scan.bound,
              worst_annulus=max(scan.annulus_max)),
        check("product_identity", scan.identity_gap <= tol["identity_gap"],
              identity_gap=scan.identity_gap, tolerance=tol["identity_gap"]),
    ]
    rows = [{"radius": r, "annulus_max": v, "skipped": s}
            for r, v, s in zip(scan.radii, scan.annulus_max, scan.skipped)]
    return Findings(checks, [record], table=rows)


def run_twistor(config: ScenarioConfig, scenario: MorphismScenario,
                patch_name: str) -> Findings:
    tol = config.analysis["tolerances"]
    spec = catalog_patch(patch_name)
    patch = spec["patch"]
    tag = spec["orientation"]
    step = config.analysis["fd_step"]
    grid = patch_grid(patch)

    def one(p):
        geo = LiftGeometry(scenario, patch, p, orientation=tag, step=step)
        residual = script_J_residual(geo)
        energy = vertical_energy_density(geo)
        omega_t, omega_n = curvature_densities(geo)
        return {"parameter": geo.parameter, "fiber": geo.lift.fiber,
                "residual": residual, "energy": energy.value,
                "area_element": energy.area_element,
                "omega_tangent": omega_t, "omega_normal": omega_n}

    records = ordered_map(one, grid)
    residuals = [r["residual"] for r in records]
    checks = []
    if spec["classification"] == "minimal":
        checks.append(check(
            "lift_residual_minimal", max(residuals) <= tol["residual_minimal"],
            max_residual=max(residuals), patch=patch_name,
            tolerance=tol["residual_minimal"]))
    else:
        checks.append(check(
            "lift_residual_control", min(residuals) >= tol["residual_control"],
            min_residual=min(residuals), patch=patch_name,
            floor=tol["residual_control"]))
    if spec["omega"] is not None:
        worst_t = max(abs(abs(r["omega_tangent"]) - spec["omega"]["tangent_abs"])
                      for r in records)
        worst_n = max(abs(abs(r["omega_normal"]) - spec["omega"]["normal_abs"])
                      for r in records)
        checks.append(check(
            "curvature_densities",
            max(worst_t, worst_n) <= tol["curvature"],
            tangent_error=worst_t, normal_error=worst_n,
            expected_tangent_abs=spec["omega"]["tangent_abs"],
            tolerance=tol["curvature"]))
    return Findings(checks, records,
                    extras={"patch": patch_name, "orientation": tag},
                    table=_record_table(records, "parameter", ("s", "t"),
                                        drop=("fiber",)))


def run_catalog(seed: int, workers: int) -> dict:
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
