"""End-to-end command line tests over the built-in catalog."""

import csv
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morphoscope import _linalg, cli, runner, structures, weingarten
from morphoscope import report as report_module
from morphoscope.calculus import MorphismScenario
from morphoscope.catalog import CATALOG_PATCHES, catalog_configs
from morphoscope.cli import main
from morphoscope.config import MAX_SAMPLES, ScenarioConfig, build_scenario
from morphoscope.morphism import geometry_stack
from morphoscope.polynomials import Poly
from morphoscope.report import fingerprint
from morphoscope.structures import STRUCTURES_PLUS

from test_golden_fingerprints import BATTERY, GOLDEN, run_case
from test_morphism import count_geometry_builds, count_jets, refuse_frames
from test_symbol import count_calls, scaled_catalog_config
from test_weingarten import count_columns


def write_config(tmp_path, name):
    cfg = catalog_configs()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def read_report(tmp_path, stem):
    return json.loads((tmp_path / f"{stem}.json").read_text())


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def assert_table_matches_records(csv_path, records, key, columns, drop=()):
    # the CSV is the records with records[key] spread into `columns`
    with csv_path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        # report keys come back sorted, so only the spread columns have an order
        rest = reader.fieldnames[len(columns):]
        assert reader.fieldnames[:len(columns)] == list(columns)
        assert sorted(rest) == sorted(k for k in records[0]
                                      if k != key and k not in drop)
        rows = list(reader)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert [float(row[c]) for c in columns] == record[key]
        for k in rest:
            value = record[k]
            assert (row[k] if isinstance(value, str) else float(row[k])) == value, k


def test_validate_catalog_scenario(tmp_path):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, "validate", "--config", str(cfg)) == 0
    report = read_report(tmp_path, "z1z2_validate")
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["hwc_defect"]["evidence"]["max_defect"] <= 1e-8
    assert by_name["tension"]["evidence"]["max_tension"] <= 1e-8
    assert len(report["records"]) == 100
    assert_table_matches_records(tmp_path / "z1z2_validate.csv", report["records"],
                                 "point", ("x1", "x2", "x3", "x4"))


@pytest.mark.parametrize("command", ["validate", "weingarten --point=0.5,0.2,0.1,-0.2",
                                     "weingarten --scan"])
def test_report_takes_no_python_walk(tmp_path, monkeypatch, command):
    # the config and the report body are each encoded in one json.dumps
    # pass: no walk copies them first, and the encoder hands its fallback
    # only the NumPy values it cannot write itself, never a dict or a list
    raw = catalog_configs()["pullback_z1z2"]
    raw["analysis"] = {"n_points": 400}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    plain = report_module._plain
    seen = []

    def recorded(obj):
        seen.append(obj)
        return plain(obj)

    monkeypatch.setattr(report_module, "_plain", recorded)
    name, *args = command.split()
    assert run(tmp_path, name, "--config", str(path), *args) == 0
    assert all(isinstance(obj, (np.ndarray, np.generic)) for obj in seen)
    # a weingarten report holds arrays, which the fallback takes whole
    assert seen or name == "validate"
    assert not hasattr(report_module, "sanitize")
    if name == "validate":
        # the records are columns, checked in their own vectorised pass
        # (tests/test_columns.py injects a NaN cell)
        assert len(read_report(tmp_path, "pullback_z1z2_validate")["records"]) == 400


def test_one_parser_serves_every_call(tmp_path):
    # the parser is built once per process; no option of one call may
    # reach the next
    cfg = write_config(tmp_path, "z1z2")
    assert cli._parser() is cli._parser()
    assert run(tmp_path, "weingarten", "--config", str(cfg), "--scan", "--seed", "5") == 0
    assert run(tmp_path, "weingarten", "--config", str(cfg),
               "--point=0.5,0.2,0.1,-0.2") == 0
    scan = read_report(tmp_path, "z1z2_weingarten_scan")
    point = read_report(tmp_path, "z1z2_weingarten_point")
    assert scan["seed"] == 5 and point["seed"] == 0
    assert point["records"][0]["point"] == [0.5, 0.2, 0.1, -0.2]
    assert "radii" not in point["records"][0]
    assert not (tmp_path / "z1z2_weingarten_point.csv").exists()
    # the same report as the point command alone gives
    golden = json.loads((Path(__file__).with_name("golden_fingerprints.json")).read_text())
    assert point["fingerprint"] == golden[
        "z1z2 weingarten --point=0.5,0.2,0.1,-0.2"]["fingerprint"]


# the failing control of validate: a linear map that is not horizontally
# conformal on a flat chart
ANISO = {
    "name": "aniso",
    "metric": {"kind": "flat", "box": {"lo": [-1.5] * 4, "hi": [1.5] * 4}},
    "map": {"kind": "real",
            "components": [[{"exponents": [1, 0, 0, 0], "value": 1.0}],
                           [{"exponents": [0, 1, 0, 0], "value": 2.0}]]},
}


def test_validate_negative_control(tmp_path):
    path = tmp_path / "aniso.json"
    path.write_text(json.dumps(ANISO))
    assert run(tmp_path, "validate", "--config", str(path)) == 1
    report = read_report(tmp_path, "aniso_validate")
    defect = {c["name"]: c for c in report["checks"]}["hwc_defect"]
    assert defect["verdict"] == "FAIL"
    assert abs(defect["evidence"]["max_defect"] - 2.1213203435596424) < 1e-6


def scaled_aniso(factor) -> dict:
    cfg = json.loads(json.dumps(ANISO))
    for component in cfg["map"]["components"]:
        for term in component:
            term["value"] *= factor
    return cfg


@pytest.mark.parametrize("config", [
    scaled_catalog_config("z1z2", 1e-10), scaled_catalog_config("z1z2", 1e-150),
    scaled_aniso(1e-10)], ids=["z1z2-1e-10", "z1z2-1e-150", "aniso-1e-10"])
def test_validate_without_a_regular_sample_fails(tmp_path, config):
    # every sampled dilation is below the critical threshold, so neither
    # maximum is taken over any point: both checks fail and say so
    path = tmp_path / "small.json"
    path.write_text(json.dumps(config))
    assert run(tmp_path, "validate", "--config", str(path)) == 1
    report = read_report(tmp_path, f"{config['name']}_validate")
    assert all(record["status"] == "critical" for record in report["records"])
    for item in report["checks"]:
        assert item["verdict"] == "FAIL"
        assert item["evidence"]["n_regular"] == 0


@pytest.mark.parametrize("factor", [1e200, 1e250])
def test_an_overflowing_tension_exits_two_without_a_warning(tmp_path, capsys, factor):
    # the squared tension of 1e200 pullback_z1z2 overflows; the norm is
    # infinite and silent, and validate names the point
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scaled_catalog_config("pullback_z1z2", factor)))
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    assert "GeometryError: conformality defect or tension is not finite at" in (
        capsys.readouterr().err)


def test_analyze_regular_point(tmp_path):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, "analyze", "--config", str(cfg),
               "--point", "1,0,0,0") == 0
    record = read_report(tmp_path, "z1z2_analyze")["records"][0]
    assert record["status"] == "regular"
    assert not (tmp_path / "z1z2_analyze.csv").exists()
    assert abs(record["dilation_sup"] - 1.0) < 1e-12
    assert np.allclose(record["j_plus"], STRUCTURES_PLUS[2], atol=1e-12)


def test_analyze_critical_point(tmp_path):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, "analyze", "--config", str(cfg),
               "--point", "0,0,0,0") == 0
    record = read_report(tmp_path, "z1z2_analyze")["records"][0]
    assert record["status"] == "critical"


def test_symbol_candidate_counts(tmp_path):
    for name, expected in (("z1z2", 1), ("z1sq", 2)):
        cfg = write_config(tmp_path, name)
        assert run(tmp_path, "symbol", "--config", str(cfg)) == 0
        ev = read_report(tmp_path, f"{name}_symbol")["checks"][0]["evidence"]
        assert ev["order"] == 2
        assert ev["n_candidates"] == expected
    assert sorted(ev["orientations"]) == [-1, 1]


def test_rate_command_writes_fits_and_csv(tmp_path):
    cfg = write_config(tmp_path, "pullback_z1z2")
    assert run(tmp_path, "rate", "--config", str(cfg)) == 0
    report = read_report(tmp_path, "pullback_z1z2_rate")
    fits = report["rates"]["center[0]"]
    assert fits["deviation"]["slope"] >= 0.9
    assert fits["metric_orth"]["slope"] >= 1.9
    # `== False` would pass on 0 as well
    assert all(fit["zero_branch"] is False for fit in fits.values())
    deviation = {c["name"]: c for c in report["checks"]}["structure_deviation[0]"]
    assert deviation["evidence"]["zero_branch"] is False
    csv_text = (tmp_path / "pullback_z1z2_rate.csv").read_text()
    assert csv_text.startswith("quantity,radius,value")
    # the catalog certifies the config's orientation, so none is recorded
    assert "orientation" not in deviation["evidence"]


def test_rate_falls_back_to_the_other_certified_orientation(tmp_path):
    # conj(z1) z2 is z1 z2 after the orientation-reversing isometry
    # x2 -> -x2: its symbol certifies only the orientation -1, and rate
    # measures the deviation in it instead of rejecting the map
    def mono(exponents, value):
        return {"exponents": exponents, "value": value}

    config = {"name": "conj_z1z2",
              "metric": {"kind": "flat", "box": {"lo": [-1.5] * 4, "hi": [1.5] * 4}},
              "map": {"kind": "real", "components": [
                  [mono([1, 0, 1, 0], 1.0), mono([0, 1, 0, 1], 1.0)],
                  [mono([1, 0, 0, 1], 1.0), mono([0, 1, 1, 0], -1.0)]]},
              "critical_points": [[0.0, 0.0, 0.0, 0.0]]}
    path = tmp_path / "conj_z1z2.json"
    path.write_text(json.dumps(config))
    assert run(tmp_path, "symbol", "--config", str(path)) == 0
    symbol = read_report(tmp_path, "conj_z1z2_symbol")["checks"][0]["evidence"]
    assert symbol["orientations"] == [-1]
    assert run(tmp_path, "rate", "--config", str(path)) == 0
    checks = {c["name"]: c for c in read_report(tmp_path, "conj_z1z2_rate")["checks"]}
    deviation = checks["structure_deviation[0]"]
    assert deviation["verdict"] == "PASS"
    assert deviation["evidence"]["orientation"] == -1


def test_weingarten_point_and_scan(tmp_path):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, "weingarten", "--config", str(cfg),
               "--point", "1,0,1,0") == 0
    checks = {c["name"]: c
              for c in read_report(tmp_path, "z1z2_weingarten_point")["checks"]}
    assert "einstein_commutation" in checks
    assert checks["product_identity"]["evidence"]["identity_gap"] <= 1e-10

    cfg2 = write_config(tmp_path, "pullback_z1z2")
    assert run(tmp_path, "weingarten", "--config", str(cfg2), "--scan") == 0
    assert (tmp_path / "pullback_z1z2_weingarten_scan.csv").exists()


def test_weingarten_not_einstein_skips_commutation(tmp_path):
    cfg = write_config(tmp_path, "product_sphere")
    assert run(tmp_path, "weingarten", "--config", str(cfg),
               "--point", "1.2,0.3,0.1,-0.2") == 0
    report = read_report(tmp_path, "product_sphere_weingarten_point")
    names = [c["name"] for c in report["checks"]]
    assert "einstein_commutation" not in names
    assert report["records"][0]["einstein_defect"] > 1e-8


def test_twistor_patches(tmp_path):
    proj = write_config(tmp_path, "proj")
    sphere = write_config(tmp_path, "product_sphere")
    for patch, cfg in (("plane", proj), ("reciprocal", proj),
                       ("catenoid", proj), ("bowl", proj),
                       ("sphere_factor", sphere), ("flat_factor", sphere)):
        assert run(tmp_path, "twistor", "--config", str(cfg),
                   "--patch", patch) == 0, patch
        stem = f"{cfg.stem}_twistor_{patch}"
        assert_table_matches_records(tmp_path / f"{stem}.csv",
                                     read_report(tmp_path, stem)["records"],
                                     "parameter", ("s", "t"), drop=("fiber",))
    report = read_report(tmp_path, "product_sphere_twistor_sphere_factor")
    curvature = {c["name"]: c for c in report["checks"]}["curvature_densities"]
    assert curvature["evidence"]["tangent_error"] <= 1e-4


def test_catalog_command_lists_builtins(tmp_path):
    assert run(tmp_path, "catalog") == 0
    report = read_report(tmp_path, "catalog")
    names = [e["name"] for e in report["records"]]
    assert names == ["product_sphere", "proj", "pullback_z1z2",
                     "z1sq", "z1z2", "z1z2_cubic"]
    assert len(report["patches"]) == 6
    assert [e["pulled_back"] for e in report["records"]] == [
        False, False, True, False, False, False]
    assert all(isinstance(e["pulled_back"], bool) for e in report["records"])


def test_reports_keep_booleans():
    plain = json.loads(report_module._canonical({"flag": True, "numpy": np.bool_(False),
                                                 "count": np.int64(2)}))
    assert plain["flag"] is True and plain["numpy"] is False
    assert type(plain["count"]) is int


def test_catalog_round_trip_fingerprints(tmp_path):
    for name, raw in catalog_configs().items():
        direct = ScenarioConfig.from_dict(raw)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        reloaded = ScenarioConfig.from_file(path)
        assert fingerprint(direct.to_canonical()) == fingerprint(
            reloaded.to_canonical()), name


def test_reports_deterministic_across_workers(tmp_path):
    cfg = write_config(tmp_path, "pullback_z1z2")
    out1 = tmp_path / "w1"
    out8 = tmp_path / "w8"
    for out, workers in ((out1, "1"), (out8, "8")):
        assert main(["validate", "--config", str(cfg), "--workers", workers,
                     "--out", str(out)]) == 0
    a = json.loads((out1 / "pullback_z1z2_validate.json").read_text())
    b = json.loads((out8 / "pullback_z1z2_validate.json").read_text())
    assert a["fingerprint"] == b["fingerprint"]
    assert a["scenario_fingerprint"] == b["scenario_fingerprint"]
    assert a["records"] == b["records"]


def test_seed_changes_fingerprint_workers_do_not(tmp_path):
    cfg = write_config(tmp_path, "z1z2")
    outs = [tmp_path / f"o{k}" for k in range(3)]
    assert main(["validate", "--config", str(cfg), "--seed", "0",
                 "--out", str(outs[0])]) == 0
    assert main(["validate", "--config", str(cfg), "--seed", "1",
                 "--out", str(outs[1])]) == 0
    assert main(["validate", "--config", str(cfg), "--seed", "0",
                 "--workers", "4", "--out", str(outs[2])]) == 0
    reports = [json.loads((o / "z1z2_validate.json").read_text()) for o in outs]
    assert reports[0]["fingerprint"] != reports[1]["fingerprint"]
    assert reports[0]["fingerprint"] == reports[2]["fingerprint"]


# the real component x1 and the flat polynomial metric table, with the
# entry (0, 1) raised by `skew` alone when skew is nonzero
X1 = [{"exponents": [1, 0, 0, 0], "value": 1.0}]


def polynomial_table(skew: float = 0.0) -> list:
    table = [[[{"exponents": [0, 0, 0, 0], "value": float(i == j)}] for j in range(4)]
             for i in range(4)]
    table[0][1] = [{"exponents": [0, 0, 0, 0], "value": skew}]
    return table


@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c["analysis"].update(radii=[0.1, 0.2, 0.05]),
     "strictly decreasing"),
    (lambda c: c["map"]["coefficients"][0].pop("re"), "required field"),
    (lambda c: c["map"]["coefficients"][0].update(i=-1), "at least 0"),
    (lambda c: c["map"]["coefficients"][0].update(i=7), "degree"),
    (lambda c: c["metric"]["box"].update(hi=[-2.0, 1.5, 1.5, 1.5]), "empty"),
    (lambda c: c["metric"].update(kind="hyperbolic"), "unknown metric kind"),
    # a block that is not an object, and a boolean orientation
    (lambda c: c.update(metric=5), "config.metric: expected an object"),
    (lambda c: c.update(metric="kind"), "config.metric: expected an object"),
    (lambda c: c.update(map=5), "config.map: expected an object"),
    (lambda c: c.update(diffeo=5), "config.diffeo: expected an object"),
    (lambda c: c.update(diffeo="components"), "config.diffeo: expected an object"),
    (lambda c: c.update(orientation=True), "config.orientation: must be 1 or -1"),
    # the analysis block
    (lambda c: c.update(analysis=5), "config.analysis: expected an object"),
    (lambda c: c["analysis"].update(bogus=1), "config.analysis.bogus: unknown analysis parameter"),
    (lambda c: c["analysis"].update(tolerances=5),
     "config.analysis.tolerances: expected an object of named tolerances"),
    (lambda c: c["analysis"].update(tolerances={"bogus": 1e-3}),
     "config.analysis.tolerances.bogus: unknown tolerance name"),
    (lambda c: c["analysis"].update(tolerances={"defect": 0.0}),
     "config.analysis.tolerances.defect: must be positive"),
    (lambda c: c["analysis"].update(tolerances={"defect": True}),
     "config.analysis.tolerances.defect: expected a number"),
    # JSON reads 1e400 as infinity, as it reads the Infinity written here
    (lambda c: c["analysis"].update(angle=float("1e400")),
     "config.analysis.angle: must be finite"),
    (lambda c: c["analysis"].update(n_directions=3),
     "config.analysis.n_directions: must be at least 4"),
    (lambda c: c["analysis"].update(radii=[0.1, 0.05]),
     "config.analysis.radii: expected a list of at least three radii"),
    # the schema of the config itself
    (lambda c: [c], "config: top level must be an object"),
    (lambda c: c.update(extra=1), "config.extra: unknown field"),
    (lambda c: c.update(critical_points=5), "config.critical_points: expected a list of points"),
    (lambda c: c.update(critical_points=[[0.0, 0.0, 0.0]]),
     "config.critical_points[0]: expected a list of 4 numbers"),
    (lambda c: c.update(map={"kind": "real", "components": [X1]}),
     "config.map.components: expected exactly two components"),
    (lambda c: c.update(map={"kind": "real", "components": [
        [{"exponents": [1, 0, 0], "value": 1.0}], X1]}),
     "config.map.components[0][0].exponents: expected four integers"),
    (lambda c: c.update(map={"kind": "real", "components": [
        [{"exponents": [7, 0, 0, 0], "value": 1.0}], X1]}),
     "config.map.components[0][0].exponents: total degree exceeds 6"),
    # metric blocks
    (lambda c: c.update(metric={"kind": "product_sphere", "radius": 1.0,
                                "box": {"lo": [-0.5] * 4, "hi": [0.5] * 4}}),
     "config.metric.box: polar coordinate must stay inside (0, pi)"),
    (lambda c: c["metric"].update(kind="polynomial", entries=polynomial_table()[:3]),
     "config.metric.entries: expected a 4x4 table of polynomials"),
    (lambda c: c["metric"].update(kind="polynomial", entries=polynomial_table(skew=0.5)),
     "config.metric.entries[1][0]: metric table must be symmetric"),
    # sample counts past the cap, and boxes whose width overflows
    (lambda c: c["analysis"].update(n_points=MAX_SAMPLES + 1),
     f"config.analysis.n_points: must be at most {MAX_SAMPLES}"),
    (lambda c: c["analysis"].update(n_points=10 ** 15),
     f"config.analysis.n_points: must be at most {MAX_SAMPLES}"),
    (lambda c: c["analysis"].update(n_directions=MAX_SAMPLES + 1),
     f"config.analysis.n_directions: must be at most {MAX_SAMPLES}"),
    (lambda c: c["analysis"].update(n_directions=10 ** 15),
     f"config.analysis.n_directions: must be at most {MAX_SAMPLES}"),
    (lambda c: c["metric"].update(box={"lo": [-1e308] * 4, "hi": [1e308] * 4}),
     "config.metric.box.hi[0]: box width hi - lo overflows"),
    (lambda c: c.update(diffeo=linear_diffeo(1.0, 0.0, {"lo": [-1e308] * 4, "hi": [1e308] * 4})),
     "config.diffeo.box.hi[0]: box width hi - lo overflows"),
])
def test_malformed_configs_exit_two(tmp_path, capsys, monkeypatch, mutate, fragment):
    # each is rejected as the config is read: no scenario is built, so no
    # sample array is allocated
    monkeypatch.setattr(cli, "build_scenario",
                        lambda config: pytest.fail("the config was accepted"))
    config = {
        "name": "probe",
        "metric": {"kind": "flat",
                   "box": {"lo": [-1.5] * 4, "hi": [1.5] * 4}},
        "map": {"kind": "holomorphic",
                "coefficients": [{"i": 1, "j": 1, "re": 1.0, "im": 0.0}]},
        "analysis": {},
    }
    # a mutation that returns a list writes that list in place of the config
    replaced = mutate(config)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(replaced if isinstance(replaced, list) else config))
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    assert fragment in capsys.readouterr().err


def linear_diffeo(scale, shift, box):
    """The diffeo (scale x1 + shift, x2, x3, x4) on a box."""
    first = [x1(scale)] + ([{"exponents": [0, 0, 0, 0], "value": shift}] if shift else [])
    rest = [[{"exponents": [int(k == c) for k in range(4)], "value": 1.0}] for c in (1, 2, 3)]
    return {"components": [first, *rest], "box": box}


def pole_crossing_sphere():
    # the image of x1 in [0.36, 0.64] is the polar angle in [-0.14, 0.14],
    # across the pole and out of the base box [0.35, pi - 0.35]
    config = catalog_configs()["product_sphere"]
    config["diffeo"] = linear_diffeo(1.0, -0.5, {"lo": [0.36, -1.0, -0.5, -0.5],
                                                 "hi": [0.64, 1.0, 0.5, 0.5]})
    return config


def stretched_z1z2():
    # the image of the cube 0.5 has x1 in [-5, 5], out of the base cube 1.5
    config = catalog_configs()["z1z2"]
    config["diffeo"] = linear_diffeo(10.0, 0.0, cube(0.5))
    return config


@pytest.mark.parametrize("config, argv", [
    (pole_crossing_sphere, ["validate"]),
    (pole_crossing_sphere, ["analyze", "--point=0.4,0.1,0.1,0.1"]),
    (pole_crossing_sphere, ["weingarten", "--point=0.4,0.1,0.1,0.1"]),
    (stretched_z1z2, ["validate"]),
    (stretched_z1z2, ["analyze", "--point=0.3,0.1,0.1,0.1"]),
    (stretched_z1z2, ["weingarten", "--point=0.3,0.1,0.1,0.1"]),
    (stretched_z1z2, ["twistor", "--patch", "plane"]),
], ids=["sphere-validate", "sphere-analyze", "sphere-weingarten", "stretched-validate",
        "stretched-analyze", "stretched-weingarten", "stretched-twistor"])
def test_a_pullback_image_outside_its_base_exits_two(tmp_path, capsys, config, argv):
    # the point is in the pulled-back box, its image is not in the base's
    path = tmp_path / "pulled.json"
    path.write_text(json.dumps(config()))
    assert run(tmp_path, *argv, "--config", str(path)) == 2
    assert re.search(r"DomainError: point \[.*\] maps to \[.*\], which leaves the base "
                     r"chart domain", capsys.readouterr().err)


@pytest.mark.parametrize("argv, fragment", [
    (["validate", "--seed", "-1"], "--seed: must be at least 0"),
    (["validate", "--workers", "0"], "--workers: must be at least 1"),
    (["validate", "--fd-step", "0"], "--fd-step: must be positive"),
    (["validate", "--fd-step", "nan"], "--fd-step: must be finite"),
    (["weingarten", "--point", "0.3,-0.2,0.1,0.4", "--fd-step", "0"],
     "--fd-step: must be positive"),
    (["catalog", "--seed", "-1"], "--seed: must be at least 0"),
    (["catalog", "--workers", "0"], "--workers: must be at least 1"),
], ids=["validate-seed", "validate-workers", "validate-fd-step", "validate-fd-step-nan",
        "weingarten-fd-step", "catalog-seed", "catalog-workers"])
def test_invalid_overrides_exit_two(tmp_path, capsys, argv, fragment):
    # command line overrides obey the config file's rule for the same key
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, *argv, "--config", str(cfg)) == 2
    assert fragment in capsys.readouterr().err
    assert [p.name for p in tmp_path.glob("*.json")] == ["z1z2.json"]


@pytest.mark.parametrize("argv, fragment", [
    (["analyze", "--config", "CONFIG"], "--point"),
    (["validate"], "--config"),
    (["twistor", "--config", "CONFIG", "--patch", "moebius"], "unknown patch"),
    (["analyze", "--config", "CONFIG", "--point", "0.1,0.2,0.3"],
     "--point expects four comma-separated numbers"),
    (["analyze", "--config", "CONFIG", "--point", "0.1,0.2,x,0.3"],
     "--point: could not convert string to float"),
    (["weingarten", "--config", "CONFIG"], "weingarten requires --point or --scan"),
    (["twistor", "--config", "CONFIG"], "twistor requires --patch"),
], ids=["analyze-point", "validate-config", "twistor-unknown-patch", "point-three-numbers",
        "point-not-a-number", "weingarten-point-or-scan", "twistor-patch"])
def test_missing_arguments_exit_two(tmp_path, capsys, argv, fragment):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, *(str(cfg) if a == "CONFIG" else a for a in argv)) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("name", ["a\0b", "ABSOLUTE", "sub/dir", "sub\\dir", ".", ".."],
                         ids=["nul", "absolute", "subdirectory", "backslash", "dot", "dotdot"])
def test_a_name_that_is_not_a_file_stem_exits_two(tmp_path, capsys, name):
    # the name becomes the stem of the report files, which stay inside --out
    cfg = catalog_configs()["proj"]
    cfg["name"] = str(tmp_path / "elsewhere" / "x") if name == "ABSOLUTE" else name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(path), "--out", str(out)]) == 2
    assert "config.name" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "elsewhere").exists()


# validate writes its table first, so a failure of the whole directory
# names the table


def test_a_report_name_too_long_for_the_file_system_exits_two(tmp_path, capsys):
    cfg = catalog_configs()["proj"]
    cfg["name"] = "x" * 300
    path = tmp_path / "long.json"
    path.write_text(json.dumps(cfg))
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert f"cannot write {tmp_path / ('x' * 300 + '_validate.csv')}" in err


def test_an_out_path_that_is_a_file_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "proj")
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot write {out / 'proj_validate.csv'}" in capsys.readouterr().err
    assert out.read_text() == ""


def test_a_nul_byte_in_the_out_path_exits_two(tmp_path, capsys):
    # only an in-process caller can pass one: an OS argv cannot hold a NUL
    cfg = write_config(tmp_path, "proj")
    out = tmp_path / "a\0b"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot write {out / 'proj_validate.csv'}" in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["csv", "json"])
def test_a_file_that_cannot_be_written_leaves_no_file(tmp_path, capsys, blocked):
    # exit 2 leaves no report and no table: a directory in the place of
    # either file stops the command, and nothing else is left in --out
    cfg = write_config(tmp_path, "z1z2")
    out = tmp_path / "out"
    (out / f"z1z2_validate.{blocked}").mkdir(parents=True)
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot write {out / f'z1z2_validate.{blocked}'}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [f"z1z2_validate.{blocked}"]


def test_a_nul_byte_in_the_config_path_exits_two(tmp_path, capsys):
    path = f"{write_config(tmp_path, 'proj')}\0x"
    assert run(tmp_path, "validate", "--config", path) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err
    assert not (tmp_path / "proj_validate.json").exists()


def test_a_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err


def test_invalid_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",}')
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    assert "line" in capsys.readouterr().err


def x1(value):
    return {"exponents": [1, 0, 0, 0], "value": value}


@pytest.mark.parametrize("map_spec", [
    {"kind": "real", "components": [[x1(1.0), x1(1.0)], [x1(0.0)]]},
    {"kind": "holomorphic", "coefficients": [{"i": 1, "j": 0, "re": 1.0, "im": 0.0}] * 2},
], ids=["real", "holomorphic"])
def test_repeated_map_monomials_are_summed(map_spec):
    config = {"name": "twice", "metric": {"kind": "flat", "box": cube(1.0)},
              "map": map_spec}
    scenario = build_scenario(ScenarioConfig.from_dict(config))
    assert np.array_equal(scenario.jacobian(np.zeros(4))[0], [2.0, 0.0, 0.0, 0.0])


def test_repeated_metric_monomials_are_summed():
    one = {"exponents": [0, 0, 0, 0], "value": 1.0}
    zero = [{"exponents": [0, 0, 0, 0], "value": 0.0}]
    entries = [[[one] if i == j else zero for j in range(4)] for i in range(4)]
    entries[0][1] = [{"exponents": [0, 0, 0, 0], "value": v} for v in (0.1, 0.2)]
    entries[1][0] = [{"exponents": [0, 0, 0, 0], "value": 0.30000000000000004}]
    config = {"name": "twice",
              "metric": {"kind": "polynomial", "box": cube(1.0), "entries": entries},
              "map": {"kind": "real", "components": [[x1(1.0)], [x1(0.0)]]}}
    # the symmetry check sums the two monomials of g01, so the metric must too
    g = build_scenario(ScenarioConfig.from_dict(config)).metric.matrix(np.zeros(4))
    assert g[0, 1] == g[1, 0] == 0.1 + 0.2


def flat_monomial_config(half_width, i, j, **analysis):
    return {
        "name": "huge",
        "metric": {"kind": "flat",
                   "box": {"lo": [-half_width] * 4, "hi": [half_width] * 4}},
        "map": {"kind": "holomorphic",
                "coefficients": [{"i": i, "j": j, "re": 1.0, "im": 0.0}]},
        "analysis": analysis,
    }


def cube(half_width):
    return {"lo": [-half_width] * 4, "hi": [half_width] * 4}


def chart_config(chart, half_width, coefficient, i, j, **analysis):
    """z1^i z2^j with a center at the origin on a flat chart, on the catalog
    pullback diffeo with both quadratic coefficients set to `coefficient`
    (base box three times as wide), or on the metric 1 + c x1^2 times the
    identity."""
    config = flat_monomial_config(half_width, i, j, **analysis)
    config["critical_points"] = [[0.0, 0.0, 0.0, 0.0]]
    if chart == "pullback":
        def mono(exponents, value):
            return {"exponents": exponents, "value": value}
        config["metric"]["box"] = cube(3.0 * half_width)
        config["diffeo"] = {"box": cube(half_width), "components": [
            [mono([1, 0, 0, 0], 1.0), mono([0, 2, 0, 0], coefficient)],
            [mono([0, 1, 0, 0], 1.0)],
            [mono([0, 0, 1, 0], 1.0)],
            [mono([0, 0, 0, 1], 1.0), mono([1, 0, 1, 0], coefficient)]]}
    elif chart == "polynomial":
        diagonal = [{"exponents": [0, 0, 0, 0], "value": 1.0},
                    {"exponents": [2, 0, 0, 0], "value": coefficient}]
        zero = [{"exponents": [0, 0, 0, 0], "value": 0.0}]
        config["metric"] = {"kind": "polynomial", "box": cube(half_width),
                            "entries": [[diagonal if a == b else zero
                                         for b in range(4)] for a in range(4)]}
    return config


# where a scan center sits: its first coordinate as a fraction of the
# chart's half-width replaces the drawn one
SCAN_PLACES = {"inside": None, "boundary": 1.0, "outside": 5.0}


def command_argv(command, path, half_width, fractions=(0.3, -0.2, 0.1, 0.4),
                 patch="plane", place="inside"):
    if command in ("validate", "symbol", "rate"):
        return [command, "--config", str(path)]
    if command == "twistor":
        return [command, "--config", str(path), "--patch", patch]
    if command == "scan":
        first = SCAN_PLACES[place]
        fractions = [fractions[0] if first is None else first, *fractions[1:]]
        point = ",".join(repr(f * half_width) for f in fractions)
        return ["weingarten", "--config", str(path), "--scan", f"--point={point}"]
    point = ",".join(repr(f * half_width) for f in fractions)
    return [command, "--config", str(path), f"--point={point}"]


OVERFLOW_CASES = [
    # the differential itself overflows at every sample point
    (1e200, "validate", "GeometryError", "huge_validate"),
    # the differential is finite but the defect or the tension overflows
    (1e20, "validate", "GeometryError", "huge_validate"),
    (1e20, "analyze", "GeometryError", "huge_analyze"),
    (1e50, "validate", "GeometryError", "huge_validate"),
    (1e60, "validate", "GeometryError", "huge_validate"),
    # the conformality defect overflows: the splitting names it before its
    # frame, finite at 1e20 and of a non-finite determinant from 1e50
    (1e20, "weingarten", "GeometryError", "huge_weingarten_point"),
    (1e50, "analyze", "GeometryError", "huge_analyze"),
    (1e50, "weingarten", "GeometryError", "huge_weingarten_point"),
    (1e60, "analyze", "GeometryError", "huge_analyze"),
    (1e60, "weingarten", "GeometryError", "huge_weingarten_point"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("half_width,command,error,stem", OVERFLOW_CASES,
                         ids=[f"{h:g}-{c}" for h, c, _, _ in OVERFLOW_CASES])
def test_overflowing_differential_exits_two(tmp_path, capsys, half_width, command,
                                            error, stem):
    # z1^3 z2^3 on a huge box: an overflow anywhere in the pipeline must be
    # a rejected input with a named error, not a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(flat_monomial_config(half_width, 3, 3)))
    assert run(tmp_path, *command_argv(command, path, half_width)) == 2
    err = capsys.readouterr().err
    assert error in err
    if command in ("analyze", "weingarten"):
        # the error names the point it was raised at
        point = [f * half_width for f in (0.3, -0.2, 0.1, 0.4)]
        assert err.rstrip().endswith(f" at {point}")
    if command == "validate" and half_width < 1e200:
        # validate names the first sample point whose defect or tension overflows
        config = ScenarioConfig.from_file(path)
        scenario = build_scenario(config)
        points = runner._sample_points(scenario, config.analysis["n_points"],
                                       config.analysis["seed"])
        stack = geometry_stack(scenario, points)
        first = next(m for m, defect, tension in zip(stack.metric.point, stack.defect,
                                                     stack.tension_norm)
                     if not np.all(np.isfinite([defect, tension])))
        assert err.rstrip().endswith(f" at {first.tolist()}")
    assert not (tmp_path / f"{stem}.json").exists()


def test_an_overflowing_conformality_defect_rejects_the_point(tmp_path, capsys):
    # z1^3 z2^3 on the box of half-width 1e20: the point's differential is
    # finite, but its conformality defect overflows, which names the point
    # with no RuntimeWarning (an error under this suite's settings)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(flat_monomial_config(1e20, 3, 3)))
    assert run(tmp_path, "weingarten", "--config", str(path),
               "--point=3e19,-2e19,1e19,4e19") == 2
    assert capsys.readouterr().err.rstrip().endswith(
        "GeometryError: conformality defect overflows at [3e+19, -2e+19, 1e+19, 4e+19]")
    assert not (tmp_path / "huge_weingarten_point.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command,i,j", [("symbol", 2, 2), ("rate", 0, 1)])
def test_normal_chart_overflow_exits_two(tmp_path, capsys, command, i, j):
    # a pulled-back chart of half-width 1e200: the normal chart's safe cube
    # overflows, which is a rejected input, not a traceback
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(chart_config("pullback", 1e200, 0.1, i, j)))
    assert run(tmp_path, command, "--config", str(path)) == 2
    assert "GeometryError" in capsys.readouterr().err
    assert not (tmp_path / f"huge_{command}.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rejected_chart_metric_names_the_point(tmp_path, capsys):
    # a pulled-back chart of half-width 3e53: the metric of the normal chart
    # at the first shell sample fails the square-root rule
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(chart_config("pullback", 3e53, 0.1, 1, 1)))
    assert run(tmp_path, "rate", "--config", str(path)) == 2
    err = capsys.readouterr().err
    assert re.search(r"GeometryError: chart metric is not positive definite at \[.+\]", err)
    assert not (tmp_path / "huge_rate.json").exists()


# the four catalog maps with a critical center
CRITICAL_CONFIGS = ("z1z2", "z1sq", "z1z2_cubic", "pullback_z1z2")
REGULAR_POINT = "--point=0.5,0.2,0.1,-0.2"


def metric_battery() -> list:
    """(config, command arguments) of the catalog battery."""
    configs = sorted(catalog_configs())
    return ([(name, ["validate"]) for name in configs]
            + [(name, ["analyze", REGULAR_POINT]) for name in configs]
            + [(name, ["weingarten", REGULAR_POINT]) for name in configs]
            + [(name, ["weingarten", "--scan"]) for name in CRITICAL_CONFIGS]
            + [(name, ["rate"]) for name in CRITICAL_CONFIGS]
            + [(spec["scenario"], ["twistor", "--patch", patch])
               for patch, spec in sorted(CATALOG_PATCHES.items())])


@pytest.mark.parametrize("name,args", metric_battery(),
                         ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_metric_is_evaluated_once_per_point(tmp_path, metric_calls, name, args):
    # every command reads one metric point per chart point: the matrix is
    # evaluated once per distinct point, and each derivative at most once
    cfg = write_config(tmp_path, name)
    assert run(tmp_path, args[0], "--config", str(cfg), *args[1:]) == 0
    points = metric_calls["matrix"]
    assert points and len(points) == len(set(points))
    for derivative in ("first_derivatives", "second_derivatives"):
        at = metric_calls[derivative]
        assert len(at) == len(set(at)) and set(at) <= set(points), derivative


def test_symbol_without_candidates_fails_with_evidence(tmp_path):
    # large diffeo coefficients leave the leading symbol of z1^2 z2^2 with no
    # compatible structure: the check fails, it does not crash or pass
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(chart_config("pullback", 1.0, 1000.0, 2, 2)))
    assert run(tmp_path, "symbol", "--config", str(path)) == 1
    (certified,) = read_report(tmp_path, "huge_symbol")["checks"]
    assert certified["name"] == "symbol_certified[0]"
    assert certified["verdict"] == "FAIL"
    assert certified["evidence"]["n_candidates"] == 0
    assert "max_residual" not in certified["evidence"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(exponent=st.integers(-3, 300), i=st.integers(0, 3), j=st.integers(0, 3),
       n_points=st.integers(1, 3),
       chart=st.sampled_from(["flat", "pullback", "polynomial"]),
       coefficient=st.floats(0.0, 1e3),
       command=st.sampled_from(["validate", "analyze", "weingarten", "scan",
                                "symbol", "rate", "twistor"]),
       fractions=st.lists(st.floats(-0.9, 0.9), min_size=4, max_size=4),
       patch=st.sampled_from(sorted(CATALOG_PATCHES)),
       place=st.sampled_from(sorted(SCAN_PLACES)),
       fd_exponent=st.one_of(st.none(), st.integers(-300, -1)))
# a pulled-back metric that passes the positive-definiteness checks but is
# numerically singular for the Christoffel solve
@example(exponent=2, i=0, j=0, n_points=1, chart="pullback", coefficient=734.671875,
         command="validate", fractions=[0.0] * 4, patch="plane", place="inside",
         fd_exponent=None)
# z1 z2 scanned around a center outside the box, and one on its boundary
# (zero radii)
@example(exponent=0, i=1, j=1, n_points=1, chart="flat", coefficient=0.0,
         command="scan", fractions=[0.0] * 4, patch="plane", place="outside",
         fd_exponent=None)
@example(exponent=0, i=1, j=1, n_points=1, chart="flat", coefficient=0.0,
         command="scan", fractions=[0.0] * 4, patch="plane", place="boundary",
         fd_exponent=None)
# a step below the resolution, which no command reads
@example(exponent=0, i=1, j=1, n_points=1, chart="flat", coefficient=0.0,
         command="weingarten", fractions=[0.6, 0.2, -0.5, 0.4], patch="plane",
         place="inside", fd_exponent=-300)
@example(exponent=1, i=1, j=1, n_points=1, chart="flat", coefficient=0.0,
         command="twistor", fractions=[0.0] * 4, patch="catenoid", place="inside",
         fd_exponent=-300)
@example(exponent=1, i=1, j=1, n_points=1, chart="flat", coefficient=0.0,
         command="twistor", fractions=[0.0] * 4, patch="bowl", place="inside",
         fd_exponent=-300)
def test_exit_code_contract_holds_across_charts(exponent, i, j, n_points, chart,
                                                coefficient, command, fractions,
                                                patch, place, fd_exponent):
    # every config within the schema ends in 0, 1 or 2, never in a traceback;
    # a scan center not strictly inside the box is a rejected input, and the
    # step, which no command reads, is accepted at any positive value
    half_width = 10.0 ** exponent
    config = chart_config(chart, half_width, coefficient, i, j, n_points=n_points)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.json"
        path.write_text(json.dumps(config))
        argv = command_argv(command, path, half_width, fractions, patch, place)
        if fd_exponent is not None:
            argv += ["--fd-step", repr(10.0 ** fd_exponent)]
        code = main([*argv, "--out", tmp])
    assert code in (0, 1, 2)
    if command == "scan" and place != "inside":
        assert code == 2


def test_scan_fails_an_annulus_without_certified_samples(tmp_path):
    # every sample at radius 10, 5 or 2.5 around the origin leaves the box
    # of half-width 1.5, so no annulus bounds the product
    raw = catalog_configs()["z1z2"]
    raw["analysis"] = {"scan_radii": [10.0, 5.0, 2.5]}
    path = tmp_path / "z1z2.json"
    path.write_text(json.dumps(raw))
    assert run(tmp_path, "weingarten", "--config", str(path), "--scan") == 1
    report = read_report(tmp_path, "z1z2_weingarten_scan")
    checks = {c["name"]: c for c in report["checks"]}
    bounded = checks["product_bounded"]
    assert bounded["verdict"] == "FAIL"
    assert bounded["evidence"]["empty_annuli"] == [10.0, 5.0, 2.5]
    # no sample measures the identity gap, so the identity check fails too
    identity = checks["product_identity"]
    assert identity["verdict"] == "FAIL"
    assert identity["evidence"]["empty_annuli"] == [10.0, 5.0, 2.5]
    assert report["records"][0]["skipped"] == [16, 16, 16]


@pytest.mark.parametrize("name", ["z1z2", "pullback_z1z2", "product_sphere"])
def test_weingarten_point_reads_the_direct_norms_once(tmp_path, monkeypatch, name):
    # the point alone, whose exact jets give every derivative; its shape
    # stack derives the direct-norm column once, in one frame-component
    # pass over J+ and J- together
    builds = count_geometry_builds(monkeypatch)
    columns = count_columns(monkeypatch)
    passes = count_calls(monkeypatch, weingarten, "frame_components")
    cfg = write_config(tmp_path, name)
    assert run(tmp_path, "weingarten", "--config", str(cfg), REGULAR_POINT) == 0
    assert len(builds) == 1
    assert columns.count("direct") == 1
    assert len(passes) == 1


def test_weingarten_scan_never_reads_the_direct_norms(tmp_path, monkeypatch):
    columns = count_columns(monkeypatch)
    passes = count_calls(monkeypatch, weingarten, "frame_components")
    jets = count_jets(monkeypatch)
    cfg = write_config(tmp_path, "pullback_z1z2")
    assert run(tmp_path, "weingarten", "--config", str(cfg), "--scan") == 0
    assert "direct" not in columns
    assert passes == []
    assert jets == {"projector_jet": 1, "structure_jets": 0}


@pytest.mark.parametrize("name", CRITICAL_CONFIGS)
def test_weingarten_point_is_its_row_of_the_scan(tmp_path, monkeypatch, name):
    # the point report at an inside regular sample of the scan, at the same
    # angle, reads that sample's row of the scan's shape columns: the same
    # product and identity gap, bit for bit
    stacks = []
    built = weingarten.shape_stack
    monkeypatch.setattr(weingarten, "shape_stack",
                        lambda *args: stacks.append(built(*args)) or stacks[-1])
    cfg = write_config(tmp_path, name)
    assert run(tmp_path, "weingarten", "--config", str(cfg), "--scan") == 0
    # only the scan's stack is recorded: each point report builds its own
    monkeypatch.undo()
    (scan,) = stacks
    for row in (0, len(scan.index) // 2, len(scan.index) - 1):
        point = scan.stack.metric.point[scan.index[row]].tolist()
        assert run(tmp_path, "weingarten", "--config", str(cfg),
                   "--point=" + ",".join(map(repr, point))) == 0
        report = read_report(tmp_path, f"{name}_weingarten_point")
        identity = next(c for c in report["checks"] if c["name"] == "product_identity")
        assert report["records"][0]["point"] == point
        assert (np.float64(report["records"][0]["product"]).tobytes()
                == scan.product[row].tobytes())
        assert (np.float64(identity["evidence"]["identity_gap"]).tobytes()
                == scan.identity_gap[row].tobytes())
    assert len(stacks) == 1


@pytest.mark.parametrize("args", [[REGULAR_POINT], ["--scan"]], ids=["point", "scan"])
def test_weingarten_computes_one_gram_jet(tmp_path, monkeypatch, args):
    # the projector jet and the structure jets of a point read one Gram jet
    # dF g^-1 dF^T of its stack, and a scan reads one of its whole stack
    grams = count_calls(monkeypatch, structures, "gram_jet")
    cfg = write_config(tmp_path, "pullback_z1z2")
    assert run(tmp_path, "weingarten", "--config", str(cfg), *args) == 0
    assert len(grams) == 1


@pytest.mark.parametrize("args", [["validate"], ["analyze", REGULAR_POINT]],
                         ids=["validate", "analyze"])
@pytest.mark.parametrize("name", ["z1z2", "pullback_z1z2", "product_sphere"])
def test_validate_and_analyze_compute_no_jet(tmp_path, monkeypatch, name, args):
    jets = count_jets(monkeypatch)
    cfg = write_config(tmp_path, name)
    assert run(tmp_path, args[0], "--config", str(cfg), *args[1:]) == 0
    assert jets == {"projector_jet": 0, "structure_jets": 0}


@pytest.mark.parametrize("fd_step", [1e-300, 1e-4])
@pytest.mark.parametrize("name, point", [
    ("z1z2", [0.6, 0.2, -0.5, 0.4]),
    ("pullback_z1z2", [0.5, 0.2, 0.1, -0.2]),
    ("product_sphere", [0.5, 0.2, 0.1, -0.2]),
])
def test_weingarten_point_ignores_the_fd_step(tmp_path, name, point, fd_step):
    # the shape reads exact jets, so a step, even one below the resolution
    # at the point, changes neither the exit code, the records nor the checks
    cfg = write_config(tmp_path, name)
    argv = ["weingarten", "--config", str(cfg), "--point=" + ",".join(map(repr, point))]
    reports = []
    for extra in ([], ["--fd-step", repr(fd_step)]):
        out = tmp_path / str(len(reports))
        out.mkdir()
        code = main([*argv, *extra, "--out", str(out)])
        assert code in (0, 1)
        report = read_report(out, f"{name}_weingarten_point")
        reports.append((code, report["records"], report["checks"]))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("fd_step", [1e-300, 1e-4])
@pytest.mark.parametrize("patch", sorted(CATALOG_PATCHES))
def test_twistor_ignores_the_fd_step(tmp_path, patch, fd_step):
    # the lifts read exact jets, so a step, even one below the resolution at
    # every grid point, changes neither the exit code, the records nor the checks
    name = CATALOG_PATCHES[patch]["scenario"]
    cfg = write_config(tmp_path, name)
    argv = ["twistor", "--config", str(cfg), "--patch", patch]
    reports = []
    for extra in ([], ["--fd-step", repr(fd_step)]):
        out = tmp_path / str(len(reports))
        out.mkdir()
        code = main([*argv, *extra, "--out", str(out)])
        report = read_report(out, f"{name}_twistor_{patch}")
        reports.append((code, report["records"], report["checks"]))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


@pytest.mark.parametrize("name", sorted(catalog_configs()))
def test_analyze_evaluates_the_differential_once(tmp_path, monkeypatch, name):
    jacobians = count_calls(monkeypatch, MorphismScenario, "jacobian")
    cfg = write_config(tmp_path, name)
    assert run(tmp_path, "analyze", "--config", str(cfg), REGULAR_POINT) == 0
    assert read_report(tmp_path, f"{name}_analyze")["records"][0]["status"] == "regular"
    assert len(jacobians) == 1


@pytest.mark.parametrize("argv", [["validate"], ["analyze", REGULAR_POINT],
                                  ["weingarten", REGULAR_POINT], ["weingarten", "--scan"]],
                         ids=["validate", "analyze", "weingarten-point", "weingarten-scan"])
@pytest.mark.parametrize("name", ["pullback_z1z2", "z1z2_cubic"])
def test_pointwise_commands_run_no_decomposition(tmp_path, monkeypatch, name, argv):
    # the dilation, the defect and the vertical projector are read from the
    # Gram matrix dF g^-1 dF^T: no eigendecomposition or SVD per stack
    calls = []
    for key in ("svd", "eigh"):
        original = getattr(np.linalg, key)
        monkeypatch.setattr(np.linalg, key,
                            lambda *a, key=key, original=original, **k:
                            calls.append(key) or original(*a, **k))
    cfg = write_config(tmp_path, name)
    assert run(tmp_path, argv[0], "--config", str(cfg), *argv[1:]) == 0
    assert calls == []


@pytest.mark.parametrize("name", ["z1z2", "z1sq"])
def test_symbol_composes_once_per_candidate(tmp_path, monkeypatch, name):
    # a flat chart needs no normal chart, and the map at the origin is
    # recentred as it is: beyond the one expansion of the map in the two
    # complex coordinates, when the scenario is built, the only
    # compositions certify the candidates
    composes = count_calls(monkeypatch, Poly, "compose")
    cfg = write_config(tmp_path, name)
    assert run(tmp_path, "symbol", "--config", str(cfg)) == 0
    (certified,) = read_report(tmp_path, f"{name}_symbol")["checks"]
    assert len(composes) == 1 + certified["evidence"]["n_candidates"]


@pytest.mark.parametrize("seed", [0, 3, 11, 12345])
@pytest.mark.parametrize("name", ["proj", "pullback_z1z2", "product_sphere"])
def test_validation_points_are_one_draw_equal_to_per_point_draws(seed, name):
    # the (n, 4) draw pins the stream the reports were recorded with: n
    # draws of one point each, inside the 5% margin of the box
    scenario = build_scenario(ScenarioConfig.from_dict(catalog_configs()[name]))
    lo, hi = np.asarray(scenario.domain.lo), np.asarray(scenario.domain.hi)
    margin = 0.05 * (hi - lo)
    rng = np.random.default_rng(seed)
    expected = np.array([rng.uniform(lo + margin, hi - margin) for _ in range(37)])
    points = runner._sample_points(scenario, 37, seed)
    assert points.shape == (37, 4) and points.flags["C_CONTIGUOUS"]
    assert points.tobytes() == expected.tobytes()


def constant_metric(value, half_width):
    """The polynomial metric value times the identity on a cube."""
    diagonal = [{"exponents": [0, 0, 0, 0], "value": value}]
    zero = [{"exponents": [0, 0, 0, 0], "value": 0.0}]
    return {"kind": "polynomial", "box": cube(half_width),
            "entries": [[diagonal if a == b else zero for b in range(4)]
                        for a in range(4)]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_tension_fails_validate(tmp_path, capsys):
    # the trace of the Hessians is inf - inf at every sample point: the NaN
    # tension is rejected at the first point, not reported as 0
    config = {"name": "nan", "metric": constant_metric(1e-10, 1e-303),
              "map": {"kind": "holomorphic",
                      "coefficients": [{"i": 2, "j": 0, "re": 1e299, "im": 0.0}]},
              "analysis": {"n_points": 5}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(config))
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    scenario = build_scenario(ScenarioConfig.from_file(path))
    first = runner._sample_points(scenario, 5, 0)[0]
    assert capsys.readouterr().err.rstrip().endswith(
        f"tension is not finite at {first.tolist()}")
    assert not (tmp_path / "nan_validate.json").exists()


@pytest.mark.parametrize("argv", [["analyze", REGULAR_POINT],
                                  ["weingarten", REGULAR_POINT],
                                  ["twistor", "--patch", "plane"]],
                         ids=["analyze", "weingarten", "twistor"])
def test_a_large_constant_metric_passes_every_check(tmp_path, argv):
    # a g-orthonormal frame of 1e7 times the identity has determinant 1e-14:
    # no absolute bound may decide anything on it, and the frame (v1, J+ v1)
    # is oriented by J+, with no determinant test
    cfg = catalog_configs()["proj"]
    cfg["metric"] = constant_metric(1e7, 3.0)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(cfg))
    assert main([*argv[:1], "--config", str(path), *argv[1:],
                 "--out", str(tmp_path / "scaled")]) == 0
    if argv[0] == "analyze":
        # J+ is invariant under a constant rescaling of the metric
        flat = write_config(tmp_path, "proj")
        assert run(tmp_path, "analyze", "--config", str(flat), REGULAR_POINT) == 0
        scaled = read_report(tmp_path / "scaled", "proj_analyze")["records"][0]
        plain = read_report(tmp_path, "proj_analyze")["records"][0]
        assert np.allclose(scaled["j_plus"], plain["j_plus"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("argv", [["analyze", REGULAR_POINT],
                                  ["weingarten", REGULAR_POINT],
                                  ["twistor", "--patch", "plane"],
                                  ["validate"]],
                         ids=["analyze", "weingarten", "twistor", "validate"])
def test_a_small_constant_metric_passes_every_check(tmp_path, argv):
    # coordinate axes have g-norm 3e-9 under 1e-17 times the identity, so
    # the frame rank test must scale with the seeds, not be absolute
    cfg = catalog_configs()["proj"]
    cfg["metric"] = constant_metric(1e-17, 3.0)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    assert main([*argv[:1], "--config", str(path), *argv[1:],
                 "--out", str(tmp_path / "small")]) == 0


def test_an_overflowing_lift_exits_two_without_warnings(tmp_path, capsys):
    # under 1e80 times the identity the Gram determinant of the lift
    # overflows: the non-finite rows are rejected by the structure check,
    # and no numpy warning reaches stderr on the way
    cfg = catalog_configs()["proj"]
    cfg["metric"] = constant_metric(1e80, 3.0)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(tmp_path, "twistor", "--config", str(path), "--patch", "catenoid") == 2
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert "structure squared is not minus the identity" in capsys.readouterr().err
    assert not list(tmp_path.glob("proj_twistor*"))


@pytest.mark.parametrize("name", CRITICAL_CONFIGS)
def test_rate_builds_no_frames(monkeypatch, name):
    # rate reads the closed-form structures and their failure column, so it
    # gives its golden report with every frame construction refused
    refuse_frames(monkeypatch)
    case = f"{name} rate"
    pinned = json.loads(GOLDEN.read_text())[case]
    assert pinned["exit"] == 0
    assert run_case(*BATTERY[case]) == pinned


@pytest.mark.parametrize("command", ["symbol", "rate"])
@pytest.mark.parametrize("name", CRITICAL_CONFIGS)
def test_the_symbol_solve_takes_no_eigendecomposition(monkeypatch, name, command):
    # the leading symbol is solved in closed form: with every
    # eigendecomposition refused but the 4 x 4 ones of the normal chart's
    # metric square root, symbol and rate give their golden reports
    eigh = _linalg.np.linalg.eigh

    def metric_only(a, *args, **kwargs):
        if np.shape(a)[-2:] != (4, 4):
            raise AssertionError("the symbol solve took an eigendecomposition")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(_linalg.np.linalg, "eigh", metric_only)
    case = f"{name} {command}"
    pinned = json.loads(GOLDEN.read_text())[case]
    assert pinned["exit"] == 0
    assert run_case(*BATTERY[case]) == pinned


@pytest.mark.parametrize("argv", [["analyze", REGULAR_POINT], ["rate"]], ids=["analyze", "rate"])
def test_an_overflowing_gram_matrix_is_named_by_the_structures(tmp_path, capsys, monkeypatch,
                                                                argv):
    # from 1e155 z1 z2 the Gram matrix dF g^-1 dF^T itself overflows: the
    # structures' column names the overflowing defect first, and rate reads
    # that column with no frame built
    if argv == ["rate"]:
        refuse_frames(monkeypatch)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scaled_catalog_config("z1z2", 1e155)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, argv[0], "--config", str(path), *argv[1:]) == 2
    assert "GeometryError: conformality defect overflows at" in capsys.readouterr().err


def test_an_overflowing_gram_determinant_exits_two(tmp_path, capsys):
    # at 1e80 z1 z2 the Gram matrix M and the defect are finite but det M
    # overflows, so sqrt(det M) is infinite and the closed form would read
    # J = 0: the Gram checks reject the point for every reader of J
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scaled_catalog_config("z1z2", 1e80)))
    for argv in (["analyze", REGULAR_POINT], ["weingarten", REGULAR_POINT], ["rate"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(tmp_path, argv[0], "--config", str(path), *argv[1:]) == 2
        assert "GeometryError: horizontal Gram determinant overflows at" in capsys.readouterr().err


@pytest.mark.parametrize("factor", [1e100, 1e150, 1e155, 1e200, 1.7e308])
def test_an_overflowing_map_exits_two_without_warnings(tmp_path, capsys, factor):
    # z1 z2 times 1e100 or more squares its differential past the largest
    # float: the geometry is rejected, with no numpy warning on the way,
    # while the scale-free symbol still certifies. Up to 1e150 the Gram
    # matrix dF g^-1 dF^T is finite and the defect check rejects it; from
    # 1e155 the Gram matrix itself overflows, and the defect check still
    # rejects it before the frame it gives. At 1.7e308 the differential
    # itself overflows, which validate names, and so do the symbol's
    # coefficients
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scaled_catalog_config("z1z2", factor)))
    for argv in (["validate"], ["analyze", REGULAR_POINT], ["weingarten", REGULAR_POINT],
                 ["weingarten", "--scan"], ["rate"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(tmp_path, argv[0], "--config", str(path), *argv[1:]) == 2
        err = capsys.readouterr().err
        if argv == ["validate"]:
            assert ("differential is not finite" if factor > 1e300
                    else "conformality defect") in err
        elif factor < 1e300:
            assert "conformality defect" in err
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, "symbol", "--config", str(path)) == (2 if factor > 1e300 else 0)
