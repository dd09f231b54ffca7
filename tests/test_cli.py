"""End-to-end command line tests over the built-in catalog."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphoscope.catalog import catalog_configs
from morphoscope.cli import main
from morphoscope.config import ScenarioConfig
from morphoscope.report import fingerprint
from morphoscope.structures import K_PLUS


def write_config(tmp_path, name):
    cfg = catalog_configs()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def read_report(tmp_path, stem):
    return json.loads((tmp_path / f"{stem}.json").read_text())


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_validate_catalog_scenario(tmp_path):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, "validate", "--config", str(cfg)) == 0
    report = read_report(tmp_path, "z1z2_validate")
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["hwc_defect"]["evidence"]["max_defect"] <= 1e-8
    assert by_name["tension"]["evidence"]["max_tension"] <= 1e-8
    assert len(report["records"]) == 100
    assert (tmp_path / "z1z2_validate.csv").exists()


def test_validate_negative_control(tmp_path):
    config = {
        "name": "aniso",
        "metric": {"kind": "flat",
                   "box": {"lo": [-1.5] * 4, "hi": [1.5] * 4}},
        "map": {"kind": "real",
                "components": [[{"exponents": [1, 0, 0, 0], "value": 1.0}],
                               [{"exponents": [0, 1, 0, 0], "value": 2.0}]]},
    }
    path = tmp_path / "aniso.json"
    path.write_text(json.dumps(config))
    assert run(tmp_path, "validate", "--config", str(path)) == 1
    report = read_report(tmp_path, "aniso_validate")
    defect = {c["name"]: c for c in report["checks"]}["hwc_defect"]
    assert defect["verdict"] == "FAIL"
    assert abs(defect["evidence"]["max_defect"] - 2.1213203435596424) < 1e-6


def test_analyze_regular_point(tmp_path):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, "analyze", "--config", str(cfg),
               "--point", "1,0,0,0") == 0
    record = read_report(tmp_path, "z1z2_analyze")["records"][0]
    assert record["status"] == "regular"
    assert abs(record["dilation_sup"] - 1.0) < 1e-12
    assert np.allclose(record["j_plus"], K_PLUS, atol=1e-12)


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
    csv_text = (tmp_path / "pullback_z1z2_rate.csv").read_text()
    assert csv_text.startswith("quantity,radius,value")


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


@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c["analysis"].update(radii=[0.1, 0.2, 0.05]),
     "strictly decreasing"),
    (lambda c: c["map"]["coefficients"][0].pop("re"), "required field"),
    (lambda c: c["map"]["coefficients"][0].update(i=-1), "at least 0"),
    (lambda c: c["map"]["coefficients"][0].update(i=7), "degree"),
    (lambda c: c["metric"]["box"].update(hi=[-2.0, 1.5, 1.5, 1.5]), "empty"),
    (lambda c: c["metric"].update(kind="hyperbolic"), "unknown metric kind"),
])
def test_malformed_configs_exit_two(tmp_path, capsys, mutate, fragment):
    config = {
        "name": "probe",
        "metric": {"kind": "flat",
                   "box": {"lo": [-1.5] * 4, "hi": [1.5] * 4}},
        "map": {"kind": "holomorphic",
                "coefficients": [{"i": 1, "j": 1, "re": 1.0, "im": 0.0}]},
        "analysis": {},
    }
    mutate(config)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(config))
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    assert fragment in capsys.readouterr().err


def test_missing_arguments_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "z1z2")
    assert run(tmp_path, "analyze", "--config", str(cfg)) == 2
    assert "--point" in capsys.readouterr().err
    assert run(tmp_path, "validate") == 2
    assert "--config" in capsys.readouterr().err
    assert run(tmp_path, "twistor", "--config", str(cfg),
               "--patch", "moebius") == 2
    assert "unknown patch" in capsys.readouterr().err


def test_invalid_json_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",}')
    assert run(tmp_path, "validate", "--config", str(path)) == 2
    assert "line" in capsys.readouterr().err


def flat_monomial_config(half_width, i, j, **analysis):
    return {
        "name": "huge",
        "metric": {"kind": "flat",
                   "box": {"lo": [-half_width] * 4, "hi": [half_width] * 4}},
        "map": {"kind": "holomorphic",
                "coefficients": [{"i": i, "j": j, "re": 1.0, "im": 0.0}]},
        "analysis": analysis,
    }


def command_argv(command, path, half_width, fractions=(0.3, -0.2, 0.1, 0.4)):
    if command == "validate":
        return ["validate", "--config", str(path)]
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
    # the splitting frame has a non-finite determinant
    (1e50, "analyze", "DegenerateFrameError", "huge_analyze"),
    (1e50, "weingarten", "DegenerateFrameError", "huge_weingarten_point"),
    (1e60, "analyze", "DegenerateFrameError", "huge_analyze"),
    (1e60, "weingarten", "DegenerateFrameError", "huge_weingarten_point"),
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
    assert error in capsys.readouterr().err
    assert not (tmp_path / f"{stem}.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(exponent=st.integers(-3, 300), i=st.integers(0, 3), j=st.integers(0, 3),
       n_points=st.integers(1, 3),
       command=st.sampled_from(["validate", "analyze", "weingarten"]),
       fractions=st.lists(st.floats(-0.9, 0.9), min_size=4, max_size=4))
def test_exit_code_contract_holds_for_flat_monomials(exponent, i, j, n_points, command,
                                                     fractions):
    # every config within the schema ends in 0, 1 or 2, never in a traceback
    half_width = 10.0 ** exponent
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.json"
        path.write_text(json.dumps(flat_monomial_config(half_width, i, j,
                                                        n_points=n_points)))
        argv = command_argv(command, path, half_width, fractions)
        assert main([*argv, "--out", tmp]) in (0, 1, 2)
