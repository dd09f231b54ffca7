"""The report layer: finite plain values, one encoding per report, tables.

The one-pass encoding is checked against a written-out walk of the data,
report_oracle.sanitize.
"""

import csv
import hashlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from morphoscope import cli, runner
from morphoscope import report as report_module
from morphoscope.catalog import catalog_configs
from morphoscope.errors import GeometryError
from morphoscope.report import (Columns, build_report, check, fingerprint,
                                verdict_lines, write_csv)

from report_oracle import dict_keys, sanitize
from test_cli import read_report, run, write_config
from test_columns import plain_rows
from test_golden_fingerprints import BATTERY, run_case

NON_FINITE = {
    "float": float("nan"),
    "float64": np.float64("inf"),
    "array_2d": np.array([[1.0, 2.0], [0.5, -np.inf]]),
    "float32_array": np.array([np.nan], dtype=np.float32),
    "nested_list": [1.0, [2.0, (3.0, -math.inf)]],
    "object_array": np.array([1.0, "x", np.float64("nan")], dtype=object),
}

# sha256 of two catalog tables, as csv.DictWriter wrote them over rows of
# numpy scalars; the plain-value rows and csv.writer must keep every byte.
# The pullback_z1z2 table is that of the chain-rule pullback with the
# dilation sup, the defect and the tension read from dF g^-1 dF^T and
# g^-1, whose values moved at the rounding floor, and the catenoid
# table that of the closed-form lift read by columns over one stack, whose
# residuals, energies and area elements moved at the rounding floor.
TABLE_SHA256 = {
    ("pullback_z1z2", "validate"):
        "a485055c210cb388dbf71a4a3390101038561220feea1ed7dcd1b6fb7870adfa",
    ("proj", "twistor --patch catenoid"):
        "23ea1db78fac01343e5244154a593cd74e30a1a3921ddbeb609745e9b83adab5",
}


def encode_both(obj) -> tuple:
    """(fingerprint of obj, obj as a report file holds it when it is the
    evidence of a check)."""
    _, text = build_report("probe", "probe", "sha256:0", [check("probe", True, value=obj)],
                           records=[], seed=0, workers=1)
    return fingerprint(obj), json.loads(text)["checks"][0]["evidence"]["value"]


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("route", ["fingerprint", "build_report"])
def test_non_finite_report_values_are_rejected(value, route):
    with pytest.raises(GeometryError, match="report values must be finite"):
        sanitize({"checks": [{"evidence": {"value": value}}]})
    with pytest.raises(GeometryError, match="report values must be finite"):
        if route == "fingerprint":
            fingerprint({"checks": [{"evidence": {"value": value}}]})
        else:
            build_report("probe", "probe", "sha256:0", [check("probe", True, value=value)],
                         records=[], seed=0, workers=1)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
def test_a_non_finite_report_value_exits_two(tmp_path, monkeypatch, capsys, value):
    cfg = write_config(tmp_path, "z1z2")
    found = runner.Findings([check("probe", True, value=value)], [])
    monkeypatch.setattr(cli, "_dispatch", lambda *args: found)
    assert run(tmp_path, "symbol", "--config", str(cfg)) == 2
    assert "report values must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("z1z2_symbol.*"))


def test_numpy_integers_and_booleans_stay_plain():
    values = [np.int64(3), np.bool_(True), np.array([1, 2], dtype=np.int32),
              np.array([[True, False]]), np.float64(0.5), np.array(2.5), np.float32(0.25)]
    digest, plain = encode_both(values)
    assert plain == sanitize(values) == [3, True, [1, 2], [[True, False]], 0.5, 2.5, 0.25]
    assert [type(v) for v in plain[:2]] == [int, bool]
    assert [type(v) for v in plain[2] + plain[3][0]] == [int, int, bool, bool]
    assert all(type(v) is float for v in plain[4:])
    assert digest == fingerprint(plain)


def test_object_arrays_recurse():
    array = np.array([np.float64(1.5), "a", np.int64(2), None, {"k": np.bool_(False)}],
                     dtype=object)
    digest, plain = encode_both(array)
    assert plain == sanitize(array) == [1.5, "a", 2, None, {"k": False}]
    assert [type(v) for v in plain[:3]] == [float, str, int]
    assert plain[4]["k"] is False
    assert digest == fingerprint(plain)


def test_numpy_evidence_prints_as_its_plain_value():
    evidence = {"certified": np.bool_(True), "count": np.int64(7),
                "value": np.float32(0.1), "gap": np.float64(2.5e-17)}
    checks = [check("probe", False, **evidence)]
    assert verdict_lines(checks) == verdict_lines(sanitize(checks)) == [
        "FAIL probe (certified=True, count=7, value=0.1, gap=2.5e-17)"]


def built_reports(monkeypatch) -> list:
    """(report, text) of each report build_report returns through the
    runner, in order."""
    built = []
    build = runner.build_report

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "build_report", keep)
    return built


@pytest.mark.parametrize("case", sorted(BATTERY))
def test_the_encoding_equals_that_of_the_plain_body(monkeypatch, case):
    # the body as build_report keeps it, made plain by the written-out
    # walk and encoded alone, is the text the fingerprint hashes; its keys
    # are str, as a key of another type (a bool) is written otherwise
    built = built_reports(monkeypatch)
    run_case(*BATTERY[case])
    ((report, text),) = built
    body = {key: value for key, value in report.items()
            if key not in ("fingerprint", "workers", "timestamp")}
    if isinstance(body["records"], Columns):
        body["records"] = plain_rows(body["records"])
    assert all(type(key) is str for key in dict_keys(body))
    canonical = text[:text.rindex(',"fingerprint":')] + "}"
    assert canonical == report_module._canonical(sanitize(body))


def counting_dumps(monkeypatch) -> list:
    """The objects the report module encodes with json.dumps, in order."""
    encoded = []

    def dumps(obj, *args, **kwargs):
        encoded.append(obj)
        return json.dumps(obj, *args, **kwargs)

    monkeypatch.setattr(report_module, "json", SimpleNamespace(dumps=dumps))
    return encoded


def assert_written_as_built(path, report):
    text = path.read_text()
    written = json.loads(text)
    report = dict(report)
    if isinstance(report["records"], Columns):
        # tabular records stay columns in the report; tests/test_columns.py
        # compares their text with a row-by-row encoding
        assert written["records"] == json.loads(report["records"].json_text)
        written["records"] = report["records"] = None
    # the report keeps its values as given: the file holds them plain
    assert written == sanitize(report)
    # the canonical body with its keys sorted, then the three run keys
    keys = list(json.loads(text))
    assert keys[-3:] == ["fingerprint", "workers", "timestamp"]
    assert keys[:-3] == sorted(keys[:-3])
    assert "\n" not in text[:-1] and text.endswith("}\n")


def test_a_validate_report_is_encoded_once(tmp_path, monkeypatch):
    raw = catalog_configs()["pullback_z1z2"]
    raw["analysis"] = {"n_points": 400}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(raw))
    encoded = counting_dumps(monkeypatch)
    built = built_reports(monkeypatch)
    assert run(tmp_path, "validate", "--config", str(path)) == 0
    assert len(built) == 1
    written = json.loads((tmp_path / "pullback_z1z2_validate.json").read_text())
    assert len(written["records"]) == 400
    # the config, for its fingerprint, then every other top-level value of
    # the body once, each as its one-key object
    parts = [obj for obj in encoded[1:] if isinstance(obj, dict)]
    assert isinstance(encoded[0], dict) and "name" in encoded[0]
    assert all(len(part) == 1 for part in parts)
    assert sorted(key for part in parts for key in part) == sorted(
        set(written) - {"records", "fingerprint", "workers", "timestamp"})
    # the records are spliced from their column texts: json.dumps sees only
    # the column names and each distinct status label, once
    labels = sorted({record["status"] for record in written["records"]})
    assert sorted(obj for obj in encoded[1:] if isinstance(obj, str)) == sorted(
        [*written["records"][0], *labels])
    assert_written_as_built(tmp_path / "pullback_z1z2_validate.json", built[0][0])


def test_the_catalog_report_is_encoded_once(tmp_path, monkeypatch):
    encoded = counting_dumps(monkeypatch)
    built = built_reports(monkeypatch)
    assert run(tmp_path, "catalog") == 0
    # the rest are the fingerprints of the listed configs and of the list
    assert sum(1 for obj in encoded if "records" in obj) == 1
    assert len(built) == 1
    assert_written_as_built(tmp_path / "catalog.json", built[0][0])
    assert read_report(tmp_path, "catalog")["records"] == built[0][0]["records"]


@pytest.mark.parametrize("name,args", TABLE_SHA256, ids=[" ".join(k) for k in TABLE_SHA256])
def test_tables_keep_every_byte(tmp_path, name, args):
    cfg = write_config(tmp_path, name)
    command, *rest = args.split()
    assert run(tmp_path, command, "--config", str(cfg), *rest) == 0
    (table,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(table.read_bytes()).hexdigest() == TABLE_SHA256[name, args]


# a second row with other keys than the first, as columns: columns of
# unequal length
@pytest.mark.parametrize("columns", [{"a": [1, 1], "b": [2], "c": [2]},
                                     {"a": [1, 1], "b": [2]},
                                     {"a": [1, 1], "b": [2, 2], "c": [3]}],
                         ids=["other", "fewer", "more"])
def test_a_table_row_with_other_keys_raises(columns):
    with pytest.raises(ValueError, match="columns of unequal length"):
        Columns(columns)


def test_table_rows_follow_the_header_order(tmp_path):
    # the CSV keeps the column order, spread columns in place and dropped
    # ones left out; the records sort their keys
    table = Columns({"b": [0.5, -2.0], "a": [1, 2],
                     "p": np.array([[0.25, 3.0], [1e-20, 7.0]]),
                     "u": np.zeros((2, 3)), "c": ["x", "y,z"]},
                    spread={"p": ("p1", "p2")}, drop=("u",))
    path = write_csv(table, tmp_path / "t.csv")
    assert path.read_bytes() == (b"b,a,p1,p2,c\r\n0.5,1,0.25,3.0,x\r\n"
                                 b'-2.0,2,1e-20,7.0,"y,z"\r\n')
    assert json.loads(table.json_text) == [
        {"a": 1, "b": 0.5, "c": "x", "p": [0.25, 3.0], "u": [0.0, 0.0, 0.0]},
        {"a": 2, "b": -2.0, "c": "y,z", "p": [1e-20, 7.0], "u": [0.0, 0.0, 0.0]}]


@pytest.mark.parametrize("labels", [["", "a"], ["", ""], ['q"uote', "line\nend"],
                                    ["comma,", "\r"]],
                         ids=["empty", "all_empty", "quote_newline", "comma_return"])
@pytest.mark.parametrize("alone", [True, False], ids=["alone", "with_numbers"])
def test_labels_are_written_as_csv_writer_writes_them(tmp_path, labels, alone):
    columns = {"": labels} if alone else {"": labels, "a,b": [0.5, 2.5]}
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(list(columns))
    writer.writerows(zip(*columns.values()))
    path = write_csv(Columns(columns), tmp_path / "t.csv")
    assert path.read_bytes() == reference.getvalue().encode()


@pytest.mark.parametrize("spread", [{}, {"p": ("p1", "p2", "p3")}], ids=["none", "three"])
def test_a_column_without_a_csv_name_per_component_raises(tmp_path, spread):
    table = Columns({"p": np.zeros((2, 2))}, spread=spread)
    with pytest.raises(ValueError, match="2 components"):
        write_csv(table, tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("column", [[True, False], [None, None], np.zeros((2, 2, 2))],
                         ids=["bool", "none", "3d"])
def test_a_column_of_another_kind_raises(tmp_path, column):
    with pytest.raises((TypeError, ValueError)):
        write_csv(Columns({"a": column}), tmp_path / "t.csv")
    assert not (tmp_path / "t.csv").exists()
