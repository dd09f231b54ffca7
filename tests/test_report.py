"""The report layer: finite plain values, one encoding per report, tables."""

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from morphoscope import cli, runner
from morphoscope import report as report_module
from morphoscope.catalog import catalog_configs
from morphoscope.errors import GeometryError
from morphoscope.report import check, sanitize, write_csv

from test_cli import read_report, run, write_config

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
# The pullback_z1z2 table is that of the chain-rule pullback, whose values
# moved from the symbolic expansion's at the rounding floor, and the catenoid
# table that of the closed-form lift read by columns over one stack, whose
# residuals, energies and area elements moved at the rounding floor.
TABLE_SHA256 = {
    ("pullback_z1z2", "validate"):
        "e65729313c23e45bde69ca3aa535b2791d0a1268295a4bbcec31a91f0f72e467",
    ("proj", "twistor --patch catenoid"):
        "23ed2704a829b7708f346ca95fc1fe3c9158a56b26a7ed40a506a750710efca6",
}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_report_values_are_rejected(value):
    with pytest.raises(GeometryError, match="report values must be finite"):
        sanitize({"checks": [{"evidence": {"value": value}}]})


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE)
def test_a_non_finite_report_value_exits_two(tmp_path, monkeypatch, capsys, value):
    cfg = write_config(tmp_path, "z1z2")
    found = runner.Findings([check("probe", True, value=value)], [])
    monkeypatch.setattr(cli, "_dispatch", lambda *args: found)
    assert run(tmp_path, "symbol", "--config", str(cfg)) == 2
    assert "report values must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("z1z2_symbol.*"))


def test_numpy_integers_and_booleans_stay_plain():
    plain = sanitize([np.int64(3), np.bool_(True), np.array([1, 2], dtype=np.int32),
                      np.array([[True, False]]), np.float64(0.5), np.array(2.5)])
    assert plain == [3, True, [1, 2], [[True, False]], 0.5, 2.5]
    assert [type(v) for v in plain[:2]] == [int, bool]
    assert [type(v) for v in plain[2] + plain[3][0]] == [int, int, bool, bool]
    assert type(plain[4]) is float and type(plain[5]) is float


def test_object_arrays_recurse():
    array = np.array([np.float64(1.5), "a", np.int64(2), None, {"k": np.bool_(False)}],
                     dtype=object)
    plain = sanitize(array)
    assert plain == [1.5, "a", 2, None, {"k": False}]
    assert [type(v) for v in plain[:3]] == [float, str, int]
    assert plain[4]["k"] is False


def counting_dumps(monkeypatch) -> list:
    """The objects the report module encodes with json.dumps, in order."""
    encoded = []

    def dumps(obj, *args, **kwargs):
        encoded.append(obj)
        return json.dumps(obj, *args, **kwargs)

    monkeypatch.setattr(report_module, "json", SimpleNamespace(dumps=dumps))
    return encoded


def built_reports(monkeypatch) -> list:
    """The reports build_report returns through the runner, in order."""
    built = []
    build = runner.build_report

    def keep(*args, **kwargs):
        report, text = build(*args, **kwargs)
        built.append(report)
        return report, text

    monkeypatch.setattr(runner, "build_report", keep)
    return built


def assert_written_as_built(path, report):
    text = path.read_text()
    assert json.loads(text) == report
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
    # the config, for its fingerprint, and the report body
    assert len(encoded) == 2 and len(built) == 1
    assert len(encoded[1]["records"]) == 400
    assert_written_as_built(tmp_path / "pullback_z1z2_validate.json", built[0])


def test_the_catalog_report_is_encoded_once(tmp_path, monkeypatch):
    encoded = counting_dumps(monkeypatch)
    built = built_reports(monkeypatch)
    assert run(tmp_path, "catalog") == 0
    # the rest are the fingerprints of the listed configs and of the list
    assert sum(1 for obj in encoded if "records" in obj) == 1
    assert len(built) == 1
    assert_written_as_built(tmp_path / "catalog.json", built[0])
    assert read_report(tmp_path, "catalog")["records"] == built[0]["records"]


@pytest.mark.parametrize("name,args", TABLE_SHA256, ids=[" ".join(k) for k in TABLE_SHA256])
def test_tables_keep_every_byte(tmp_path, name, args):
    cfg = write_config(tmp_path, name)
    command, *rest = args.split()
    assert run(tmp_path, command, "--config", str(cfg), *rest) == 0
    (table,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(table.read_bytes()).hexdigest() == TABLE_SHA256[name, args]


@pytest.mark.parametrize("second", [{"a": 1, "c": 2}, {"a": 1}, {"a": 1, "b": 2, "c": 3}],
                         ids=["other", "fewer", "more"])
def test_a_table_row_with_other_keys_raises(tmp_path, second):
    with pytest.raises(ValueError, match="differ from the header"):
        write_csv([{"a": 1, "b": 2}, second], tmp_path / "t.csv")


def test_table_rows_follow_the_header_order(tmp_path):
    path = write_csv([{"a": 1, "b": 0.5}, {"b": "x", "a": 2}], tmp_path / "t.csv")
    assert path.read_bytes() == b"a,b\r\n1,0.5\r\n2,x\r\n"
