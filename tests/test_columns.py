"""Tabular records by columns: every byte as a row-by-row encoding writes it.

Each catalog command with a table runs through the command line, and its
report and CSV are compared with a reference encoder kept here: the records
as one dict per row, through json.dumps with sorted keys, and the table rows
through csv.writer, with the point or parameter spread into its own
columns and twistor's fiber left out.
"""

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from morphoscope import cli, runner, twistor
from morphoscope.catalog import CATALOG_PATCHES, catalog_configs
from morphoscope.report import Columns

from test_cli import ANISO, main

CRITICAL_CONFIGS = ("z1z2", "z1sq", "z1z2_cubic", "pullback_z1z2")

# (key spread into columns, its column names, keys left out) of each
# command whose records are its table
LAYOUTS = {"validate": ("point", ("x1", "x2", "x3", "x4"), ()),
           "twistor": ("parameter", ("s", "t"), ("fiber",))}


def cases() -> dict:
    """Case id -> (config, command arguments)."""
    configs = {**catalog_configs(), "aniso": ANISO}
    out = [(name, ["validate"]) for name in sorted(configs)]
    out += [(name, [command]) for name in CRITICAL_CONFIGS
            for command in ("rate", "weingarten --scan")]
    out += [(spec["scenario"], ["twistor", "--patch", patch])
            for patch, spec in sorted(CATALOG_PATCHES.items())]
    return {" ".join([name, *args]): (configs[name], " ".join(args).split())
            for name, args in out}


CASES = cases()


def plain_rows(columns: Columns) -> list:
    """One dict per row, the values as the rows held them before columns."""
    plain = {name: values.tolist() if isinstance(values, np.ndarray) else list(values)
             for name, values in columns.columns.items()}
    return [dict(zip(plain, row)) for row in zip(*plain.values())]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def reference_csv(rows: list) -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    header = list(rows[0])
    writer.writerow(header)
    writer.writerows([row[k] for k in header] for row in rows)
    return fh.getvalue().encode()


def run_command(tmp_path, config, argv) -> int:
    """Run one command on config with its files in tmp_path / "out"."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([argv[0], "--config", str(path), *argv[1:], "--out", str(tmp_path / "out")])


def run_case(tmp_path, monkeypatch, config, argv) -> tuple:
    """(exit code, findings, report text, CSV bytes) of one command."""
    found = []
    dispatch = cli._dispatch

    def keep(*args):
        found.append(dispatch(*args))
        return found[-1]

    monkeypatch.setattr(cli, "_dispatch", keep)
    code = run_command(tmp_path, config, argv)
    (report,) = (tmp_path / "out").glob("*.json")
    (table,) = (tmp_path / "out").glob("*.csv")
    return code, found[0], report.read_text(), table.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_columns_write_what_the_row_encoding_writes(tmp_path, monkeypatch, case):
    config, argv = CASES[case]
    code, found, text, table = run_case(tmp_path, monkeypatch, config, argv)
    assert code == (1 if config is ANISO else 0)
    assert isinstance(found.table, Columns)
    written = json.loads(text)
    body = {k: v for k, v in written.items() if k not in ("fingerprint", "workers", "timestamp")}
    if argv[0] in LAYOUTS:
        assert found.records is found.table
        records = plain_rows(found.records)
        key, names, drop = LAYOUTS[argv[0]]
        rows = [{**dict(zip(names, r[key])),
                 **{k: v for k, v in r.items() if k != key and k not in drop}}
                for r in records]
        body["records"] = records
    else:
        rows = plain_rows(found.table)
    reference = canonical(body)
    # the body is the hashed text, and the three run keys close it
    assert text.startswith(reference[:-1] + ',"fingerprint":"')
    assert written["fingerprint"] == "sha256:" + hashlib.sha256(reference.encode()).hexdigest()
    assert table == reference_csv(rows)


def poisoned(fn, pick):
    """fn with one cell of the array that pick(result) returns set to NaN."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        pick(result).flat[2] = np.nan
        return result
    return wrapper


@pytest.mark.parametrize("case", ["pullback_z1z2 validate", "proj twistor --patch catenoid"])
def test_a_nan_cell_exits_two_and_writes_nothing(tmp_path, monkeypatch, capsys, case):
    # the cell is in no check's evidence: only the column's own finiteness
    # pass can catch it
    config, argv = CASES[case]
    if argv[0] == "validate":
        monkeypatch.setattr(runner, "validate_morphism", poisoned(
            runner.validate_morphism, lambda found: found[0].dilation_sup))
    else:
        monkeypatch.setattr(twistor, "vertical_energy_density", poisoned(
            twistor.vertical_energy_density, lambda energy: energy.value))
    assert run_command(tmp_path, config, argv) == 2
    assert "report values must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
