"""Machine-readable reports: canonical JSON, fingerprints, CSV tables.

The fingerprint covers the report body with the timestamp excluded, so a
rerun with the same configuration and seed produces the same hash even
though the file records when it was written. The file is the canonical
text the fingerprint hashes, with the fingerprint, the worker count and the
timestamp appended as its last keys, so a report is encoded once. Each
encoding is one pass of json.dumps: NumPy values become plain through its
fallback, a float array checked for finiteness in one vectorised pass, and
no Python walk copies the data first.

Tabular records are `Columns`: each number is turned into text once, and
the report's records and the CSV table are both written from those texts.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import GeometryError
from .structures import VERTICAL_ROTATION_SIGN

VERSION = "0.1.0"

CONVENTIONS = {
    "curvature_sign": "unit round 2-sphere has <R(e1,e2)e2,e1> = +1",
    "orientation_reference": "orientation labels are relative to the scenario chart orientation",
    "fiber_basis": "structure components over the deterministic oriented frame, quarter trace pairing",
    "fiber_norm": "half the metric-gauged Frobenius norm on fiber tangents",
    "vertical_rotation_sign": VERTICAL_ROTATION_SIGN,
    "frame_completion": "coordinate axes orthonormalized in index order",
}


def _plain(obj):
    """The plain JSON value of a NumPy value in a report, json.dumps's
    fallback for what it cannot encode itself: a float array is checked for
    finiteness in one vectorised pass and converted by tolist(), as is any
    other array, whose items the encoder then takes in turn."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            raise GeometryError("report values must be finite")
        return obj.tolist()
    # ahead of the integers, as a bool_ is not an integer but reads as one
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _canonical(obj) -> str:
    """Canonical JSON of report data in one encoding pass: sorted keys, no
    spaces, NumPy values plain (_plain), every float finite."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=_plain)
    except ValueError as exc:
        # the encoder's refusal of a float that is not finite
        raise GeometryError("report values must be finite") from exc


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def fingerprint(obj) -> str:
    return _digest(_canonical(obj))


def check(name: str, passed: bool, **evidence) -> dict:
    """A verdict with its evidence, made plain when the report is encoded."""
    return {"name": name, "verdict": "PASS" if passed else "FAIL",
            "evidence": evidence}


def _csv_field(text: str) -> str:
    """text as csv.writer writes it next to other fields of a row, quoted
    where it holds a delimiter, a quote or a line end."""
    fh = io.StringIO()
    csv.writer(fh).writerow([text, ""])
    return fh.getvalue()[:-len(",\r\n")]


def _column_cells(values) -> tuple:
    """(JSON texts, CSV texts, nested) of one column, see Columns.cells."""
    values = values if isinstance(values, np.ndarray) else np.asarray(values)
    if values.ndim not in (1, 2):
        raise ValueError(f"a column holds one value or one row of values per row, "
                         f"not shape {values.shape}")
    kind = values.dtype.kind
    if kind == "U":
        labels = values.tolist()
        encoded = {label: (_canonical(label), _csv_field(label))
                   for label in dict.fromkeys(labels)}
        return ([[encoded[label][0] for label in labels]],
                [[encoded[label][1] for label in labels]], False)
    if kind == "f":
        if not np.isfinite(values).all():
            raise GeometryError("report values must be finite")
        text = float.__repr__
    elif kind in "iu":
        text = int.__repr__
    else:
        raise TypeError(f"cannot tabulate a column of {values.dtype}")
    nested = values.ndim == 2
    # a number's text holds nothing csv.writer quotes
    texts = [list(map(text, component))
             for component in (values.T.tolist() if nested else [values.tolist()])]
    return texts, texts, nested


class Columns:
    """Tabular records by columns: an ordered map from column name to one
    value per row, an (n,) or (n, k) float array, an int array or list, or
    a list of str.

    The report holds them as a list of objects with sorted keys, one per
    row, with an (n, k) column as a list. The CSV table has a line per
    row, with the columns in order: a column named in `spread` is written
    as one CSV column per component, under the names it maps to, and the
    columns in `drop` are left out. Both are written from the same texts.
    """

    def __init__(self, columns: dict, spread: dict | None = None, drop: tuple = ()):
        self.columns = dict(columns)
        self.spread = spread or {}
        self.drop = tuple(drop)
        lengths = {name: len(values) for name, values in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns of unequal length: {lengths}")

    @cached_property
    def cells(self) -> dict:
        """Column name -> (JSON texts, CSV texts, nested): a list of the n
        texts of each component, and whether the column is (n, k). Each
        float column is checked for finiteness in one vectorised pass, and
        each number is turned into text once, by the repr that json.dumps
        and csv.writer both write; each distinct label is encoded once for
        each file."""
        return {name: _column_cells(values) for name, values in self.columns.items()}

    @cached_property
    def json_text(self) -> str:
        """The canonical JSON of the records, spliced from the texts."""
        names = sorted(self.cells)
        fields = []
        for name in names:
            texts, _, nested = self.cells[name]
            slots = ",".join(["%s"] * len(texts))
            fields.append(_canonical(name).replace("%", "%%") + ":"
                          + (f"[{slots}]" if nested else slots))
        row = "{" + ",".join(fields) + "}"
        rows = zip(*(texts for name in names for texts in self.cells[name][0]))
        return "[" + ",".join([row % values for values in rows]) + "]"

    def csv_text(self) -> str:
        """The CSV table: the header, then a line per row, each line the
        fields csv.writer writes, joined by commas and ended by \\r\\n."""
        header, columns = [], []
        for name, (_, texts, nested) in self.cells.items():
            if name in self.drop:
                continue
            names = self.spread.get(name, (name,) if not nested else ())
            if len(names) != len(texts):
                raise ValueError(f"column {name!r} has {len(texts)} components, "
                                 f"and {len(names)} CSV names")
            header.extend(map(_csv_field, names))
            columns.extend(texts)
        if len(columns) == 1:
            # csv.writer quotes an empty field alone in its row, so the
            # line is not blank
            header = [name or '""' for name in header]
            columns = [[text or '""' for text in columns[0]]]
        return "".join([",".join(fields) + "\r\n" for fields in (header, *zip(*columns))])


def build_report(command: str, scenario_name: str, scenario_fingerprint: str,
                 checks: list, records, seed: int, workers: int,
                 rates: dict | None = None, extras: dict | None = None) -> tuple:
    """(report, text): the report, its values as given, and the text of its
    file, the canonical JSON of the body the fingerprint hashes, with the
    fingerprint, the worker count and the timestamp as its last keys.
    `records` is a list, or Columns, which the report keeps as they are."""
    body = {
        "command": command,
        "scenario": scenario_name,
        "scenario_fingerprint": scenario_fingerprint,
        "version": VERSION,
        "seed": int(seed),
        "conventions": CONVENTIONS,
        "checks": checks,
        "records": records,
        "rates": rates or {},
        **(extras or {}),
    }
    columns = body.pop("records") if isinstance(records, Columns) else None
    # one encoding of each top-level value, joined in key order as one
    # encoding of the whole body writes them; tabular records are spliced
    # in from their own texts
    fields = {key: _canonical({key: value})[1:-1] for key, value in body.items()}
    if columns is not None:
        fields["records"] = '"records":' + columns.json_text
        body["records"] = columns
    text = "{" + ",".join(fields[key] for key in sorted(fields)) + "}"
    # worker count and timestamp describe the run, not the result, so the
    # fingerprint is taken before they are attached; they and the
    # fingerprint (plain ASCII, nothing to escape) close the file's object
    body["fingerprint"] = _digest(text)
    body["workers"] = int(workers)
    body["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = (f'{text[:-1]},"fingerprint":"{body["fingerprint"]}",'
            f'"workers":{body["workers"]},"timestamp":"{body["timestamp"]}"}}\n')
    return body, text


def write_json(text: str, path: Path) -> Path:
    """Write the file text of a report, as build_report returns it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_csv(table: Columns, path: Path) -> Path:
    """Write a table: its header, then a line per row, see Columns. The
    text is formed before the file is opened, so a table that cannot be
    written leaves no file."""
    text = table.csv_text()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(text)
    return path


def verdict_lines(checks: list) -> list:
    lines = []
    for c in checks:
        ev = c.get("evidence", {})
        parts = []
        for k, v in list(ev.items())[:4]:
            if isinstance(v, (np.bool_, np.integer, np.floating)):
                v = _plain(v)   # the value the report holds
            if isinstance(v, float):
                parts.append(f"{k}={v:.6g}")
            elif isinstance(v, (int, str, bool)):
                parts.append(f"{k}={v}")
        lines.append(f"{c['verdict']} {c['name']}" +
                     (f" ({', '.join(parts)})" if parts else ""))
    return lines


def exit_code(checks: list) -> int:
    return 0 if all(c["verdict"] == "PASS" for c in checks) else 1
