"""Machine-readable reports: canonical JSON, fingerprints, CSV tables.

The fingerprint covers the report body with the timestamp excluded, so a
rerun with the same configuration and seed produces the same hash even
though the file records when it was written. The file is the canonical
text the fingerprint hashes, with the fingerprint, the worker count and the
timestamp appended as its last keys, so a report is encoded once.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import GeometryError
from .twistor import VERTICAL_ROTATION_SIGN

VERSION = "0.1.0"

CONVENTIONS = {
    "curvature_sign": "unit round 2-sphere has <R(e1,e2)e2,e1> = +1",
    "orientation_reference": "orientation labels are relative to the scenario chart orientation",
    "fiber_basis": "structure components over the deterministic oriented frame, quarter trace pairing",
    "fiber_norm": "half the metric-gauged Frobenius norm on fiber tangents",
    "vertical_rotation_sign": VERTICAL_ROTATION_SIGN,
    "frame_completion": "coordinate axes orthonormalized in index order",
}


def sanitize(obj):
    """Convert nested report data to plain JSON types, strictly finite.

    Python floats and strings, most of a report, are recognised by their
    exact type, and a float array is checked in one vectorised pass and
    converted by tolist(); everything else takes the isinstance chain.
    """
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise GeometryError("report values must be finite")
        return obj
    if kind is str:
        return obj
    if kind is np.ndarray and obj.dtype.kind == "f":
        if not np.isfinite(obj).all():
            raise GeometryError("report values must be finite")
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not math.isfinite(v):
            raise GeometryError("report values must be finite")
        return v
    # ahead of the integers, because bool is a subclass of int
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _canonical(plain) -> str:
    """Canonical JSON of already sanitized data: sorted keys, no spaces."""
    return json.dumps(plain, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def fingerprint(obj) -> str:
    return _digest(_canonical(sanitize(obj)))


def check(name: str, passed: bool, **evidence) -> dict:
    """A verdict with its evidence, sanitized when the report is built."""
    return {"name": name, "verdict": "PASS" if passed else "FAIL",
            "evidence": evidence}


def build_report(command: str, scenario_name: str, scenario_fingerprint: str,
                 checks: list, records: list, seed: int, workers: int,
                 rates: dict | None = None, extras: dict | None = None) -> tuple:
    """(report, text): the report as plain data, and the text of its file,
    the canonical JSON of the body the fingerprint hashes, with the
    fingerprint, the worker count and the timestamp as its last keys."""
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
    # the one sanitizing pass and the one encoding: everything below reads
    # plain data, and the file is the hashed text
    body = sanitize(body)
    text = _canonical(body)
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


def write_csv(rows: list, path: Path) -> Path:
    """Write nonempty rows of plain values; the first row's keys are the
    header, and a row with other keys raises ValueError."""
    header = list(rows[0])
    keys = rows[0].keys()
    for row in rows:
        if row.keys() != keys:
            raise ValueError(f"table row keys {list(row)} differ from the header {header}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([row[k] for k in header] for row in rows)
    return path


def verdict_lines(checks: list) -> list:
    lines = []
    for c in checks:
        ev = c.get("evidence", {})
        parts = []
        for k, v in list(ev.items())[:4]:
            if isinstance(v, float):
                parts.append(f"{k}={v:.6g}")
            elif isinstance(v, (int, str, bool)):
                parts.append(f"{k}={v}")
        lines.append(f"{c['verdict']} {c['name']}" +
                     (f" ({', '.join(parts)})" if parts else ""))
    return lines


def exit_code(checks: list) -> int:
    return 0 if all(c["verdict"] == "PASS" for c in checks) else 1
