"""Machine-readable reports: canonical JSON, fingerprints, CSV tables.

The fingerprint covers the report body with the timestamp excluded, so a
rerun with the same configuration and seed produces the same hash even
though the file records when it was written.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
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
    """Convert nested report data to plain JSON types, strictly finite."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            raise GeometryError("report values must be finite")
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _digest(plain) -> str:
    """Hash of already sanitized data in canonical JSON."""
    text = json.dumps(plain, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def fingerprint(obj) -> str:
    return _digest(sanitize(obj))


def check(name: str, passed: bool, **evidence) -> dict:
    """A verdict with its evidence, sanitized when the report is built."""
    return {"name": name, "verdict": "PASS" if passed else "FAIL",
            "evidence": evidence}


def build_report(command: str, scenario_name: str, scenario_fingerprint: str,
                 checks: list, records: list, seed: int, workers: int,
                 rates: dict | None = None, extras: dict | None = None) -> dict:
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
    # the one sanitizing pass: everything below reads plain data
    body = sanitize(body)
    # worker count and timestamp describe the run, not the result, so the
    # fingerprint is taken before they are attached
    body["fingerprint"] = _digest(body)
    body["workers"] = int(workers)
    body["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return body


def write_json(report: dict, path: Path) -> Path:
    """Write a report from build_report, which is plain data already."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    return path


def write_csv(rows: list, path: Path) -> Path:
    """Write nonempty rows; the first row's keys are the header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
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
