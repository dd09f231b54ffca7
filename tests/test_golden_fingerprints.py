"""Byte identity of the reports on a fixed catalog battery.

Every report fingerprint, exit code and CSV hash of the battery below is
pinned in golden_fingerprints.json. A change that moves one must list it and
say why, then rewrite the file with

    PYTHONPATH=src python tests/test_golden_fingerprints.py

which first prints each case the battery added or removed, and each case
whose exit code, fingerprint or CSV hash moved, with the keys that moved.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from morphoscope.catalog import CATALOG_PATCHES, catalog_configs
from morphoscope.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden_fingerprints.json")

CRITICAL_CONFIGS = ("z1z2", "z1sq", "z1z2_cubic", "pullback_z1z2")
REGULAR_POINT = "--point=0.5,0.2,0.1,-0.2"


def _twisted_z1sq() -> dict:
    """F = z1^2 on dx1^2 + dx2^2 + (dx3 - x4 dx2)^2 + dx4^2, cube 0.8: the
    one polynomial chart of the battery, whose J+ is not integrable along
    the critical plane z1 = 0."""
    def poly(*terms):
        return [{"exponents": list(e), "value": v} for e, v in terms]
    one, zero = poly(((0, 0, 0, 0), 1.0)), poly(((0, 0, 0, 0), 0.0))
    entries = [[one if i == j else zero for j in range(4)] for i in range(4)]
    entries[1][1] = poly(((0, 0, 0, 0), 1.0), ((0, 0, 0, 2), 1.0))
    entries[1][2] = entries[2][1] = poly(((0, 0, 0, 1), -1.0))
    return {"name": "twisted_z1sq",
            "metric": {"kind": "polynomial", "box": {"lo": [-0.8] * 4, "hi": [0.8] * 4},
                       "entries": entries},
            "map": {"kind": "holomorphic",
                    "coefficients": [{"i": 2, "j": 0, "re": 1.0, "im": 0.0}]},
            "critical_points": [[0.0, 0.0, 0.3, 0.2]]}


# configs of the battery beyond the catalog's
CONFIGS = {**catalog_configs(), "twisted_z1sq": _twisted_z1sq()}


def battery() -> dict:
    """Case id -> (config name, command arguments)."""
    cases = []
    for name in sorted(catalog_configs()):
        cases += [(name, ["validate"]), (name, ["analyze", REGULAR_POINT]),
                  (name, ["weingarten", REGULAR_POINT])]
    for name in CRITICAL_CONFIGS:
        cases += [(name, ["analyze", "--point=0,0,0,0"]),
                  (name, ["weingarten", "--scan"]), (name, ["symbol"]),
                  (name, ["rate"])]
    cases += [(spec["scenario"], ["twistor", "--patch", patch])
              for patch, spec in sorted(CATALOG_PATCHES.items())]
    # a lift on a chart with dense Christoffel symbols, where the rounding
    # of the connection term in the vertical derivatives shows
    cases += [("pullback_z1z2", ["twistor", "--patch", "plane"])]
    # the polynomial metric kind, which no catalog chart uses
    cases += [("twisted_z1sq", args) for args in (
        ["validate"], ["analyze", REGULAR_POINT], ["analyze", "--point=0,0,0.3,0.2"],
        ["weingarten", REGULAR_POINT], ["weingarten", "--scan"], ["symbol"], ["rate"],
        ["twistor", "--patch", "plane"])]
    # the one command that reads no config
    cases += [(None, ["catalog"])]
    return {" ".join([name, *args] if name else args): (name, args)
            for name, args in cases}


BATTERY = battery()


def run_case(name: str | None, args: list) -> dict:
    """Exit code, report fingerprint and CSV hash of one battery case; a
    case without a config name runs its command with no --config."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config = []
        if name is not None:
            path = out / f"{name}.json"
            path.write_text(json.dumps(CONFIGS[name]))
            config = ["--config", str(path)]
        code = main([args[0], *config, *args[1:], "--out", tmp])
        (report,) = out.glob(f"{name}_{args[0]}*.json" if name else f"{args[0]}.json")
        tables = list(out.glob("*.csv"))
        return {"exit": code,
                "fingerprint": json.loads(report.read_text())["fingerprint"],
                "csv": (hashlib.sha256(tables[0].read_bytes()).hexdigest()
                        if tables else None)}


@pytest.mark.parametrize("case", sorted(BATTERY))
def test_report_matches_golden(case):
    assert run_case(*BATTERY[case]) == json.loads(GOLDEN.read_text())[case]


def test_golden_covers_the_battery():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(BATTERY)


def moved_cases(old: dict, new: dict) -> list:
    """(case, keys that differ) for each case of both golden tables whose
    exit code, fingerprint or CSV hash moved."""
    moved = []
    for case in sorted(set(old) & set(new)):
        keys = [key for key in ("exit", "fingerprint", "csv") if old[case][key] != new[case][key]]
        if keys:
            moved.append((case, keys))
    return moved


if __name__ == "__main__":
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with contextlib.redirect_stdout(io.StringIO()):
        fresh = {case: run_case(*BATTERY[case]) for case in sorted(BATTERY)}
    added, removed = sorted(set(fresh) - set(pinned)), sorted(set(pinned) - set(fresh))
    for case in added:
        print(f"added: {case}")
    for case in removed:
        print(f"removed: {case}")
    moved = moved_cases(pinned, fresh)
    for case, keys in moved:
        print(f"moved: {case} ({', '.join(keys)})")
    print(f"{len(added)} added, {len(removed)} removed and {len(moved)} moved "
          f"of {len(fresh)} cases")
    GOLDEN.write_text(json.dumps(fresh, indent=2) + "\n")
