"""Byte identity of the reports on a fixed catalog battery.

Every report fingerprint, exit code and CSV hash of the battery below is
pinned in golden_fingerprints.json. A change that moves one must list it and
say why, then rewrite the file with

    PYTHONPATH=src python tests/test_golden_fingerprints.py

which first prints each case whose exit code, fingerprint or CSV hash moved,
with the keys that moved.
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
            path.write_text(json.dumps(catalog_configs()[name]))
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
    """(case, keys that differ) for each case of either golden table whose
    exit code, fingerprint or CSV hash moved; a case in one table only
    moves every key."""
    moved = []
    for case in sorted(set(old) | set(new)):
        before, after = old.get(case, {}), new.get(case, {})
        keys = [key for key in ("exit", "fingerprint", "csv") if before.get(key) != after.get(key)]
        if keys:
            moved.append((case, keys))
    return moved


if __name__ == "__main__":
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with contextlib.redirect_stdout(io.StringIO()):
        fresh = {case: run_case(*BATTERY[case]) for case in sorted(BATTERY)}
    moved = moved_cases(pinned, fresh)
    for case, keys in moved:
        print(f"moved: {case} ({', '.join(keys)})")
    print(f"{len(moved)} of {len(fresh)} cases moved")
    GOLDEN.write_text(json.dumps(fresh, indent=2) + "\n")
