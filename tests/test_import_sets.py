"""Each command imports only the package modules it runs.

A command runs in a process of its own, so the modules a process imports
are compiled for every command. The CLI loads the modules every scenario
command needs; a command loads its own at its head. Each case runs in a
fresh interpreter and compares the package modules it ends with against
the command's set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morphoscope

from test_cli import write_config

SRC = Path(morphoscope.__file__).resolve().parents[1]

# cli and every module it imports at load time
CORE = {"cli", "runner", "config", "calculus", "geometry", "polynomials", "_linalg",
        "errors", "report", "morphism", "structures"}

POINT = "--point=0.5,0.2,0.1,-0.2"
# each command's modules beyond CORE
CASES = {
    "validate": (["validate"], set()),
    "analyze": (["analyze", POINT], {"hermitian", "symbol", "ratefit"}),
    "symbol": (["symbol"], {"symbol", "ratefit"}),
    "rate": (["rate"], {"hermitian", "symbol", "ratefit"}),
    "weingarten point": (["weingarten", POINT], {"weingarten", "ratefit"}),
    "weingarten scan": (["weingarten", "--scan"], {"weingarten", "ratefit"}),
    "twistor": (["twistor", "--patch", "catenoid"], {"twistor", "catalog"}),
    "catalog": (["catalog"], {"catalog"}),
}

# the last line a case prints: its package modules, without the package itself
LOADED = ("print(json.dumps(sorted(name.split('.', 1)[1] for name in sys.modules "
          "if name.startswith('morphoscope.'))))")


def loaded_modules(code: str) -> tuple:
    """(exit code, package modules loaded) of code run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    *_, last = proc.stdout.splitlines() or [""]
    return proc.returncode, set(json.loads(last)) if last.startswith("[") else proc.stderr


def test_importing_the_cli_and_the_catalog_loads_no_command_module():
    code, modules = loaded_modules(
        f"import json, sys\nimport morphoscope.cli, morphoscope.catalog\n{LOADED}")
    assert code == 0
    assert modules == CORE | {"catalog"}


@pytest.mark.parametrize("case", CASES)
def test_a_command_loads_exactly_its_modules(tmp_path, case):
    argv, own = CASES[case]
    if argv[0] != "catalog":
        name = "proj" if argv[0] == "twistor" else "pullback_z1z2"
        argv = [*argv, "--config", str(write_config(tmp_path, name))]
    argv += ["--out", str(tmp_path)]
    code, modules = loaded_modules(
        "import json, sys\nfrom morphoscope.cli import main\n"
        f"code = main({argv!r})\n{LOADED}\nsys.exit(code)")
    assert code == 0, modules
    assert modules == CORE | own
