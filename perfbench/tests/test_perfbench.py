"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run real workloads at their shortest length, so they take a few
minutes; they are kept out of the package's own test suite.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Plan  # noqa: E402

MAIN, CATALOG = run._import_package()


def _calls(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_for_a_seed(workload):
    first = run.run(workload, 5, 0.0, trace=True)
    second = run.run(workload, 5, 0.0, trace=True)
    assert first["correct"] and second["correct"]
    assert _calls(first) == _calls(second)
    names = {f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")}
    assert names <= set(first["metrics"])
    assert sum(_calls(first).values()) > 0


def _inputs_read(plan, inv):
    """What the program reads of an invocation: its config and its options,
    without --workers, which does not change a report, and without --seed
    for the commands that never draw from it."""
    argv = list(inv.argv)
    drop = ["--workers"]
    if not (inv.command in ("validate", "rate") or "--scan" in argv):
        drop.append("--seed")
    for flag in drop:
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
    return json.dumps(plan.config_of(inv), sort_keys=True), tuple(argv)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_invocation_count(workload):
    a, b = Plan(workload, 1, CATALOG), Plan(workload, 2, CATALOG)
    assert a.cycle_len == b.cycle_len and a.trace_count() == b.trace_count()
    n = 3 * a.cycle_len
    runs_a = [a.invocation(k) for k in range(n)]
    runs_b = [b.invocation(k) for k in range(n)]
    assert [i.entry for i in runs_a] == [i.entry for i in runs_b]
    assert all(_inputs_read(a, x) != _inputs_read(b, y)
               for x, y in zip(runs_a, runs_b))
    # no two invocations of one run share the inputs they read
    assert len({_inputs_read(a, i) for i in runs_a}) == n
    assert [a.invocation(k) for k in range(n)] == runs_a


def test_seed_is_dropped_only_where_unread():
    plan = Plan("shells", 1, CATALOG)
    symbol = next(plan.invocation(k) for k in range(plan.cycle_len)
                  if plan.invocation(k).command == "symbol")
    same = dataclasses.replace(symbol, argv=symbol.argv[:-1] + ("0",))
    assert _inputs_read(plan, same) == _inputs_read(plan, symbol)
    rate = plan.invocation(0)
    assert rate.command == "rate"
    other = dataclasses.replace(rate, argv=rate.argv[:-1] + ("0",))
    assert _inputs_read(plan, other) != _inputs_read(plan, rate)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_shortest_run_passes_outcome_gate(workload):
    result = run.run(workload, 3, 0.0, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] == Plan(workload, 3, CATALOG).cycle_len
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_plans_hold_every_control():
    plan = Plan("pointwise", 0, CATALOG)
    pointwise = [plan.invocation(k) for k in range(plan.cycle_len)]
    assert {i.expect_exit for i in pointwise} == {0, 1, 2}
    assert "critical" in {i.expect_status for i in pointwise}
    lifts = Plan("lifts", 0, CATALOG)
    bowl = [lifts.invocation(k) for k in range(lifts.cycle_len)
            if "bowl" in lifts.invocation(k).argv]
    assert bowl and bowl[0].expect_checks == (("lift_residual_control", "PASS"),)


def test_gate_rejects_an_unexpected_outcome(tmp_path):
    plan = Plan("pointwise", 0, CATALOG)
    harness = run.Harness(plan, tmp_path, MAIN)
    aniso = next(plan.invocation(k) for k in range(plan.cycle_len)
                 if plan.invocation(k).config == "aniso")
    assert harness.execute(aniso).ok
    wrong = dataclasses.replace(aniso, expect_exit=0)
    outcome = harness.execute(wrong)
    assert not outcome.ok and "exit code 1" in outcome.reason
    broken = dataclasses.replace(aniso, argv=("validate", "--seed", "-1"))
    outcome = harness.execute(broken)
    assert not outcome.ok and outcome.reason.startswith("raised")


def _profile_counts(layer_of_code, body):
    """Call counts of the original layer functions, seen by the profiler,
    with a call nested directly in the same layer folded into the outer one."""
    counts = dict.fromkeys(LAYERS, 0)
    local = threading.local()
    lock = threading.Lock()

    def hook(frame, event, arg):
        layer = layer_of_code.get(frame.f_code)
        if layer is None or event not in ("call", "return"):
            return
        stack = local.__dict__.setdefault("stack", [])
        if event == "call":
            if not stack or stack[-1] != layer:
                with lock:
                    counts[layer] += 1
            stack.append(layer)
        else:
            stack.pop()

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        body()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return counts


def test_tracer_catches_every_call(tmp_path):
    cfg = dict(CATALOG["pullback_z1z2"])
    cfg["analysis"] = {"n_points": 5, "n_directions": 4,
                       "radii": [0.02, 0.01, 0.005],
                       "scan_radii": [0.02, 0.01, 0.005]}
    path = tmp_path / "small.json"
    path.write_text(json.dumps(cfg))
    proj = tmp_path / "proj.json"
    proj.write_text(json.dumps(CATALOG["proj"]))
    argvs = [["validate"], ["analyze", "--point=0.3,0.2,0.1,-0.2"], ["symbol"],
             ["rate"], ["weingarten", "--point=0.3,0.2,0.1,-0.2"],
             ["weingarten", "--scan"]]
    calls = [[*a, "--config", str(path)] for a in argvs]
    calls.append(["twistor", "--config", str(proj), "--patch", "catenoid",
                  "--workers", "2"])

    def body():
        for argv in calls:
            assert MAIN([*argv, "--out", str(tmp_path / "out")]) in (0, 1)

    tracer = Tracer()
    with tracer:
        layer_of_code = {original.__code__: getattr(owner, attr).__wrapped_layer__
                         for owner, attr, original in tracer.patches}
        seen = _profile_counts(layer_of_code, body)
    totals = tracer.layer_totals()
    assert {name: totals[name][0] for name in LAYERS} == seen
    assert all(seen[name] > 0 for name in LAYERS)
    assert not tracer.patches
    assert not hasattr(sys.modules["morphoscope.morphism"].splitting,
                       "__wrapped_layer__")


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    lid = tracer.layer_ids
    # fan-out 0..10 with two overlapping worker spans, 2..6 and 4..9
    for sid, parent, name, t0, t1 in ((1, 0, "twistor.surface_lift", 2.0, 6.0),
                                      (2, 0, "twistor.surface_lift", 4.0, 9.0),
                                      (0, -1, "parallel.ordered_map", 0.0, 10.0)):
        tracer._record(sid, parent, lid[name], t0, t1)
    totals = tracer.layer_totals()
    assert totals["parallel.ordered_map"] == (1, pytest.approx(3.0))
    assert totals["twistor.surface_lift"] == (2, pytest.approx(9.0))


def test_setup_gives_back_every_cpu(tmp_path):
    allowed = os.sched_getaffinity(0)
    harness = run.Harness(Plan("shells", 0, CATALOG), tmp_path, MAIN)
    assert run.setup_seconds(harness) > 0
    assert os.sched_getaffinity(0) == allowed


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90, 100)
    value, pct, n = run.tail(list(range(1, 62)))
    assert sum(v > value for v in range(1, 62)) >= 10 and n == 61


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "shells",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
