"""morphoscope benchmark: CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload as a closed loop: each invocation of
``morphoscope.cli.main`` starts after the previous report is on disk and has
been checked. Workloads and their inputs are generated from ``--seed``
(see workloads.py).

``--trace 0`` measures for ``--seconds`` (and at least one whole plan cycle)
and reports the end-to-end metrics:

* ``setup_s``: import of the package in a fresh interpreter plus parsing and
  building every config of the run, the median of several repetitions;
* ``points_per_s``: sample points the reports certify over the time spent
  inside ``cli.main``, summed over whole plan cycles;
* ``report_p50_ms`` and ``report_tail_ms``: median invocation time and the
  highest percentile with at least ten invocations beyond it (the percentile
  and the sample count are printed on a line before the result);
* ``peak_rss_mb``: peak resident set size of the process;
* ``success_rate``: share of invocations that pass the outcome gate, the
  complement of the error rate.

Times are reference times: each measured wall time is rescaled by a speed
gauge timed right before and after it (see gauge.py), so that the speed
changes of a shared host cancel out. The plain wall-clock median and tail
are printed too, for information.

``--trace 1`` runs a fixed number of plan cycles untraced, the next ones of
the same shape traced, and reports per-layer call counts and self times,
waste ratios and the tracing overhead; ``--seconds`` does not apply, so the
call counts of a seed repeat exactly.

Every invocation must return its expected exit code and verdicts, raise no
exception, and, for the first cycle, give the same fingerprint when run
again (twistor reruns swap the worker count). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
FINGERPRINTS = HERE / "fingerprints.json"

sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Plan  # noqa: E402

SETUP_REPEATS = 7
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "points_per_s": "1/s",
                    "report_p50_ms": "ms", "report_tail_ms": "ms",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}


@dataclass
class Outcome:
    """Result of one invocation as the benchmark saw it."""

    index: int
    entry: str
    seconds: float            # wall time inside cli.main
    gauge: float              # mean of the gauge passes around the call
    ok: bool
    reason: str = ""
    points: int = 0
    fingerprint: str | None = None
    bytes_written: int = 0
    centers: int = 0          # symbol and rate
    substitutions: int = 0    # rate: ray substitutions made
    skipped: int = 0          # weingarten --scan: samples skipped

    @property
    def ref_seconds(self) -> float:
        return gauge.to_reference(self.seconds, self.gauge)


def _canonical_fingerprint(report: dict) -> str:
    body = {k: v for k, v in report.items()
            if k not in ("fingerprint", "workers", "timestamp")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def certified_points(inv, report: dict) -> int:
    """Sample points a report certifies, counted per command; a report with
    a failed check certifies none, and a scan counts only the samples it
    did not skip."""
    if any(c["verdict"] != "PASS" for c in report["checks"]):
        return 0
    command = inv.command
    records = report["records"]
    if command in ("validate", "twistor", "symbol"):
        return len(records)
    if command == "rate":
        radii = len(report["rates"]["center[0]"]["deviation"]["radii"])
        return len(records) * radii * inv.directions
    if command == "weingarten" and "--scan" in inv.argv:
        return (len(records[0]["radii"]) * inv.directions
                - sum(records[0]["skipped"]))
    return 1  # analyze, weingarten --point


class Harness:
    """Runs invocations of one plan through cli.main and checks each report."""

    def __init__(self, plan: Plan, workdir: Path, main):
        self.plan = plan
        self.main = main
        self.out = workdir / "out"
        self.config_dir = workdir / "config"
        self.config_paths = plan.write_configs(self.config_dir)

    def build_all(self) -> float:
        """Parse and build every config of the run; returns seconds."""
        from morphoscope.config import ScenarioConfig, build_scenario
        t0 = time.perf_counter()
        for path in self.config_paths.values():
            build_scenario(ScenarioConfig.from_file(path))
        return time.perf_counter() - t0

    def execute(self, inv) -> Outcome:
        out = self.out / inv.entry
        json_path = out / f"{inv.stem}.json"
        csv_path = out / f"{inv.stem}.csv"
        json_path.unlink(missing_ok=True)
        csv_path.unlink(missing_ok=True)
        config = self.config_paths[inv.config]
        if inv.map_scale is not None:
            config = self.config_dir / f"{inv.config}-scaled.json"
            config.write_text(json.dumps(self.plan.config_of(inv), sort_keys=True))
        argv = [*inv.argv, "--config", str(config), "--out", str(out)]
        sink = io.StringIO()
        raised = None
        before = gauge.pass_seconds()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = self.main(argv)
            except (Exception, SystemExit) as exc:
                raised = exc
            t1 = time.perf_counter()
        outcome = Outcome(inv.index, inv.entry, t1 - t0,
                          (before + gauge.pass_seconds()) / 2, True)
        if raised is not None:
            outcome.ok = False
            outcome.reason = f"raised {type(raised).__name__}: {raised}"
        else:
            self._check(inv, code, json_path, csv_path, outcome)
        return outcome

    def _check(self, inv, code, json_path, csv_path, outcome: Outcome):
        def fail(reason):
            outcome.ok = False
            outcome.reason = reason

        if code != inv.expect_exit:
            return fail(f"exit code {code}, expected {inv.expect_exit}")
        if inv.expect_exit == 2:
            if json_path.exists():
                fail("rejected input still wrote a report")
            return
        if not json_path.exists():
            return fail("no report written")
        raw = json_path.read_bytes()
        report = json.loads(raw)
        outcome.bytes_written = len(raw)
        if csv_path.exists():
            outcome.bytes_written += csv_path.stat().st_size
        verdicts = tuple((c["name"], c["verdict"]) for c in report["checks"])
        if verdicts != inv.expect_checks:
            return fail(f"verdicts {verdicts}, expected {inv.expect_checks}")
        if report["command"] != inv.command:
            return fail(f"report command {report['command']!r}")
        if report["seed"] != int(inv.option("--seed")):
            return fail("report seed differs from the requested seed")
        if _canonical_fingerprint(report) != report["fingerprint"]:
            return fail("fingerprint does not match the report body")
        if inv.expect_status is not None:
            status = report["records"][0]["status"]
            if status != inv.expect_status:
                return fail(f"status {status!r}, expected {inv.expect_status!r}")
        if inv.command == "validate":
            n = self.plan.configs[inv.config]["analysis"]["n_points"]
            if len(report["records"]) != n:
                return fail(f"{len(report['records'])} records for {n} points")
        scan_like = inv.command in ("validate", "rate", "twistor") or "--scan" in inv.argv
        if scan_like and not csv_path.exists():
            return fail("no CSV table written")
        outcome.fingerprint = report["fingerprint"]
        outcome.points = certified_points(inv, report)
        records = report["records"]
        if inv.command in ("symbol", "rate"):
            outcome.centers = len(records)
        if inv.command == "rate":
            outcome.substitutions = sum(att for rec in records
                                        for _, att in rec["substitutions"])
        if "--scan" in inv.argv:
            outcome.skipped = sum(records[0]["skipped"])

    def loop(self, start: int, count: int | None = None,
             deadline: float | None = None) -> list:
        """Closed loop from invocation ``start``: ``count`` invocations, or
        until ``deadline`` but at least one whole plan cycle."""
        outcomes = []
        k = start
        while True:
            if count is not None and k - start >= count:
                break
            if (deadline is not None and k - start >= self.plan.cycle_len
                    and time.perf_counter() >= deadline):
                break
            outcomes.append(self.execute(self.plan.invocation(k)))
            k += 1
        return outcomes

    def rerun_check(self, outcomes: list) -> None:
        """Run the first cycle again; a different fingerprint fails the original.

        Twistor reruns use the other worker count, which must not change
        the report body either.
        """
        for o in outcomes[:self.plan.cycle_len]:
            inv = self.plan.invocation(o.index)
            if inv.command == "twistor":
                inv = inv.with_workers(3 - int(inv.option("--workers")))
            again = self.execute(inv)
            if not again.ok:
                o.ok, o.reason = False, f"rerun failed: {again.reason}"
            elif again.fingerprint != o.fingerprint:
                o.ok, o.reason = False, "rerun gave a different fingerprint"


# ------------------------------------------------------------------ metrics


def tail(values: list) -> tuple:
    """(value, percentile, samples): the highest nearest-rank percentile with
    at least TAIL_BEYOND samples above it; the maximum when there are too
    few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))   # ceil(pct * n / 100)
    return ordered[rank - 1], pct, n


def points_per_second(outcomes: list, cycle_len: int) -> float:
    """Certified points over reference seconds inside cli.main, summed over
    the run's whole plan cycles."""
    whole = outcomes[:len(outcomes) // cycle_len * cycle_len]
    return (sum(o.points for o in whole if o.ok)
            / sum(o.ref_seconds for o in whole))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes: list, cycle_len: int, setup_s: float) -> dict:
    times_ms = [o.ref_seconds * 1e3 for o in outcomes]
    tail_ms, pct, n = tail(times_ms)
    wall_ms = [o.seconds * 1e3 for o in outcomes]
    print(f"report_tail_ms is p{pct} of {n} invocations")
    print(f"wall clock: p50 {statistics.median(wall_ms):.1f} ms, "
          f"p{pct} {tail(wall_ms)[0]:.1f} ms; median gauge pass "
          f"{statistics.median(o.gauge for o in outcomes) * 1e3:.3f} ms, "
          f"nominal {gauge.NOMINAL_S * 1e3:.3f} ms")
    failed = sum(not o.ok for o in outcomes)
    return {
        "setup_s": setup_s,
        "points_per_s": points_per_second(outcomes, cycle_len),
        "report_p50_ms": statistics.median(times_ms),
        "report_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - failed / len(outcomes),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plan, untraced: list, traced: list, tracer, drift: int) -> dict:
    """Per-layer counts and self times of the traced pass, plus derived ratios."""
    from tracer import LAYERS
    totals = tracer.layer_totals()
    metrics = {}
    for name in LAYERS:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")

    def calls(name):
        return totals[name][0]

    def examined(inv):
        # points a validation or analysis evaluates, whatever its verdict
        if inv.command == "validate":
            return plan.configs[inv.config]["analysis"]["n_points"]
        return int(inv.command == "analyze" and inv.expect_exit == 0)

    points = sum(o.points for o in traced if o.ok)
    validated = sum(examined(plan.invocation(o.index)) for o in traced)
    # mean twistor wall time per worker count
    wall = {1: [], 2: []}
    for o in untraced:
        inv = plan.invocation(o.index)
        if inv.command == "twistor":
            wall[int(inv.option("--workers"))].append(o.seconds)
    wall = {w: statistics.fmean(t) if t else 0.0 for w, t in wall.items()}
    metrics.update({
        "report.bytes_written": (sum(o.bytes_written for o in traced), "bytes"),
        "report.fingerprint_drift": (drift, "count"),
        "morphism.splitting.per_point": (
            _ratio(calls("morphism.splitting"), points), "calls/point"),
        "linalg.spd_sqrt_pair.per_point": (
            _ratio(calls("linalg.spd_sqrt_pair"), validated), "calls/point"),
        "calculus.normalized_scenario.per_center": (
            _ratio(calls("calculus.normalized_scenario"),
                   sum(o.centers for o in traced)), "calls/center"),
        "hermitian.ray_substitutions": (sum(o.substitutions for o in traced), "count"),
        "weingarten.scan_skipped": (sum(o.skipped for o in traced), "count"),
        "parallel.w2_over_w1": (_ratio(wall[2], wall[1]), "ratio"),
        "trace.overhead_ratio": (
            _ratio(points_per_second(traced, plan.cycle_len),
                   points_per_second(untraced, plan.cycle_len)), "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------- run


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import morphoscope.cli, morphoscope.catalog
print(time.perf_counter() - t0)
"""


def _import_package():
    """Import the CLI from src/; returns (cli.main, catalog dict)."""
    if not (SRC / "morphoscope" / "__init__.py").is_file():
        raise SystemExit(f"error: no morphoscope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from morphoscope import cli
    from morphoscope.catalog import catalog_configs
    return cli.main, catalog_configs()


def fresh_import_seconds() -> float:
    """Import time of the package in a new interpreter, as each command pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def setup_seconds(harness: Harness) -> float:
    """Fresh import plus building every config, the median of several
    repetitions, in reference seconds at the median of the gauge passes
    between them. The import runs in a child process; while the phase lasts
    both processes are held on one CPU, so the passes time the CPU the
    import runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        walls, passes = [], []
        for _ in range(SETUP_REPEATS):
            passes += [gauge.pass_seconds() for _ in range(3)]
            walls.append(fresh_import_seconds() + harness.build_all())
        passes += [gauge.pass_seconds() for _ in range(3)]
    finally:
        os.sched_setaffinity(0, allowed)
    return gauge.to_reference(statistics.median(walls), statistics.median(passes))


def reference_drift(workload: str, catalog: dict, main, workdir: Path) -> tuple:
    """Run the reference battery; returns (outcomes, fingerprints, drift)."""
    plan = Plan(workload, REFERENCE_SEED, catalog)
    harness = Harness(plan, workdir / "reference", main)
    outcomes = harness.loop(0, count=plan.cycle_len)
    prints = [o.fingerprint for o in outcomes]
    recorded = []
    if FINGERPRINTS.is_file():
        recorded = json.loads(FINGERPRINTS.read_text()).get(workload, [])
    drift = sum(a != b for a, b in itertools.zip_longest(recorded, prints))
    return outcomes, prints, drift


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    main, catalog = _import_package()
    workdir = WORK / f"run-{workload}-{seed}-{int(time.time() * 1e6)}"
    try:
        plan = Plan(workload, seed, catalog)
        harness = Harness(plan, workdir, main)
        if not trace:
            setup_s = setup_seconds(harness)
            deadline = time.perf_counter() + seconds
            outcomes = harness.loop(0, deadline=deadline)
            harness.rerun_check(outcomes)
            metrics = end_to_end(outcomes, plan.cycle_len, setup_s)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in metrics.items()}
            checked = outcomes
        else:
            from tracer import Tracer
            count = plan.trace_count()
            untraced = harness.loop(0, count=count)
            tracer = Tracer()
            with tracer:
                traced = []
                for k in range(count, 2 * count):
                    tracer.invocation = k
                    traced.append(harness.execute(plan.invocation(k)))
            harness.rerun_check(untraced)
            reference, _, drift = reference_drift(workload, catalog, main, workdir)
            metrics = per_layer(plan, untraced, traced, tracer, drift)
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"spans-{workload}-{seed}.txt")
            checked = untraced + traced + reference
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [o for o in checked if not o.ok]
    for o in failures[:20]:
        print(f"FAILED #{o.index} {o.entry}: {o.reason}")
    return {"correct": not failures, "attempted": len(checked),
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
