"""Seeded invocation plans for the benchmark workloads.

A plan is an endless, deterministic sequence of command line invocations of
``morphoscope``. It cycles over a fixed list of entries; every entry draws
fresh inputs from the workload seed and the invocation index, so no two
invocations of one run share the inputs they read: ``--seed`` for the
commands that sample (validate, rate, weingarten --scan), ``--point``,
``--fd-step``, and for symbol and rate, which read only the config, a seeded
complex factor on the holomorphic map. The per-run configs are
catalog-derived: validation configs get a seeded ``n_points``, all others are
the catalog entries as they are, and a scaled map is written next to them
per invocation. Only the standard library is used here, so plans can be built
before the package under test is imported.

Each invocation carries its expected outcome (exit code, check verdicts in
report order, record status), written down independently of the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("pointwise", "stencil", "shells", "lifts")

# The four catalog scenarios with a critical point at the origin.
CRITICAL = ("z1z2", "z1sq", "z1z2_cubic", "pullback_z1z2")

# (patch, scenario) for every catalog surface patch.
PATCHES = (("plane", "proj"), ("reciprocal", "proj"), ("catenoid", "proj"),
           ("bowl", "proj"), ("sphere_factor", "product_sphere"),
           ("flat_factor", "product_sphere"))

# Every lift check passes for steps from 5e-5 to 2e-4; steps are drawn from
# this range.
FD_STEP_RANGE = (8e-5, 1.25e-4)

# Modulus range of the factor on the map of symbol and rate invocations.
# A holomorphic map times a nonzero constant has the same critical points,
# symbol order, structures and rates.
MAP_SCALE_RANGE = (0.8, 1.25)

# Validation sample size per config: large, and narrow so that the run to run
# spread of the timings comes from the machine, not from the draw.
N_POINTS = (396, 404)

# Cycles in a traced run; the per-layer call counts of a seed are exact
# because the traced work is fixed, not bounded by time.
TRACE_CYCLES = {"pointwise": 1, "stencil": 1, "shells": 4, "lifts": 1}

# Plan seed whose first cycle is the fingerprint reference battery.
REFERENCE_SEED = 0

# Failing control of the validation command: a linear map that is not
# horizontally conformal on a flat chart.
ANISO = {
    "name": "aniso",
    "metric": {"kind": "flat", "box": {"lo": [-1.5] * 4, "hi": [1.5] * 4}},
    "map": {"kind": "real",
            "components": [[{"exponents": [1, 0, 0, 0], "value": 1.0}],
                           [{"exponents": [0, 1, 0, 0], "value": 2.0}]]},
}


def _passes(*names):
    return tuple((n, "PASS") for n in names)


VALIDATE_PASS = _passes("hwc_defect", "tension")
VALIDATE_ANISO = (("hwc_defect", "FAIL"), ("tension", "PASS"))
ANALYZE_REGULAR = _passes("hwc_defect", "structure_residual")
ANALYZE_CRITICAL = _passes("classification")
SYMBOL = _passes("symbol_certified[0]")
RATE = _passes("structure_deviation[0]", "remainder_decay[0]", "dilation_lower[0]")
SCAN = _passes("product_bounded", "product_identity")
POINT_EINSTEIN = _passes("product_identity", "closed_vs_direct",
                         "einstein_commutation")
POINT = _passes("product_identity", "closed_vs_direct")
# patches whose catalog entry states the curvature densities
CURVATURE_PATCHES = {"plane", "sphere_factor", "flat_factor"}


@dataclass(frozen=True)
class Invocation:
    """One CLI call with its expected outcome."""

    index: int
    entry: str              # plan entry label, also the report directory
    config: str             # config name, the file stem in the config dir
    argv: tuple             # command and options, without --config and --out
    stem: str               # report file stem the CLI derives
    expect_exit: int
    expect_checks: tuple    # ((name, verdict), ...) in report order
    expect_status: str | None = None   # record status (analyze)
    directions: int = 0     # sampled directions per shell (scan, rate)
    map_scale: tuple | None = None     # (re, im) factor on the config's map

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]

    def with_workers(self, workers: int) -> "Invocation":
        """Same inputs at another worker count (twistor reruns)."""
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return replace(self, argv=tuple(argv))


def _fmt_point(p) -> str:
    # "=" keeps argparse from reading a leading minus sign as an option
    return "--point=" + ",".join(repr(float(v)) for v in p)


def _complex_pair(rng, r_lo, r_hi):
    out = []
    for _ in range(2):
        r = rng.uniform(r_lo, r_hi)
        t = rng.uniform(0.0, 2.0 * math.pi)
        out += [r * math.cos(t), r * math.sin(t)]
    return out


def regular_point(rng, chart: str) -> list:
    """A seeded regular point well inside the chart, away from critical sets."""
    if chart == "z1z2":
        return _complex_pair(rng, 0.5, 1.0)
    if chart == "pullback_z1z2":
        return _complex_pair(rng, 0.3, 0.5)
    if chart == "product_sphere":
        return [rng.uniform(0.7, 2.4), rng.uniform(-2.5, 2.5),
                rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)]
    raise ValueError(f"no point sampler for chart {chart!r}")


class Plan:
    """Deterministic invocation sequence of one workload and seed."""

    def __init__(self, workload: str, seed: int, catalog: dict):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._seed_base = random.Random(f"{workload}:{seed}").randrange(2 ** 40)
        self.configs = {}
        self.entries = getattr(self, f"_{workload}")(catalog)

    @property
    def cycle_len(self) -> int:
        return len(self.entries)

    def trace_count(self) -> int:
        return TRACE_CYCLES[self.workload] * self.cycle_len

    def invocation(self, k: int) -> Invocation:
        rng = random.Random(f"{self.workload}:{self.seed}:{k}")
        entry, make = self.entries[k % self.cycle_len]
        fields = make(rng)
        argv = fields.pop("argv") + ("--seed", str(self._seed_base + k))
        return Invocation(index=k, entry=entry, argv=argv, **fields)

    def config_of(self, inv: Invocation) -> dict:
        """The config an invocation reads: the run's, with its map scaled."""
        cfg = self.configs[inv.config]
        if inv.map_scale is None:
            return cfg
        cfg = json.loads(json.dumps(cfg))
        c = complex(*inv.map_scale)
        for coef in cfg["map"]["coefficients"]:
            z = complex(coef["re"], coef["im"]) * c
            coef["re"], coef["im"] = z.real, z.imag
        return cfg

    def write_configs(self, directory: Path) -> dict:
        """Write every config of the run; returns name -> path."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, cfg in sorted(self.configs.items()):
            path = directory / f"{name}.json"
            path.write_text(json.dumps(cfg, sort_keys=True))
            paths[name] = path
        return paths

    # ------------------------------------------------------------ workloads

    def _use(self, catalog, name, **analysis):
        cfg = json.loads(json.dumps(ANISO if name == "aniso" else catalog[name]))
        if analysis:
            cfg.setdefault("analysis", {}).update(analysis)
        self.configs[name] = cfg

    def _n_directions(self, name):
        return self.configs[name].get("analysis", {}).get("n_directions", 16)

    def _pointwise(self, catalog):
        """validate on the whole catalog and the failing control, plus analyze.

        Eight of twelve entries are validations, so the median invocation is
        a validation and the report layer's large tables count in it. The
        pulled-back chart, the costliest, is validated twice per cycle so the
        tail percentile falls inside its timings, not between two commands.
        """
        rng = random.Random(f"pointwise:{self.seed}:n_points")
        for name in ("proj", "z1z2", "z1sq", "z1z2_cubic", "pullback_z1z2",
                     "product_sphere", "aniso"):
            self._use(catalog, name, n_points=rng.randint(*N_POINTS))

        def validate(name):
            checks = VALIDATE_ANISO if name == "aniso" else VALIDATE_PASS
            return lambda r: dict(
                argv=("validate",), config=name, stem=f"{name}_validate",
                expect_exit=1 if name == "aniso" else 0, expect_checks=checks)

        def analyze_regular(name):
            return lambda r: dict(
                argv=("analyze", _fmt_point(regular_point(r, name))),
                config=name, stem=f"{name}_analyze", expect_exit=0,
                expect_checks=ANALYZE_REGULAR, expect_status="regular")

        def analyze_critical(r):
            # z1^2 is critical on the whole plane z1 = 0
            p = [0.0, 0.0, r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)]
            return dict(argv=("analyze", _fmt_point(p)), config="z1sq",
                        stem="z1sq_analyze", expect_exit=0,
                        expect_checks=ANALYZE_CRITICAL, expect_status="critical")

        def analyze_outside(r):
            # proj lives on the cube of half width 3
            p = [r.uniform(3.2, 3.6)] + [r.uniform(-1.0, 1.0) for _ in range(3)]
            return dict(argv=("analyze", _fmt_point(p)), config="proj",
                        stem="proj_analyze", expect_exit=2, expect_checks=())

        return [
            ("validate-proj", validate("proj")),
            ("analyze-z1z2", analyze_regular("z1z2")),
            ("validate-z1z2", validate("z1z2")),
            ("validate-z1sq", validate("z1sq")),
            ("analyze-critical", analyze_critical),
            ("validate-z1z2_cubic", validate("z1z2_cubic")),
            ("validate-pullback_z1z2-0", validate("pullback_z1z2")),
            ("analyze-pullback_z1z2", analyze_regular("pullback_z1z2")),
            ("validate-product_sphere", validate("product_sphere")),
            ("analyze-outside", analyze_outside),
            ("validate-aniso", validate("aniso")),
            ("validate-pullback_z1z2-1", validate("pullback_z1z2")),
        ]

    def _stencil(self, catalog):
        """weingarten scans at the four centers and points on three charts.

        Per cycle: four scans and nine points, two on the flat chart, two on
        the product sphere and five on the pulled-back chart. The four fast
        points balance the four scans, so the median invocation falls in the
        middle of the pulled-back points, not between two charts.
        """
        for name in CRITICAL + ("product_sphere",):
            self._use(catalog, name)

        def scan(name):
            return lambda r: dict(
                argv=("weingarten", "--scan"), config=name,
                stem=f"{name}_weingarten_scan", expect_exit=0,
                expect_checks=SCAN, directions=self._n_directions(name))

        def point(name):
            checks = POINT if name == "product_sphere" else POINT_EINSTEIN
            return lambda r: dict(
                argv=("weingarten", _fmt_point(regular_point(r, name))),
                config=name, stem=f"{name}_weingarten_point", expect_exit=0,
                expect_checks=checks)

        charts = iter(("pullback_z1z2", "z1z2", "pullback_z1z2",
                       "product_sphere", "pullback_z1z2", "z1z2",
                       "pullback_z1z2", "product_sphere", "pullback_z1z2"))
        entries = []
        for i, name in enumerate(CRITICAL):
            entries.append((f"scan-{name}", scan(name)))
            entries += [(f"point-{chart}-{i}{j}", point(chart))
                        for j, chart in zip(range(3 if i == 0 else 2), charts)]
        return entries

    def _shells(self, catalog):
        """symbol and rate at the four centers; three symbols per rate.

        Every invocation scales the map by its own factor, so no two of them
        build the same normal chart.
        """
        for name in CRITICAL:
            self._use(catalog, name)

        def scale(r):
            modulus = r.uniform(*MAP_SCALE_RANGE)
            phase = r.uniform(0.0, 2.0 * math.pi)
            return (modulus * math.cos(phase), modulus * math.sin(phase))

        def symbol(name):
            return lambda r: dict(argv=("symbol",), config=name,
                                  stem=f"{name}_symbol", expect_exit=0,
                                  expect_checks=SYMBOL, map_scale=scale(r))

        def rate(name):
            return lambda r: dict(argv=("rate",), config=name,
                                  stem=f"{name}_rate", expect_exit=0,
                                  expect_checks=RATE,
                                  directions=self._n_directions(name),
                                  map_scale=scale(r))

        entries = []
        for name in CRITICAL:
            entries.append((f"rate-{name}", rate(name)))
            entries += [(f"symbol-{name}-{i}", symbol(name)) for i in range(3)]
        return entries

    def _lifts(self, catalog):
        """twistor on every catalog patch, twice at one worker, once at two.

        Two thirds of the invocations run single-threaded, so the median and
        the tail each fall inside one worker count's timings rather than
        between the two.
        """
        for _, name in PATCHES:
            self._use(catalog, name)

        def twistor(patch, name, workers):
            if patch == "bowl":
                checks = _passes("lift_residual_control")
            elif patch in CURVATURE_PATCHES:
                checks = _passes("lift_residual_minimal", "curvature_densities")
            else:
                checks = _passes("lift_residual_minimal")
            return lambda r: dict(
                argv=("twistor", "--patch", patch, "--workers", str(workers),
                      "--fd-step", repr(r.uniform(*FD_STEP_RANGE))),
                config=name, stem=f"{name}_twistor_{patch}", expect_exit=0,
                expect_checks=checks)

        return [(f"twistor-{patch}-w{w}-{i}", twistor(patch, name, w))
                for patch, name in PATCHES for i, w in enumerate((1, 1, 2))]
