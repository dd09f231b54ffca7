"""Command line interface.

morphoscope <command> --config FILE [options]

Commands: validate, analyze, symbol, rate, weingarten, twistor, catalog.
Reports are written as JSON; validate, rate, weingarten --scan, twistor add a CSV.
Exit code 0 means every check passed, 1 means at least one check failed
with its numeric evidence in the report, 2 means the configuration or the
requested domain operation was invalid.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import runner
from .config import DEFAULT_ANALYSIS, ScenarioConfig, build_scenario, with_overrides
from .errors import ConfigError, MorphoscopeError
from .report import exit_code, verdict_lines, write_csv, write_json


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="morphoscope",
        description="chart-level analysis of horizontally conformal maps")
    p.add_argument("command",
                   choices=["validate", "analyze", "symbol", "rate",
                            "weingarten", "twistor", "catalog"])
    p.add_argument("--config", help="path to a scenario config JSON file")
    p.add_argument("--point", help="chart point as x1,x2,x3,x4")
    p.add_argument("--patch", help="built-in surface patch name (twistor)")
    p.add_argument("--scan", action="store_true",
                   help="run the annulus scan instead of a point report "
                        "(weingarten)")
    p.add_argument("--out", default=".", help="directory for report files")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--fd-step", type=float, default=None,
                   help="override the finite difference step")
    p.add_argument("--workers", type=int, default=None,
                   help="override the worker count")
    return p


def _parse_point(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--point expects four comma-separated numbers")
    try:
        return np.array([float(v) for v in parts])
    except ValueError as exc:
        raise ConfigError(f"--point: {exc}") from exc


def _dispatch(args, config, scenario, seed) -> runner.Findings:
    if args.command == "validate":
        return runner.run_validate(config, scenario, seed)
    if args.command == "analyze":
        if args.point is None:
            raise ConfigError("analyze requires --point")
        return runner.run_analyze(config, scenario, _parse_point(args.point))
    if args.command == "symbol":
        return runner.run_symbol(config, scenario)
    if args.command == "rate":
        return runner.run_rate(config, scenario, seed)
    if args.command == "weingarten":
        if args.scan:
            point = _parse_point(args.point) if args.point else None
            return runner.run_weingarten_scan(config, scenario, point, seed)
        if args.point is None:
            raise ConfigError("weingarten requires --point or --scan")
        return runner.run_weingarten_point(config, scenario,
                                           _parse_point(args.point))
    if args.command == "twistor":
        if args.patch is None:
            raise ConfigError("twistor requires --patch")
        return runner.run_twistor(config, scenario, args.patch)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    table = None
    overrides = {"seed": args.seed, "fd_step": args.fd_step, "workers": args.workers}
    try:
        if args.command == "catalog":
            analysis = with_overrides(DEFAULT_ANALYSIS, overrides)
            report = runner.run_catalog(analysis["seed"], analysis["workers"])
            stem = "catalog"
        else:
            if args.config is None:
                raise ConfigError(f"{args.command} requires --config")
            config = ScenarioConfig.from_file(args.config)
            config.analysis = with_overrides(config.analysis, overrides)
            seed = config.analysis["seed"]
            workers = config.analysis["workers"]
            scenario = build_scenario(config)
            found = _dispatch(args, config, scenario, seed)
            report = runner.scenario_report(args.command, config, found,
                                            seed, workers)
            table = found.table
            stem = f"{config.name}_{args.command}"
            if args.command == "weingarten":
                stem += "_scan" if args.scan else "_point"
            if args.command == "twistor":
                stem += f"_{args.patch}"
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MorphoscopeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    json_path, csv_path = out_dir / f"{stem}.json", out_dir / f"{stem}.csv"
    path = json_path
    try:
        write_json(report, path)
        if table is not None:
            path = csv_path
            write_csv(table, path)
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    for line in verdict_lines(report["checks"]):
        print(line)
    print(f"report: {json_path}")
    if table is not None:
        print(f"table: {csv_path}")
    return exit_code(report["checks"])


if __name__ == "__main__":
    sys.exit(main())
