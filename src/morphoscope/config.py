"""Scenario configuration: JSON schema, validation, scenario construction.

Required fields have no silent defaults; a missing or malformed entry is
reported with its field path. Analysis knobs carry documented defaults so a
minimal config stays small, and every numeric default is echoed into the
resolved configuration that gets fingerprinted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calculus import (MorphismScenario, holomorphic_scenario,
                       pullback_scenario, real_scenario)
from .errors import ConfigError
from .geometry import Box, FlatMetric, PolynomialMetric, ProductSphereMetric
from .polynomials import Poly

MAX_TOTAL_DEGREE = 6

DEFAULT_TOLERANCES = {
    "defect": 1e-8,
    "tension": 1e-8,
    "residual": 1e-8,
    "identity_gap": 1e-10,
    "direct_rel": 1e-3,
    "commutator": 1e-4,
    "residual_minimal": 1e-5,
    "residual_control": 1e-2,
    "curvature": 1e-4,
}

DEFAULT_ANALYSIS = {
    "seed": 0,
    "n_points": 100,
    "n_directions": 16,
    "workers": 1,
    "radii": None,
    "scan_radii": None,
    "fd_step": None,
    "angle": 0.0,
}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _require(data: dict, key: str, path: str):
    if key not in data:
        _fail(f"{path}.{key}", "required field is missing")
    return data[key]


def _number(value, path: str, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number")
    v = float(value)
    if not np.isfinite(v):
        _fail(path, "must be finite")
    if positive and v <= 0:
        _fail(path, "must be positive")
    return v


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be at least {minimum}")
    return value


def _vector(value, path: str, length: int) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        _fail(path, f"expected a list of {length} numbers")
    return tuple(_number(v, f"{path}[{k}]") for k, v in enumerate(value))


def _box(data, path: str) -> dict:
    if not isinstance(data, dict):
        _fail(path, "expected an object with lo and hi")
    lo = _vector(_require(data, "lo", path), f"{path}.lo", 4)
    hi = _vector(_require(data, "hi", path), f"{path}.hi", 4)
    for k in range(4):
        if lo[k] >= hi[k]:
            _fail(f"{path}.lo[{k}]", "box is empty, lo must be below hi")
    return {"lo": list(lo), "hi": list(hi)}


def _monomial(data, path: str) -> dict:
    if not isinstance(data, dict):
        _fail(path, "expected an object with exponents and value")
    exps = _require(data, "exponents", path)
    if not isinstance(exps, (list, tuple)) or len(exps) != 4:
        _fail(f"{path}.exponents", "expected four integers")
    exps = tuple(_integer(e, f"{path}.exponents[{k}]", minimum=0)
                 for k, e in enumerate(exps))
    if sum(exps) > MAX_TOTAL_DEGREE:
        _fail(f"{path}.exponents", f"total degree exceeds {MAX_TOTAL_DEGREE}")
    value = _number(_require(data, "value", path), f"{path}.value")
    return {"exponents": list(exps), "value": value}


def _poly_spec(data, path: str) -> list:
    if not isinstance(data, (list, tuple)) or not data:
        _fail(path, "expected a nonempty list of monomials")
    return [_monomial(mono, f"{path}[{k}]") for k, mono in enumerate(data)]


def _metric_spec(data, path: str) -> dict:
    kind = _require(data, "kind", path)
    out = {"kind": kind, "box": _box(_require(data, "box", path), f"{path}.box")}
    if kind == "flat":
        pass
    elif kind == "product_sphere":
        out["radius"] = _number(_require(data, "radius", path),
                                f"{path}.radius", positive=True)
        lo, hi = out["box"]["lo"], out["box"]["hi"]
        if lo[0] <= 0.0 or hi[0] >= float(np.pi):
            _fail(f"{path}.box", "polar coordinate must stay inside (0, pi)")
    elif kind == "polynomial":
        entries = _require(data, "entries", path)
        if not isinstance(entries, list) or len(entries) != 4:
            _fail(f"{path}.entries", "expected a 4x4 table of polynomials")
        table = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != 4:
                _fail(f"{path}.entries[{i}]", "expected four polynomial cells")
            table.append([_poly_spec(cell, f"{path}.entries[{i}][{j}]")
                          for j, cell in enumerate(row)])
        for i in range(4):
            for j in range(i):
                if _poly_to_dict(table[i][j]) != _poly_to_dict(table[j][i]):
                    _fail(f"{path}.entries[{i}][{j}]",
                          "metric table must be symmetric")
        out["entries"] = table
    else:
        _fail(f"{path}.kind", f"unknown metric kind {kind!r}")
    return out


def _poly_to_dict(spec):
    """Exponents -> coefficient, repeated monomials summed in spec order."""
    out = {}
    for mono in spec:
        e = tuple(mono["exponents"])
        out[e] = out.get(e, 0.0) + mono["value"]
    return {e: v for e, v in out.items() if v != 0.0}


def _map_spec(data, path: str) -> dict:
    kind = _require(data, "kind", path)
    if kind == "holomorphic":
        coeffs = _require(data, "coefficients", path)
        if not isinstance(coeffs, list) or not coeffs:
            _fail(f"{path}.coefficients", "expected a nonempty list")
        out = []
        for k, c in enumerate(coeffs):
            cp = f"{path}.coefficients[{k}]"
            if not isinstance(c, dict):
                _fail(cp, "expected an object with i, j, re, im")
            i = _integer(_require(c, "i", cp), f"{cp}.i", minimum=0)
            j = _integer(_require(c, "j", cp), f"{cp}.j", minimum=0)
            if i + j > MAX_TOTAL_DEGREE:
                _fail(cp, f"total degree exceeds {MAX_TOTAL_DEGREE}")
            re = _number(_require(c, "re", cp), f"{cp}.re")
            im = _number(_require(c, "im", cp), f"{cp}.im")
            out.append({"i": i, "j": j, "re": re, "im": im})
        return {"kind": kind, "coefficients": out}
    if kind == "real":
        comps = _require(data, "components", path)
        if not isinstance(comps, list) or len(comps) != 2:
            _fail(f"{path}.components", "expected exactly two components")
        return {"kind": kind,
                "components": [_poly_spec(c, f"{path}.components[{k}]")
                               for k, c in enumerate(comps)]}
    _fail(f"{path}.kind", f"unknown map kind {kind!r}")


def _diffeo_spec(data, path: str) -> dict:
    comps = _require(data, "components", path)
    if not isinstance(comps, list) or len(comps) != 4:
        _fail(f"{path}.components", "expected exactly four components")
    return {"components": [_poly_spec(c, f"{path}.components[{k}]")
                           for k, c in enumerate(comps)],
            "box": _box(_require(data, "box", path), f"{path}.box")}


def _analysis_value(key: str, value, path: str):
    if key == "seed":
        return _integer(value, path, minimum=0)
    if key == "n_points":
        return _integer(value, path, minimum=1)
    if key == "n_directions":
        return _integer(value, path, minimum=4)
    if key == "workers":
        return _integer(value, path, minimum=1)
    if key in ("radii", "scan_radii"):
        if value is None:
            return None
        if not isinstance(value, list) or len(value) < 3:
            _fail(path, "expected a list of at least three radii")
        radii = [_number(v, f"{path}[{n}]", positive=True)
                 for n, v in enumerate(value)]
        if any(radii[n] <= radii[n + 1] for n in range(len(radii) - 1)):
            _fail(path, "radii must be strictly decreasing")
        return radii
    if key == "fd_step":
        return None if value is None else _number(value, path, positive=True)
    if key == "angle":
        return _number(value, path)
    if key == "tolerances":
        if not isinstance(value, dict):
            _fail(path, "expected an object of named tolerances")
        tolerances = dict(DEFAULT_TOLERANCES)
        for name, tol in value.items():
            if name not in DEFAULT_TOLERANCES:
                _fail(f"{path}.{name}", "unknown tolerance name")
            tolerances[name] = _number(tol, f"{path}.{name}", positive=True)
        return tolerances
    _fail(path, "unknown analysis parameter")


def _analysis_spec(data, path: str) -> dict:
    out = dict(DEFAULT_ANALYSIS)
    out["tolerances"] = dict(DEFAULT_TOLERANCES)
    if data is None:
        return out
    if not isinstance(data, dict):
        _fail(path, "expected an object")
    for key, value in data.items():
        out[key] = _analysis_value(key, value, f"{path}.{key}")
    return out


def with_overrides(analysis: dict, overrides: dict) -> dict:
    """`analysis` with each command line override that is not None checked by
    the config file's rule for its key (an error names the flag) and put in place."""
    return {**analysis, **{key: _analysis_value(key, value, "--" + key.replace("_", "-"))
                           for key, value in overrides.items() if value is not None}}


@dataclass
class ScenarioConfig:
    """Validated scenario description, ready to build and to fingerprint."""

    name: str
    metric: dict
    map: dict
    orientation: int
    critical_points: list
    analysis: dict
    diffeo: dict | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            _fail("config", "top level must be an object")
        name = _require(data, "name", "config")
        if not isinstance(name, str) or not name:
            _fail("config.name", "expected a nonempty string")
        if name in (".", "..") or any(c in name for c in "/\\\0"):
            _fail("config.name", "must be a plain file stem: no '/', '\\', NUL, '.' or '..'")
        known = {"name", "metric", "map", "diffeo", "orientation",
                 "critical_points", "analysis"}
        for key in data:
            if key not in known:
                _fail(f"config.{key}", "unknown field")
        metric = _metric_spec(_require(data, "metric", "config"), "config.metric")
        map_spec = _map_spec(_require(data, "map", "config"), "config.map")
        orientation = data.get("orientation", 1)
        if orientation not in (1, -1):
            _fail("config.orientation", "must be 1 or -1")
        critical = data.get("critical_points", [])
        if not isinstance(critical, list):
            _fail("config.critical_points", "expected a list of points")
        critical = [list(_vector(p, f"config.critical_points[{k}]", 4))
                    for k, p in enumerate(critical)]
        diffeo = None
        if data.get("diffeo") is not None:
            diffeo = _diffeo_spec(data["diffeo"], "config.diffeo")
        analysis = _analysis_spec(data.get("analysis"), "config.analysis")
        return cls(name=name, metric=metric, map=map_spec,
                   orientation=int(orientation), critical_points=critical,
                   analysis=analysis, diffeo=diffeo)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        path = Path(path)
        try:
            raw = path.read_text()
        except (OSError, ValueError) as exc:
            # ValueError: a NUL byte in the path, or bytes that are not UTF-8
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {path} is not valid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        return cls.from_dict(data)

    def to_canonical(self) -> dict:
        """Resolved configuration dict; equal configs hash identically.

        The worker count is execution plumbing with no effect on any result,
        so it is left out of the canonical form.
        """
        analysis = {k: v for k, v in self.analysis.items() if k != "workers"}
        return {
            "name": self.name,
            "metric": self.metric,
            "map": self.map,
            "diffeo": self.diffeo,
            "orientation": self.orientation,
            "critical_points": self.critical_points,
            "analysis": analysis,
        }


def _build_poly(spec) -> Poly:
    return Poly(_poly_to_dict(spec))


def _build_box(spec) -> Box:
    return Box(tuple(spec["lo"]), tuple(spec["hi"]))


def _build_metric(spec):
    box = _build_box(spec["box"])
    if spec["kind"] == "flat":
        return FlatMetric(box)
    if spec["kind"] == "product_sphere":
        return ProductSphereMetric(spec["radius"], box)
    entries = [[_build_poly(spec["entries"][i][j]) for j in range(4)]
               for i in range(4)]
    return PolynomialMetric(entries, box)


def build_scenario(config: ScenarioConfig) -> MorphismScenario:
    """Construct the analysis scenario a validated configuration describes.

    With a diffeomorphism block the metric and map live in the image chart
    and the analysis runs in the pulled-back chart, so critical_points are
    interpreted in the pulled-back coordinates.
    """
    metric = _build_metric(config.metric)
    if config.map["kind"] == "holomorphic":
        coeffs = {}
        for c in config.map["coefficients"]:
            key = (c["i"], c["j"])
            coeffs[key] = coeffs.get(key, 0.0) + complex(c["re"], c["im"])
        base = holomorphic_scenario(config.name, coeffs, metric,
                                    orientation=config.orientation)
    else:
        first, second = (_build_poly(c) for c in config.map["components"])
        base = real_scenario(config.name, first, second, metric,
                             orientation=config.orientation)
    if config.diffeo is None:
        return base
    comps = [_build_poly(c) for c in config.diffeo["components"]]
    return pullback_scenario(base, comps, _build_box(config.diffeo["box"]),
                             config.name)
