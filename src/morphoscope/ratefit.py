"""Shell sampling around a center and log-log rate fitting over shrinking
radii, with an identically-zero branch."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ZERO_BRANCH_THRESHOLD = 1e-12
# default_radii: RADII_COUNT radii halving from RADII_FRACTION of the box size
RADII_COUNT = 8
RADII_FRACTION = 0.1
# the signed coordinate axes that lead seeded_directions(..., include_axes=True)
N_AXES = 8


@dataclass
class RateFit:
    """Power-law fit value ~= constant * r^slope over decreasing radii.

    When every sampled value sits below the zero threshold the quantity is
    treated as identically zero: slope and constant are None and zero_branch
    is set. Callers interpret a zero branch as the strongest possible decay.
    Otherwise exact zeros have no logarithm and are left out of the fit;
    `censored` counts them. With fewer than two positive values left there
    is no fit: slope and constant are None and both slope gates fail.
    """

    radii: tuple
    values: tuple
    slope: float | None
    constant: float | None
    log_residual: float | None
    zero_branch: bool
    threshold: float
    censored: int = 0

    def meets_lower_slope(self, bound: float) -> bool:
        return self.zero_branch or (self.slope is not None and self.slope >= bound)

    def meets_upper_slope(self, bound: float) -> bool:
        return (not self.zero_branch) and self.slope is not None and self.slope <= bound


def fit_rate(radii: Sequence[float], values: Sequence[float]) -> RateFit:
    r = np.asarray(radii, dtype=float)
    v = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.size < 2 or v.shape != r.shape:
        raise ValueError("need matching radii and values, at least two points")
    if np.any(r <= 0) or np.any(np.diff(r) >= 0):
        raise ValueError("radii must be positive and strictly decreasing")
    if np.any(v < 0):
        raise ValueError("rate values must be nonnegative")
    if np.all(v <= ZERO_BRANCH_THRESHOLD):
        return RateFit(radii=tuple(r), values=tuple(v), slope=None, constant=None,
                       log_residual=None, zero_branch=True, threshold=ZERO_BRANCH_THRESHOLD)
    positive = v > 0
    censored = int(v.size - np.count_nonzero(positive))
    if v.size - censored < 2:
        return RateFit(radii=tuple(r), values=tuple(v), slope=None, constant=None,
                       log_residual=None, zero_branch=False, threshold=ZERO_BRANCH_THRESHOLD,
                       censored=censored)
    logs = np.log(v[positive])
    logr = np.log(r[positive])
    A = np.column_stack([logr, np.ones_like(logr)])
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((A @ coef - logs) ** 2)))
    return RateFit(radii=tuple(r), values=tuple(v), slope=slope,
                   constant=float(np.exp(intercept)), log_residual=resid,
                   zero_branch=False, threshold=ZERO_BRANCH_THRESHOLD, censored=censored)


def default_radii(box_size: float) -> tuple:
    """Geometric ladder r0 * 2^-i with r0 a fraction of the domain size."""
    r0 = RADII_FRACTION * box_size
    return tuple(r0 * 2.0 ** (-i) for i in range(RADII_COUNT))


def seeded_directions(count: int, seed: int, include_axes: bool = False) -> np.ndarray:
    """`count` unit directions in R^4 drawn from the seed, one per row.

    With include_axes the eight signed coordinate axes come first.
    """
    rng = np.random.default_rng(seed)
    dirs = []
    if include_axes:
        for k in range(4):
            for s in (1.0, -1.0):
                e = np.zeros(4)
                e[k] = s
                dirs.append(e)
    while len(dirs) < count + (N_AXES if include_axes else 0):
        v = rng.standard_normal(4)
        n = np.linalg.norm(v)
        if n > 1e-8:
            dirs.append(v / n)
    return np.array(dirs)


def shell_samples(directions: np.ndarray, radii: Sequence[float] | None = None,
                  box_size: float | None = None,
                  center: np.ndarray | None = None) -> tuple[tuple, np.ndarray]:
    """Sample points on shells of shrinking radius, radius-major.

    Returns (radii, points) with points[i, j] = radii[i] * directions[j], or
    center + radii[i] * directions[j] when a center is given. Radii default
    to default_radii(box_size).
    """
    radii = tuple(radii) if radii is not None else default_radii(box_size)
    points = (np.asarray(radii, dtype=float)[:, None, None]
              * np.asarray(directions, dtype=float).reshape(1, -1, 4))
    if center is not None:
        points = center + points
    return radii, points
