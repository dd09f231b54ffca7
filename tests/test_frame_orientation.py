"""The orientation of a frame by the sign of its determinant.

The package orients no frame: its vertical frame is (v1, J+ v1), positive
by the construction of J+. The determinant test below is the tests'
independent reference for that orientation: a frame's sign is the sign of
det(rows), and a determinant that is not finite or lies within
ORIENTATION_DET_TOL of zero relative to Hadamard's bound gives no sign.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

ORIENTATION_DET_TOL = 1e-12


def orientation_failure(det: float, bound: float) -> str | None:
    """Why a frame with this determinant has no orientation, or None.

    The determinant is compared with Hadamard's bound, the product of the
    row lengths, so the test does not depend on the scale of the metric.
    """
    if not math.isfinite(det):
        return "frame determinant is not finite"
    if abs(det) <= ORIENTATION_DET_TOL * bound:
        return "frame determinant is numerically zero"
    return None


def frame_orientations(frames: np.ndarray) -> tuple:
    """(signs, failures) of a stack of 4-frames, given as rows, against the
    chart orientation; failures[i] is None, or why frame i has none."""
    det = np.linalg.det(frames.swapaxes(-1, -2))
    bound = np.prod(np.hypot.reduce(frames, axis=-1), axis=-1)
    failures = [None] * len(det)
    # the rows orientation_failure rejects, flagged at once
    for i in np.flatnonzero(~np.isfinite(det) | (np.abs(det) <= ORIENTATION_DET_TOL * bound)):
        failures[i] = orientation_failure(float(det[i]), float(bound[i]))
    return np.where(det > 0, 1, -1), failures


def test_orientation_sign_and_degenerate_frame():
    fr = np.eye(4)
    swapped = np.eye(4)[[1, 0, 2, 3]]
    degenerate = np.eye(4)
    degenerate[3] = degenerate[2]
    signs, failures = frame_orientations(np.array([fr, swapped, degenerate]))
    assert signs[:2].tolist() == [1, -1]
    assert failures == [None, None, "frame determinant is numerically zero"]


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_orientation_sign_does_not_depend_on_the_frame_scale(scale):
    # an orthonormal frame of scale**-2 times the identity has determinant
    # scale**4, far below any absolute bound at 1e-8
    nearly = scale * np.eye(4)
    nearly[3] = nearly[2] + 1e-14 * nearly[3]
    frames = np.array([scale * np.eye(4), scale * np.eye(4)[[1, 0, 2, 3]], nearly,
                       np.zeros((4, 4))])
    signs, failures = frame_orientations(frames)
    assert signs[:2].tolist() == [1, -1]
    assert failures[:2] == [None, None]
    assert all("numerically zero" in failure for failure in failures[2:])


def test_orientations_match_the_row_rule_on_non_finite_frames():
    # the stacked test flags exactly the rows the row rule rejects: a zero,
    # inf or NaN determinant, a bound that overflows or is NaN
    degenerate = np.eye(4)
    degenerate[3] = degenerate[2]
    infinite, nan = np.eye(4), np.eye(4)
    infinite[0, 0], nan[1, 2] = np.inf, np.nan
    frames = np.array([np.eye(4), np.eye(4)[[1, 0, 2, 3]], degenerate, np.zeros((4, 4)),
                       infinite, -infinite, nan, np.full((4, 4), np.nan),
                       1e100 * np.eye(4), np.diag([1e160, 1e160, 1e-160, 1e-160]),
                       np.random.default_rng(2).standard_normal((4, 4))])
    with np.errstate(over="ignore", invalid="ignore"):
        signs, failures = frame_orientations(frames)
        rows = [(float(np.linalg.det(f.T)), float(np.prod(np.hypot.reduce(f, axis=-1))))
                for f in frames]
    assert any(math.isnan(bound) for _, bound in rows)
    assert signs.tolist() == [1 if det > 0 else -1 for det, _ in rows]
    assert failures == [orientation_failure(det, bound) for det, bound in rows]
    assert failures[0] is None and None not in failures[2:-1]
