"""Shell samples, and rate fits: exact zeros are censored, never fitted
against a floor."""

import math

import numpy as np
import pytest

from morphoscope.ratefit import default_radii, fit_rate, seeded_directions, shell_samples

RADII = (0.1, 0.05, 0.025, 0.0125)


def test_exact_zeros_are_left_out_of_the_fit():
    # fitted against log(1e-300) this gave slope 394 and an infinite constant
    fit = fit_rate(RADII, [1e-3, 1e-5, 0.0, 0.0])
    assert fit.censored == 2
    assert not fit.zero_branch
    assert fit.slope == pytest.approx(math.log2(100.0), rel=1e-12)
    assert math.isfinite(fit.constant)
    assert fit.values == (1e-3, 1e-5, 0.0, 0.0)


def test_too_few_positive_values_give_no_slope():
    fit = fit_rate(RADII, [1e-3, 0.0, 0.0, 0.0])
    assert fit.censored == 3
    assert not fit.zero_branch
    assert fit.slope is None and fit.constant is None
    assert not fit.meets_lower_slope(0.9)
    assert not fit.meets_upper_slope(1e9)


def test_small_positive_values_stay_in_the_fit():
    # below the zero threshold but positive: fitted, not censored
    values = [3.0 * r ** 4 for r in (1.0, 0.5, 0.25, 0.125)]
    fit = fit_rate((1.0, 0.5, 0.25, 0.125), [v * 1e-11 for v in values])
    assert fit.censored == 0
    assert fit.slope == pytest.approx(4.0, abs=1e-12)


def test_all_below_threshold_is_the_zero_branch():
    fit = fit_rate(RADII, [1e-13, 0.0, 0.0, 0.0])
    assert fit.zero_branch and fit.slope is None
    assert fit.meets_lower_slope(0.9)
    assert not fit.meets_upper_slope(1e9)


def test_shell_samples_are_the_radius_major_products():
    # reference: the per-sample loop every shell estimate used to write out
    dirs = seeded_directions(5, 3, include_axes=True)
    radii, points = shell_samples(dirs, box_size=3.0)
    assert radii == default_radii(3.0)
    assert points.shape == (len(radii), 13, 4)
    center = np.array([0.1, -0.2, 0.3, 0.05])
    _, shifted = shell_samples(dirs, RADII, center=center)
    for i, r in enumerate(radii):
        for j, d in enumerate(dirs):
            assert np.array_equal(points[i, j], r * d)
    for i, r in enumerate(RADII):
        for j, d in enumerate(dirs):
            assert np.array_equal(shifted[i, j], center + r * d)
