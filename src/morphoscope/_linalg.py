"""Small dense linear algebra helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError


def spd_failures(g: np.ndarray) -> tuple:
    """(rows, reason) of each check, in order, that a stack of matrices g,
    (n, k, k), fails to be symmetric positive definite: non-finite entries,
    asymmetry, and a leading principal minor that is not positive, its sign
    read from the LU factorization that np.linalg.inv runs, so a matrix that
    passes is invertible. No row raises or warns."""
    finite = np.isfinite(g).all(axis=(-2, -1))
    g = g if finite.all() else np.where(finite[:, None, None], g, np.eye(g.shape[-1]))
    skew = g - g.swapaxes(-1, -2)
    asymmetric = np.zeros(len(g), dtype=bool)
    if np.any(skew):
        with np.errstate(over="ignore"):
            asymmetric = (np.linalg.norm(skew, axis=(-2, -1))
                          > 1e-9 * np.maximum(1.0, np.linalg.norm(g, axis=(-2, -1))))
    positive = g[:, 0, 0] > 0
    for k in range(2, g.shape[-1] + 1):
        positive &= np.linalg.slogdet(g[:, :k, :k])[0] > 0
    return ((~finite, "has non-finite entries"), (asymmetric, "is not symmetric"),
            (~positive, "is not positive definite"))


def spd_sqrt_pair(g: np.ndarray, context: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Return (g^{1/2}, g^{-1/2}) via an eigendecomposition, for a matrix or
    for each matrix of a stack."""
    w, q = np.linalg.eigh(0.5 * (g + g.swapaxes(-1, -2)))
    if np.any(w[..., 0] <= 0):
        raise GeometryError(f"{context} is not positive definite")
    s = np.sqrt(w)[..., None, :]
    qt = q.swapaxes(-1, -2)
    return (q * s) @ qt, (q / s) @ qt


def minimize_affine_on_sphere(rho0: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||rho0 + R u|| over real unit vectors u, given R^T R = c I.

    Then ||rho0 + R u||^2 = ||rho0||^2 + 2 b.u + c with b = R^T rho0, so
    the minimiser is u = -b / ||b||, or the first axis when b = 0. The
    holomorphy system of symbol._holomorphy_system has c = scale^2, which
    test_symbol.py checks on random symbols and at every catalog center
    (test_random_symbols_have_a_conformal_system_and_one_structure_per_orientation,
    test_catalog_centers_have_a_conformal_system_and_one_structure_per_orientation).
    Returns (u, residual norm). rho0 and R are first divided by the power
    of two that brings max|R| into [1, 2), which is exact, and the residual
    is scaled back.
    """
    R = np.asarray(R, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    top = float(np.max(np.abs(R), initial=0.0))
    shift = math.frexp(top)[1] - 1 if 0.0 < top < math.inf else 0
    if shift:
        R, rho0 = np.ldexp(R, -shift), np.ldexp(rho0, -shift)
    b = R.T @ rho0
    norm_b = float(np.linalg.norm(b))
    # adding zero makes the zero entries positive
    u = -b / norm_b + 0.0 if norm_b else np.eye(len(b))[0]
    return u, float(np.linalg.norm(rho0 + R @ u)) * math.ldexp(1.0, shift)
