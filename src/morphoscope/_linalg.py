"""Small dense linear algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFrameError, GeometryError


def check_spd(g: np.ndarray, context: str = "metric") -> None:
    """Raise GeometryError unless g, or each matrix of a stack g, is
    symmetric positive definite."""
    if not np.all(np.isfinite(g)):
        raise GeometryError(f"{context} has non-finite entries")
    skew = g - g.swapaxes(-1, -2)
    if np.any(skew) and np.any(np.linalg.norm(skew, axis=(-2, -1))
                               > 1e-9 * np.maximum(1.0, np.linalg.norm(g, axis=(-2, -1)))):
        raise GeometryError(f"{context} is not symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise GeometryError(f"{context} is not positive definite") from None


def spd_sqrt_pair(g: np.ndarray, context: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Return (g^{1/2}, g^{-1/2}) via an eigendecomposition, for a matrix or
    for each matrix of a stack."""
    w, q = np.linalg.eigh(0.5 * (g + g.swapaxes(-1, -2)))
    if np.any(w[..., 0] <= 0):
        raise GeometryError(f"{context} is not positive definite")
    s = np.sqrt(w)[..., None, :]
    qt = q.swapaxes(-1, -2)
    return (q * s) @ qt, (q / s) @ qt


def surface_complex_structure(h: np.ndarray) -> np.ndarray:
    """Positive rotation by 90 degrees for a 2x2 SPD metric h, or for each
    matrix of a stack h.

    Satisfies j^2 = -I, h(jX, jY) = h(X, Y), and (X, jX) positively oriented.
    """
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    failed = np.flatnonzero(~(det > 0))
    if len(failed):
        raise GeometryError(f"surface metric is not positive definite in row {failed[0]}")
    j = np.stack([-h[..., 0, 1], -h[..., 1, 1], h[..., 0, 0], h[..., 0, 1]], axis=-1)
    return (1.0 / np.sqrt(det))[..., None, None] * j.reshape(j.shape[:-1] + (2, 2))


def minimize_affine_on_sphere(rho0: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||rho0 + R u|| over real unit vectors u.

    Equality-constrained least squares on the sphere, solved through the
    trust-region secular equation in the eigenbasis of R^T R. The hard case
    (right-hand side orthogonal to the bottom eigenspace) pads the solution
    with a bottom eigenvector. Returns (u, residual norm).
    """
    R = np.asarray(R, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    H = R.T @ R
    b = R.T @ rho0
    w, Q = np.linalg.eigh(H)
    beta = Q.T @ b
    lam0 = float(w[0])
    scale = max(1.0, float(abs(w[-1])), float(np.linalg.norm(b)))
    bottom = np.abs(w - lam0) <= 1e-12 * scale

    def phi(mu: float) -> float:
        return float(np.sum((beta / (w + mu)) ** 2))

    delta = 1e-14 * scale
    lo = -lam0 + delta
    if phi(lo) >= 1.0:
        hi = -lam0 + max(2.0 * delta, 2.0 * float(np.linalg.norm(b)) + 1.0)
        while phi(hi) > 1.0:
            hi = -lam0 + 2.0 * (hi + lam0)
        a, c = lo, hi
        for _ in range(300):
            mid = 0.5 * (a + c)
            if phi(mid) > 1.0:
                a = mid
            else:
                c = mid
            if c - a <= 1e-15 * max(1.0, abs(c)):
                break
        mu = 0.5 * (a + c)
        u = Q @ (-beta / (w + mu))
    else:
        # hard case: the minimizing multiplier sits at -lam0 and the system
        # leaves the bottom eigenspace free; fill it to reach the sphere
        coeff = np.zeros_like(beta)
        mask = ~bottom
        coeff[mask] = -beta[mask] / (w[mask] - lam0)
        norm2 = float(np.sum(coeff ** 2))
        if norm2 > 1.0:
            coeff /= np.sqrt(norm2)
            norm2 = 1.0
        pad = np.sqrt(max(0.0, 1.0 - norm2))
        u = Q @ coeff + pad * Q[:, 0]
    n = float(np.linalg.norm(u))
    if n == 0:
        raise DegenerateFrameError("sphere-constrained least squares degenerated")
    u = u / n
    return u, float(np.linalg.norm(rho0 + R @ u))

