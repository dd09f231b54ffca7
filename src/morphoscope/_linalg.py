"""Small dense linear algebra helpers shared across modules."""

from __future__ import annotations

import math

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


def minimize_affine_on_sphere(rho0: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize ||rho0 + R u|| over real unit vectors u.

    Equality-constrained least squares on the sphere, solved through the
    trust-region secular equation in the eigenbasis of R^T R. The hard case
    (right-hand side orthogonal to the bottom eigenspace) pads the solution
    with a bottom eigenvector. Returns (u, residual norm).

    The solve is scale-free: rho0 and R are first divided by the power of
    two that brings max|R| into [1, 2), which is exact, and the residual is
    scaled back, so the eigenvalue-cluster test, the bracket and the stop
    rule of the bisection are relative to R. The bisection runs on Python
    floats over the eigen-coordinates; the secular function sums its terms
    left to right and squares by a product, as numpy does on fewer than
    eight terms, so it keeps the bits of the array form.
    """
    R = np.asarray(R, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    top = float(np.max(np.abs(R), initial=0.0))
    shift = math.frexp(top)[1] - 1 if 0.0 < top < math.inf else 0
    if shift:
        R, rho0 = np.ldexp(R, -shift), np.ldexp(rho0, -shift)
    H = R.T @ R
    b = R.T @ rho0
    w, Q = np.linalg.eigh(H)
    beta = Q.T @ b
    lam0 = float(w[0])
    norm_b = float(np.linalg.norm(b))
    scale = max(1.0, float(abs(w[-1])), norm_b)
    bottom = np.abs(w - lam0) <= 1e-12 * scale
    # mu stays above -lam0, so no denominator w + mu vanishes
    terms = tuple(zip(beta.tolist(), w.tolist()))

    def phi(mu: float) -> float:
        total = 0.0
        for beta_k, w_k in terms:
            t = beta_k / (w_k + mu)
            total += t * t
        return total

    delta = 1e-14 * scale
    lo = -lam0 + delta
    if phi(lo) >= 1.0:
        hi = -lam0 + max(2.0 * delta, 2.0 * norm_b + 1.0)
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
    return u, float(np.linalg.norm(rho0 + R @ u)) * math.ldexp(1.0, shift)
