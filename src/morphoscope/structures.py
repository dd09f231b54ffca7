"""Constant compatible structure bases on the flat model of the chart.

With the Euclidean pairing, a two-form omega corresponds to the structure
J = omega^T (indices raised trivially). The positive basis comes from the
forms dx1^dx3 + dx4^dx2, dx1^dx4 + dx2^dx3, dx1^dx2 + dx3^dx4, and the
negative basis from their antisymmetric partners. Both triples satisfy the
quaternion relations, each unit combination squares to minus the identity,
and the third positive element is the standard structure of the two complex
chart coordinates.

On a curved chart the compatible structure of a unit 2-form w is J =
-g^{-1} (w + s *w), and `structure_jets` derives it, alone or with its
covariant derivatives, in closed form from the two covectors spanning w.
"""

from __future__ import annotations

import itertools

import numpy as np


def _form(*pairs) -> np.ndarray:
    omega = np.zeros((4, 4))
    for i, j in pairs:
        omega[i, j] += 1.0
        omega[j, i] -= 1.0
    return omega


_FORMS_PLUS = (
    _form((0, 2), (3, 1)),
    _form((0, 3), (1, 2)),
    _form((0, 1), (2, 3)),
)
_FORMS_MINUS = (
    _form((0, 2), (1, 3)),
    _form((0, 3), (2, 1)),
    _form((0, 1), (3, 2)),
)

STRUCTURES_PLUS = tuple(-omega for omega in _FORMS_PLUS)
STRUCTURES_MINUS = tuple(-omega for omega in _FORMS_MINUS)

# the sign by which a lifted structure field acts on vertical (fiber tangent)
# endomorphisms, by composition; calibrated on the minimal catenoid, whose
# lift residual is order one with the opposite sign
VERTICAL_ROTATION_SIGN = -1

# eps_ijkl = det(e_i, e_j, e_k, e_l) as a (16, 16) matrix, rows ij and columns kl
LEVI_CIVITA = np.linalg.det(np.eye(4)[list(itertools.product(range(4), repeat=4))]).reshape(16, 16)


def structure_basis(orientation: int) -> tuple:
    if orientation == 1:
        return STRUCTURES_PLUS
    if orientation == -1:
        return STRUCTURES_MINUS
    raise ValueError("orientation must be +1 or -1")


def fiber_from_structure(J: np.ndarray, orientation: int) -> np.ndarray:
    """Project a flat-compatible structure, or each of a stack, onto the
    basis; ||J_i||_F^2 = 4."""
    basis = np.reshape(structure_basis(orientation), (3, 16))
    return J.reshape(J.shape[:-2] + (16,)) @ basis.T / 4.0


def gram_jet(A: np.ndarray, dA: np.ndarray, G: np.ndarray, dg: np.ndarray,
             degenerate=None) -> tuple:
    """(d_k G, M, M^{-1}, d_k M) for G = g^{-1} and the Gram matrix M = A G
    A^T of the rows of A, over a stack: A is (n, 2, 4), G (n, 4, 4), and dA
    and dg = d_k g carry the derivative index k on their second axis. M is
    replaced by the identity on the rows that `degenerate` selects, so it
    cannot fail the inverse."""
    dG = -(G[:, None] @ dg @ G[:, None])
    B, At = A @ G, A.swapaxes(-1, -2)
    M = B @ At
    if degenerate is not None:
        M[degenerate] = np.eye(2)
    S = dA @ B.swapaxes(-1, -2)[:, None]
    return dG, M, np.linalg.inv(M), S + S.swapaxes(-1, -2) + A[:, None] @ dG @ At[:, None]


def structure_jets(A: np.ndarray, g: np.ndarray, G: np.ndarray, signs,
                   directions=None, gram=None) -> list:
    """J = -G (w + s *w), (n, 4, 4), for each sign s, or with directions
    the first jets (J, nabla J).

    w = A_1 ^ A_2 / |A_1 ^ A_2|_g is the unit 2-form of the two rows of A,
    (n, 2, 4), and (*w)_kl = 1/2 sqrt(det g) eps_ijkl w^ij its Hodge dual;
    G is g^{-1}. The directions (dA, dg, gamma) are any number k of them:
    dA, dg = d_k g and gamma, with (Gamma_k)^a_b = Gamma^a_{bc} X_k^c, carry
    k on their second axis, (n, k, ...), and the matrix indices last; nabla
    J is (n, k, 4, 4), with nabla_k J = d_k J + [Gamma_k, J] by the product
    rule. `gram` is the gram_jet of A, dA, G and dg when the caller has it,
    and is computed here otherwise. Entries that overflow come out
    non-finite, without a warning: the callers' checks of J reject those rows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if directions is None:
            M = A @ G @ A.swapaxes(-1, -2)
        else:
            dA, dg, gamma = directions
            dG, M, N, dM = gram_jet(A, dA, G, dg) if gram is None else gram
        G, A = G[:, None], A[:, None]
        W = A[..., 0, :, None] * A[..., 1, None, :]
        # |A_1 ^ A_2|_g = sqrt(det M), whose log has derivative tr(N d_k M) / 2
        size = np.sqrt(np.linalg.det(M))[:, None, None, None]
        w = (W - W.swapaxes(-1, -2)) / size
        # sqrt(det g) and the derivative of its log, tr(G d_k g) / 2
        volume = np.sqrt(np.linalg.det(g))[:, None, None, None]

        def hodge(form_up):
            flat = form_up.reshape(form_up.shape[:-2] + (1, 16))
            return 0.5 * volume * (flat @ LEVI_CIVITA).reshape(form_up.shape)

        star = hodge(G @ w @ G)
        if directions is None:
            return [-(G @ (w + sign * star))[:, 0] for sign in signs]
        dW = (dA[..., 0, :, None] * A[..., 1, None, :]
              + A[..., 0, :, None] * dA[..., 1, None, :])
        dw = ((dW - dW.swapaxes(-1, -2)) / size
              - 0.5 * np.trace(N[:, None] @ dM, axis1=-2, axis2=-1)[..., None, None] * w)
        dw_up = dG @ (w @ G) + G @ dw @ G + (G @ w) @ dG
        dlog_volume = 0.5 * np.trace(G @ dg, axis1=-2, axis2=-1)[..., None, None]
        dstar = hodge(dw_up) + dlog_volume * star
        jets = []
        for sign in signs:
            form, dform = w + sign * star, dw + sign * dstar
            J = -(G @ form)
            jets.append((J[:, 0], gamma @ J - J @ gamma - dG @ form - G @ dform))
        return jets
