"""The scalar closed forms of the fiber shape, one row (a, b, c, d) at a time.

The package derives each closed form as a column of a shape stack's (n, 4)
coefficients (`weingarten.ShapeStack`); these are the forms on one row of
Python floats that the columns replaced, kept as their bitwise reference.
"""

import math
from typing import Tuple

import numpy as np


def closed_norm_pair(a: float, b: float, c: float, d: float) -> Tuple[float, float]:
    """Squared derivative norms of the two structures along T."""
    return (4.0 * ((a - d) ** 2 + (b + c) ** 2),
            4.0 * ((a + d) ** 2 + (b - c) ** 2))


def commutator_matrix(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Commutator of the squared shape map with the vertical rotation."""
    p = 2.0 * (a * b + c * d)
    q = b * b + d * d - (a * a + c * c)
    return np.array([[p, q], [q, -p]])


def product_identity(a: float, b: float, c: float, d: float) -> float:
    """Product of the two squared norms, expanded form.

    Algebraically equal to the product of the closed_norm_pair entries, but
    the subtraction cancels catastrophically when the product nearly
    vanishes; scans therefore multiply the stable factored norms and keep
    this form as an identity diagnostic on its own magnitude scale.
    """
    s = a * a + b * b + c * c + d * d
    return 16.0 * (s * s - 4.0 * (a * d - b * c) ** 2)


def identity_scale(a: float, b: float, c: float, d: float) -> float:
    """Natural magnitude of the product identity terms, for relative gaps."""
    s = a * a + b * b + c * c + d * d
    return 16.0 * max(1.0, s * s)


def polar_form(a: float, b: float, c: float, d: float) -> Tuple[float, float, float, float]:
    """(r1, r2, theta, alpha) with a = r1 cos(theta), c = r1 sin(theta),
    b = r2 cos(alpha), d = r2 sin(alpha)."""
    return (math.hypot(a, c), math.hypot(b, d),
            math.atan2(c, a), math.atan2(d, b))


def product_polar(r1: float, r2: float, theta: float, alpha: float) -> float:
    """Product of the two squared norms in polar coefficients."""
    return 16.0 * ((r1 ** 2 - r2 ** 2) ** 2
                   + 4.0 * r1 ** 2 * r2 ** 2 * math.cos(theta - alpha) ** 2)
