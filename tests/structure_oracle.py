"""Fiber coordinates to a constant compatible structure, the inverse of
`structures.fiber_from_structure`.

No command builds a structure from its fiber coordinates: the symbol solve
sums the basis itself. This is the written-out map the tests compare
structures against.
"""

import numpy as np

from morphoscope.structures import structure_basis


def structure_from_fiber(u, orientation: int) -> np.ndarray:
    """Unit fiber coordinates to a constant compatible structure."""
    u = np.asarray(u, dtype=float)
    basis = structure_basis(orientation)
    return u[0] * basis[0] + u[1] * basis[1] + u[2] * basis[2]
