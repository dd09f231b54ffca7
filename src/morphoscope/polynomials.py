"""Exact polynomials in the four chart coordinates.

Everything downstream that needs derivatives of maps or metrics to machine
precision (pullbacks, normal charts, symbol remainders) runs on this
representation: a dict from exponent 4-tuples to complex coefficients.
Real-valued polynomials are stored with zero imaginary parts; callers take
the real part where realness is guaranteed by construction.

A table of polynomials (a metric, its derivatives, a Jacobian) is a
`Table`, evaluated over a point or a stack of points by `evaluate`; a
symmetric 4x4 table is kept as its UPPER entries and rebuilt by `symmetric`.
On its first evaluation a table compiles to exponent and coefficient arrays,
and `evaluate` repeats the arithmetic of `Poly.eval` on them operation for
operation, so both give the same bits.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

Exponents = Tuple[int, int, int, int]

NVARS = 4
_ZERO_EXP: Exponents = (0, 0, 0, 0)

# the (i, j) entries with i <= j of a symmetric 4x4 table, row by row
UPPER = tuple((i, j) for i in range(NVARS) for j in range(i, NVARS))
_MIRROR = np.array([[UPPER.index((min(i, j), max(i, j))) for j in range(NVARS)]
                    for i in range(NVARS)])


class Poly:
    """Polynomial in four variables with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Exponents, complex] | None = None):
        data: Dict[Exponents, complex] = {}
        if coeffs:
            for exp, c in coeffs.items():
                c = complex(c)
                if c != 0:
                    data[exp] = data.get(exp, 0j) + c
        self.coeffs = {e: c for e, c in data.items() if c != 0}

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, c: complex) -> "Poly":
        return cls({_ZERO_EXP: complex(c)})

    @classmethod
    def variable(cls, k: int) -> "Poly":
        exp = [0, 0, 0, 0]
        exp[k] = 1
        return cls({tuple(exp): 1.0 + 0j})

    # ------------------------------------------------------------------ basic

    def __add__(self, other: "Poly | complex") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0j) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        p = Poly.__new__(Poly)
        p.coeffs = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.coeffs = {e: -c for e, c in self.coeffs.items()}
        return p

    def __sub__(self, other: "Poly | complex") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __mul__(self, other: "Poly | complex") -> "Poly":
        if not isinstance(other, Poly):
            c = complex(other)
            if c == 0:
                return Poly.zero()
            p = Poly.__new__(Poly)
            p.coeffs = {e: v * c for e, v in self.coeffs.items()}
            return p
        out: Dict[Exponents, complex] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(e, 0j) + c1 * c2
                out[e] = s
        p = Poly.__new__(Poly)
        p.coeffs = {e: c for e, c in out.items() if c != 0}
        return p

    __rmul__ = __mul__

    def real_poly(self) -> "Poly":
        return Poly({e: complex(c.real) for e, c in self.coeffs.items()})

    # ------------------------------------------------------------- calculus

    def diff(self, k: int) -> "Poly":
        out: Dict[Exponents, complex] = {}
        for e, c in self.coeffs.items():
            n = e[k]
            if n == 0:
                continue
            elist = list(e)
            elist[k] = n - 1
            out[tuple(elist)] = c * n
        p = Poly.__new__(Poly)
        p.coeffs = out
        return p

    def eval(self, point: Sequence[float]) -> complex:
        x0, x1, x2, x3 = point[0], point[1], point[2], point[3]
        total = 0j
        # sorted iteration keeps float accumulation order independent of
        # construction history, which the report fingerprints rely on
        for e, c in sorted(self.coeffs.items()):
            term = c
            if e[0]:
                term *= x0 ** e[0]
            if e[1]:
                term *= x1 ** e[1]
            if e[2]:
                term *= x2 ** e[2]
            if e[3]:
                term *= x3 ** e[3]
            total += term
        return total

    def compose(self, components: Sequence["Poly"]) -> "Poly":
        """Substitute components[k] for variable k."""
        if len(components) != NVARS:
            raise ValueError("compose needs one polynomial per variable")
        # cache powers of each component up to the degree that appears
        maxdeg = [0] * NVARS
        for e in self.coeffs:
            for k in range(NVARS):
                maxdeg[k] = max(maxdeg[k], e[k])
        powers = []
        for k in range(NVARS):
            pk = [Poly.constant(1.0)]
            for _ in range(maxdeg[k]):
                pk.append(pk[-1] * components[k])
            powers.append(pk)
        total = Poly.zero()
        for e, c in sorted(self.coeffs.items()):
            term = Poly.constant(c)
            for k in range(NVARS):
                if e[k]:
                    term = term * powers[k][e[k]]
            total = total + term
        return total

    # --------------------------------------------------------------- slicing

    def homogeneous_part(self, n: int) -> "Poly":
        return Poly({e: c for e, c in self.coeffs.items() if sum(e) == n})

    def lowest_order(self) -> int:
        """Smallest total degree with a nonzero coefficient, or -1."""
        return min((sum(e) for e, c in self.coeffs.items() if abs(c) > 0.0), default=-1)

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def chop(self, tol: float) -> "Poly":
        return Poly({e: c for e, c in self.coeffs.items() if abs(c) > tol})

    def __repr__(self) -> str:  # debugging aid only
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            mono = "".join(f"x{k + 1}^{e[k]}" for k in range(NVARS) if e[k])
            parts.append(f"({c:.6g}){mono or ''}")
        return "Poly(" + " + ".join(parts) + ")"


class Table(tuple):
    """A fixed sequence of polynomials that `evaluate` evaluates together."""

    @cached_property
    def compiled(self) -> tuple:
        """(coefficients, masks, exponents, degree), built on first use.

        coefficients[p, t] is term t of polynomial p, the terms sorted as
        `Poly.eval` sums them and padded with zero terms. For each variable
        k that a term uses, in order, masks
        holds the terms where its exponent is nonzero, and exponents[s]
        indexes the power of the variable of step s in the (4, degree + 1)
        table of powers, degree being the largest exponent.
        """
        terms = [sorted(p.coeffs.items()) for p in self]
        width = max([1] + [len(t) for t in terms])
        exps = np.zeros((NVARS, len(self), width), dtype=np.intp)
        coeffs = np.zeros((len(self), width), dtype=complex)
        for p, poly_terms in enumerate(terms):
            for t, (e, c) in enumerate(poly_terms):
                exps[:, p, t] = e
                coeffs[p, t] = c
        used = [k for k in range(NVARS) if exps[k].any()]
        degree = int(exps.max(initial=0))
        return (coeffs, exps[used] != 0,
                np.array([k * (degree + 1) + exps[k] for k in used], dtype=np.intp),
                degree)


def evaluate(table: Table, points) -> np.ndarray:
    """Complex values of the table's polynomials at a point or over a stack
    of points, on the last axis: (..., 4) points give (..., len(table)).

    Bitwise equal to `Poly.eval` at each point. The powers come from
    np.float_power, which rounds as the scalar `**` of `Poly.eval` does
    (np.power does not); each term is multiplied by the powers of its
    variables in order, and two or more terms are summed in sequence.
    Adding zero last turns a sum of negative zeros into the positive zero
    that `Poly.eval`'s sum from 0j gives, and changes no other sum.
    """
    x = np.asarray(points, dtype=float)
    flat = x.reshape(-1, NVARS)
    coeffs, masks, exponents, degree = table.compiled
    # powers[i, k * (degree + 1) + e] = x_k ** e at point i
    powers = np.float_power(flat[:, :, None], np.arange(degree + 1)).astype(complex)
    powers = powers.reshape(len(flat), NVARS * (degree + 1))
    # terms[i, p, t]: term t of polynomial p at point i
    terms = np.empty((len(flat),) + coeffs.shape, dtype=complex)
    terms[...] = coeffs
    # a product past the largest float is inf, which the callers' finiteness
    # checks reject; finite products are unchanged
    with np.errstate(over="ignore"):
        for mask, exps in zip(masks, exponents):
            np.multiply(terms, powers[:, exps], out=terms, where=mask)
    if terms.shape[-1] > 1:
        np.add.accumulate(terms, axis=-1, out=terms)
    return (terms[..., -1] + 0.0).reshape(x.shape[:-1] + (len(table),))


def symmetric(upper) -> np.ndarray:
    """4x4 symmetric tables from UPPER entries along the last axis."""
    return np.take(upper, _MIRROR, axis=-1)


def from_complex_pair(coeffs_w: Mapping[Tuple[int, int], complex]) -> Poly:
    """Expand sum c_{ab} w1^a w2^b with w1 = x1 + i x2, w2 = x3 + i x4."""
    w1 = Poly({(1, 0, 0, 0): 1.0 + 0j, (0, 1, 0, 0): 1j})
    w2 = Poly({(0, 0, 1, 0): 1.0 + 0j, (0, 0, 0, 1): 1j})
    maxa = max((a for a, _ in coeffs_w), default=0)
    maxb = max((b for _, b in coeffs_w), default=0)
    pow1 = [Poly.constant(1.0)]
    for _ in range(maxa):
        pow1.append(pow1[-1] * w1)
    pow2 = [Poly.constant(1.0)]
    for _ in range(maxb):
        pow2.append(pow2[-1] * w2)
    total = Poly.zero()
    for (a, b), c in sorted(coeffs_w.items()):
        if c == 0:
            continue
        total = total + pow1[a] * pow2[b] * c
    return total

