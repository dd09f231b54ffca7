"""Exact polynomials in the four chart coordinates, and the one jet rule.

Everything downstream that needs derivatives of maps or metrics to machine
precision (pullbacks, normal charts, symbol remainders) runs on this
representation: a dict from exponent 4-tuples to complex coefficients.
Real-valued polynomials are stored with zero imaginary parts; callers take
the real part where realness is guaranteed by construction.

A family of polynomials (a map's component, a diffeo's four components, the
UPPER entries of a polynomial metric) is evaluated with its derivatives as
one `Jet`, which names the orders its readers take. On its first read the
terms are sorted once, each order is derived from the one below by lowering
one exponent (`_lower`, which multiplies each coefficient as `Poly.diff`
does), and the orders are compiled together to coefficient and power-index
arrays (`Terms`). An entry that is identically zero is dropped there: it
reads as exact +0.0 and costs no term array. `evaluate` gives one order, and
`evaluate_orders` a range of orders from one pass, at a point or over a
stack of points, repeating the arithmetic of `Poly.eval` operation for
operation, so both give the same bits. A symmetric 4x4 table is kept as its
UPPER entries and rebuilt by `symmetric`; `mirrored` reads a 4x4 table from
its upper triangle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

Exponents = Tuple[int, int, int, int]

NVARS = 4
_ZERO_EXP: Exponents = (0, 0, 0, 0)

# the (i, j) entries with i <= j of a symmetric 4x4 table, row by row
UPPER = tuple((i, j) for i in range(NVARS) for j in range(i, NVARS))
_MIRROR = np.array([[UPPER.index((min(i, j), max(i, j))) for j in range(NVARS)]
                    for i in range(NVARS)])
# entry (i, j) of a 4x4 table flattened row by row, read from its upper triangle
_MIRRORED = np.array([[NVARS * min(i, j) + max(i, j) for j in range(NVARS)]
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


class Jet(tuple):
    """A family of polynomials and its derivatives of a range of orders, the
    orders its readers take, derived and compiled once, when first read.

    The entries of order r are d_{k_r} ... d_{k_1} p for every polynomial p
    of the family and every sequence of variables (k_1, ..., k_r),
    differentiated in that order, laid out family-major as an array of shape
    (len(jet),) + (4,) * r. An entry is the list of its terms, sorted as
    `Poly.eval` sums them, and one that is identically zero is dropped: order
    r + 1 comes from order r by `_lower`, and the orders of the range are
    compiled together to one `Terms`.
    """

    def __new__(cls, polys: Iterable[Poly], orders: range):
        return super().__new__(cls, polys)

    def __init__(self, polys: Iterable[Poly], orders: range):
        self.orders = orders

    @cached_property
    def terms(self) -> "Terms":
        levels = [[(p, sorted(q.coeffs.items())) for p, q in enumerate(self) if q.coeffs]]
        for _ in range(self.orders[-1]):
            levels.append(_lower(levels[-1]))
        return Terms(levels[self.orders[0]:], [len(self) * NVARS ** r for r in self.orders])


def _lower(level: list) -> list:
    """The entries of the next order from those of an order: entry q
    differentiated by variable k is entry 4 q + k, each term whose exponent
    of k is n > 0 lowered there, which keeps the sorted order, with its
    coefficient times n as `Poly.diff` multiplies it; an entry left with no
    term is dropped."""
    out = []
    for q, terms in level:
        for k in range(NVARS):
            lowered = [(e[:k] + (e[k] - 1,) + e[k + 1:], c * e[k]) for e, c in terms if e[k]]
            if lowered:
                out.append((NVARS * q + k, lowered))
    return out


class Terms:
    """The entries of a jet's orders, compiled to arrays, order by order.

    levels[i] is the list of entries of the jet's i-th order, whose layout
    has sizes[i] places. Those entries are the ones from starts[i] to
    starts[i + 1], none with more than widths[i] terms, and their layout
    begins at offsets[i] in the layout of the orders one after the other;
    position[e] is the place of entry e there, and coefficients[t, e] the
    coefficient of its term t, padded at the end with zero terms. For each
    variable k that a term uses, in order, powers[s, t, e] indexes the power
    of the variable of step s in term t of entry e in the table of powers
    x_k ** e, k major, for e in exponents, and masks holds the terms whose
    power of that variable is not zero, the only ones it multiplies.
    """

    def __init__(self, levels: list, sizes: list):
        self.starts, self.offsets = [0], [0]
        for level, size in zip(levels, sizes):
            self.starts.append(self.starts[-1] + len(level))
            self.offsets.append(self.offsets[-1] + size)
        rows = [(at + q, terms) for level, at in zip(levels, self.offsets) for q, terms in level]
        self.widths = [max([0] + [len(terms) for _, terms in level]) for level in levels]
        width = max([1] + self.widths)
        # slots[t][e]: term t of entry e, or a padding term
        slots = [[terms[t] if t < len(terms) else (_ZERO_EXP, 0j) for _, terms in rows]
                 for t in range(width)]
        exps = np.array([[e for e, _ in slot] for slot in slots], dtype=np.intp)
        exps = exps.reshape(width, len(rows), NVARS)
        used = np.flatnonzero(exps.reshape(-1, NVARS).any(axis=0))
        stride = int(exps.max(initial=0)) + 1
        # exps[s, t, e]: the exponent of the variable of step s in term t of entry e
        exps = exps[..., used].transpose(2, 0, 1)
        self.position = np.array([q for q, _ in rows], dtype=np.intp)
        self.coefficients = np.array([[c for _, c in slot] for slot in slots],
                                     dtype=complex).reshape(width, len(rows))
        self.powers = exps + stride * used[:, None, None]
        self.masks = (exps != 0)[..., None]
        self.exponents = np.arange(stride)[:, None]

    def values(self, flat: np.ndarray, entries: slice, width: int) -> np.ndarray:
        """(entries, n) values of a range of entries, none with more than
        `width` terms, at an (n, 4) stack of points."""
        # terms[t, e, i]: term t of entry e at point i
        terms = np.empty((width, entries.stop - entries.start, len(flat)), dtype=complex)
        terms[...] = self.coefficients[:width, entries, None]
        # a power or a product past the largest float is inf, and inf times
        # a zero part is nan, both silent as in Poly.eval; the callers'
        # finiteness checks reject them, and finite values are unchanged
        with np.errstate(over="ignore", invalid="ignore"):
            if len(self.powers):
                table = np.float_power(flat.T[:, None, :], self.exponents)
                table = table.astype(complex).reshape(NVARS * len(self.exponents), len(flat))
                # each term times the powers of its variables, in order
                for mask, powers in zip(self.masks[:, :width, entries],
                                        self.powers[:, :width, entries]):
                    np.multiply(terms, table[powers], out=terms, where=mask)
            total = terms[0]
            for term in terms[1:]:
                total += term
        return total + 0.0


def evaluate(jet: Jet, points, order: int = 0) -> np.ndarray:
    """Complex values of the jet's entries of one order at a point or over a
    stack of points: (..., 4) points give (..., len(jet)) + (4,) * order."""
    return evaluate_orders(jet, points, range(order, order + 1))[0]


def evaluate_orders(jet: Jet, points, orders: range) -> list:
    """The values of a range of the jet's orders, as `evaluate` gives each,
    from one evaluation of their entries together.

    Each entry is bitwise equal to `Poly.eval` of the `Poly.diff` chain it
    stands for, at each point; an identically zero entry is +0.0 and costs
    nothing. The powers come from np.float_power, which rounds as the
    scalar `**` of `Poly.eval` does (np.power does not); each term is
    multiplied by the powers of its variables in order, and the terms are
    summed in sequence. Adding zero last turns a sum of negative zeros into
    the positive zero that `Poly.eval`'s sum from 0j gives, and changes no
    other sum; so neither the padding nor the entries evaluated alongside
    change an entry's bits.
    """
    x = np.asarray(points, dtype=float)
    flat = x.reshape(-1, NVARS)
    terms = jet.terms
    first, last = orders[0] - jet.orders[0], orders[-1] + 1 - jet.orders[0]
    entries = slice(terms.starts[first], terms.starts[last])
    lo, hi = terms.offsets[first], terms.offsets[last]
    count = entries.stop - entries.start
    found = terms.values(flat, entries, max(terms.widths[first:last])).T if count else None
    if count and count == hi - lo:
        values = np.ascontiguousarray(found)
    else:
        values = np.zeros((len(flat), hi - lo), dtype=complex)
        if count:
            values[:, terms.position[entries] - lo] = found
    return [values[:, a - lo:b - lo].reshape(x.shape[:-1] + (len(jet),) + (NVARS,) * r)
            for r, a, b in zip(orders, terms.offsets[first:], terms.offsets[first + 1:])]


def symmetric(upper) -> np.ndarray:
    """4x4 symmetric tables from UPPER entries along the last axis."""
    return np.take(upper, _MIRROR, axis=-1)


def mirrored(a: np.ndarray) -> np.ndarray:
    """a made symmetric in its last two axes from its upper triangle, contiguous."""
    return np.take(a.reshape(a.shape[:-2] + (NVARS * NVARS,)), _MIRRORED, axis=-1)


def from_complex_pair(coeffs_w: Mapping[Tuple[int, int], complex]) -> Poly:
    """Expand sum c_{ab} w1^a w2^b with w1 = x1 + i x2, w2 = x3 + i x4, by
    substituting w1 and w2 for the first and the third variable."""
    w1 = Poly({(1, 0, 0, 0): 1.0 + 0j, (0, 1, 0, 0): 1j})
    w2 = Poly({(0, 0, 1, 0): 1.0 + 0j, (0, 0, 0, 1): 1j})
    pair = Poly({(a, 0, b, 0): c for (a, b), c in coeffs_w.items()})
    return pair.compose([w1, Poly.zero(), w2, Poly.zero()])
