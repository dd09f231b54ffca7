"""Exact polynomials in the four chart coordinates.

Everything downstream that needs derivatives of maps or metrics to machine
precision (jets, pullbacks, normal charts, symbol remainders) runs on this
representation: a dict from exponent 4-tuples to complex coefficients.
Real-valued polynomials are stored with zero imaginary parts; callers take
the real part where realness is guaranteed by construction.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

Exponents = Tuple[int, int, int, int]

NVARS = 4
_ZERO_EXP: Exponents = (0, 0, 0, 0)


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

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def eval_real(self, point: Sequence[float]) -> float:
        return self.eval(point).real

    def shift(self, center: Sequence[float]) -> "Poly":
        """Return q with q(y) = p(center + y), expanded exactly."""
        comps = [Poly.variable(k) + Poly.constant(center[k]) for k in range(NVARS)]
        return self.compose(comps)

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

    def truncate_above(self, n: int) -> "Poly":
        return Poly({e: c for e, c in self.coeffs.items() if sum(e) <= n})

    def lowest_order(self, tol: float = 0.0) -> int:
        """Smallest total degree with a coefficient of magnitude > tol, or -1."""
        best = -1
        for e, c in self.coeffs.items():
            if abs(c) > tol:
                d = sum(e)
                if best < 0 or d < best:
                    best = d
        return best

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

