"""Polynomials with exact rational coefficients, on the package's own Poly.

`ExactPoly` is `Poly` over `fractions.Fraction`: every operation of `Poly`
keeps the class, so compose, diff and eval run on it exactly. A config's
float coefficients are dyadic rationals, so `exact` and `exact_spec` carry
a chart's polynomials over without rounding.
"""

from fractions import Fraction

from morphoscope.polynomials import Poly


class ExactPoly(Poly):
    __slots__ = ()
    coerce = Fraction


def exact(p: Poly) -> ExactPoly:
    """The float polynomial p with each coefficient as its exact rational; p
    must have no imaginary part."""
    if any(c.imag != 0 for c in p.coeffs.values()):
        raise ValueError("an exact polynomial has real coefficients only")
    return ExactPoly({e: c.real for e, c in p.coeffs.items()})


def exact_spec(spec) -> ExactPoly:
    """A config monomial list as an exact polynomial, repeats summed by `+`."""
    return sum((ExactPoly({tuple(m["exponents"]): m["value"]}) for m in spec), ExactPoly())
