"""Reference dual-containment rules for cyclic codes, read off the generator
polynomials by divisibility of x^n - 1 (Calderbank, Rains, Shor and Sloane,
IEEE T-IT 1998; Aly, Klappenecker and Sarvepalli, IEEE T-IT 2007).

search() decides the same rules on factor masks; these keep the polynomial
product and division it replaced, and the Hermitian candidate list it took
from the full divisor list before it enumerated survivors.  Divisors of
x^n - 1 have a nonzero constant term, so reversing the coefficients keeps
the degree.
"""

from __future__ import annotations

from qbecc.gf import GF4, Poly, xn_minus_1
from qbecc.search import _divisors


def _divides_xn_minus_1(p: Poly, n: int) -> bool:
    return (xn_minus_1(n, p.field) % p).is_zero


def _hermitian_dual_containing(g: Poly, n: int) -> bool:
    """The Hermitian dual of <g> lies in <g> iff g times its conjugate
    reciprocal divides x^n - 1."""
    conj_reciprocal = Poly(GF4, [GF4.conj(c) for c in reversed(g.coeffs)])
    return _divides_xn_minus_1(g * conj_reciprocal, n)


def _css_dual_containing(g1: Poly, g2: Poly, n: int) -> bool:
    """The dual of <g2> lies in <g1> iff g1 times the reciprocal of g2
    divides x^n - 1."""
    return _divides_xn_minus_1(g1 * Poly(g2.field, reversed(g2.coeffs)), n)


def filtered_hermitian_divisors(n: int):
    """Every monic GF(4) divisor g of x^n - 1 whose factor mask is disjoint
    from its mirror's, as 1-tuples in (degree, coefficients) order."""
    return [(g,) for g, s, m in _divisors(n, GF4) if not s & m]
