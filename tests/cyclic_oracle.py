"""Reference cyclic-code builder: generator rows x^i g reduced by generic
Gaussian elimination, and the check rows from the nullspace of the result.

classical.cyclic_from_poly writes both matrices down in systematic form
from polynomial remainders; this keeps the matrix path it replaced.
"""

from __future__ import annotations

from qbecc.classical import InvalidGeneratorError, LinearCode, linear_code
from qbecc.gf import Poly, xn_minus_1


def cyclic_from_poly_matrix(g: Poly, n: int) -> LinearCode:
    field = g.field
    if g.is_zero:
        raise InvalidGeneratorError("zero polynomial cannot generate a cyclic code")
    g = g.monic()
    if not (xn_minus_1(n, field) % g).is_zero:
        raise InvalidGeneratorError(f"{g!r} does not divide x^{n} - 1 over {field!r}")
    k = n - g.degree
    rows = []
    for shift in range(k):
        row = [0] * n
        for i, c in enumerate(g.coeffs):
            row[shift + i] = c
        rows.append(row)
    return linear_code(field, rows, n)
