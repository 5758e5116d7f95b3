"""Reference code builders by generic Gaussian elimination.

linear_code spans a code by its generator rows and solves the check rows
as the nullspace of their reduced form (mat_nullspace).  Over it,
cyclic_from_poly_matrix reduces the generator rows x^i g, and
rs_mds_matrix the Vandermonde rows of the Reed-Solomon code.
classical.cyclic_from_poly and classical.rs_mds write their check rows
down in systematic form; this keeps the matrix path they replaced.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from qbecc.classical import InvalidGeneratorError, LinearCode
from qbecc.gf import Poly, xn_minus_1
from qbecc.linalg import mat_row_reduce


def mat_nullspace(field, rows: Sequence[Sequence[int]], ncols: int) -> List[List[int]]:
    """Basis of {x : sum_j row[j]*x[j] = 0 for every row}."""
    reduced, pivots = mat_row_reduce(field, rows)
    pivot_set = set(pivots)
    basis: List[List[int]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, p in zip(reduced, pivots):
            vec[p] = row[free]  # char 2: -x = x
        basis.append(vec)
    return basis


def linear_code(field, rows: Sequence[Sequence[int]], n: Optional[int] = None) -> LinearCode:
    """The code spanned by rows: k is their rank, and the check rows are the
    nullspace basis of their reduced rows."""
    if n is None:
        n = len(rows[0])
    reduced, _ = mat_row_reduce(field, rows)
    return LinearCode(field, n, len(reduced),
                      tuple(map(tuple, mat_nullspace(field, reduced, n))))


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


def rs_mds_matrix(n2: int, l2: int, field) -> LinearCode:
    """The Reed-Solomon code of classical.rs_mds from its k = n2 - 2*l2
    Vandermonde rows: row i holds x^i at the points 0, 1, 2, ... in int
    order, and, for n2 = order + 1, a last coordinate 1 iff i = k - 1."""
    q = field.order
    k = n2 - 2 * l2
    rows = []
    for i in range(k):
        row = [field.pow(x, i) for x in range(min(n2, q))]
        if n2 == q + 1:
            row.append(1 if i == k - 1 else 0)
        rows.append(row)
    return linear_code(field, rows, n2)
