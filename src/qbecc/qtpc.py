"""Tensor-product quantum codes and the burst-dispersing interleaver.

The check matrix of the tensor product of an inner code (check matrix H1,
rho1 checks over the base field) and an outer code over the degree-rho1
extension field (check matrix H2) is the Kronecker product H2 (x) H1, with
each extension-field entry expanded into its rho1 x rho1 base-field
multiplication matrix in the pinned power basis.

The tensor code is a LinearCode like any other, its check rows the
expanded matrix, and becomes a stabilizer code through the constructors
every cyclic code passes: the Hermitian one for a GF(4) inner code, CSS
with itself for a binary one.  Both produce [[n1*n2, n1*n2 - 2*rho1*rho2]];
no nullspace is solved, as the constructors read only check rows.

The interleaver streams an n1 x n2 qubit array in row-groups of l1 rows,
column segment by column segment, so that a short stream burst lands in few
array columns with a short span inside each.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .classical import LinearCode
from .gf import GF2, GF4
from .linalg import mat_mul_vec
from .stabilizer import StabilizerCode, css_construct, hermitian_construct


class QtpcSpec(NamedTuple):
    n1: int
    k1: int
    n2: int
    k2: int
    rho1: int
    rho2: int
    expanded_check: Tuple[Tuple[int, ...], ...]
    params: Tuple[int, int]


def tensor_check_matrix(c1: LinearCode, c2: LinearCode) -> List[List[int]]:
    """Expanded (rho1*rho2) x (n1*n2) base-field check matrix of the tensor
    code.  The outer code must live over the degree-rho1 extension of the
    inner base field."""
    base = c1.field
    rho1 = c1.n - c1.k
    field2 = c2.field
    if base is not GF2 and base is not GF4:
        raise ValueError("inner code must be over GF(2) or GF(4)")
    if getattr(field2, "base", None) is not base or field2.m != rho1:
        raise ValueError(
            f"outer code field must be the degree-{rho1} extension of {base!r}")
    # row r of M_e * H1 for each outer entry e: row r of M_e times the
    # columns of H1
    columns = list(zip(*c1.check_rows))
    blocks = {e: [mat_mul_vec(base, columns, m_row) for m_row in field2.mult_matrix(e)]
              for e in {x for row in c2.check_rows for x in row}}
    return [[x for e in h2_row for x in blocks[e][r]]
            for h2_row in c2.check_rows for r in range(rho1)]


def qtpc_construct(c1: LinearCode, c2: LinearCode) -> Tuple[StabilizerCode, QtpcSpec]:
    """[[n1*n2, n1*n2 - 2*rho1*rho2]] stabilizer code of the tensor code.

    The constructor's commutation check decides dual containment of the
    tensor code (ValueError otherwise), and its dimension check that the
    expanded matrix has full rank rho1*rho2 (AssertionError otherwise).
    """
    expanded = tensor_check_matrix(c1, c2)
    rho1, rho2 = c1.n - c1.k, c2.n - c2.k
    n = c1.n * c2.n
    tensor = LinearCode(c1.field, n, n - rho1 * rho2, tuple(map(tuple, expanded)))
    stab = hermitian_construct(tensor) if c1.field is GF4 else css_construct(tensor, tensor)
    spec = QtpcSpec(c1.n, c1.k, c2.n, c2.k, rho1, rho2, tensor.check_rows, stab.params)
    return stab, spec


# ----------------------------------------------------------------------
# Interleaving
# ----------------------------------------------------------------------

class _InterleaverMap(NamedTuple):
    n1: int
    n2: int
    l1: int


class InterleaverMap(_InterleaverMap):
    """An n1 x n2 qubit array sent in row-groups of l1 rows; construction
    raises ValueError unless l1 divides n1."""

    __slots__ = ()
    _make = _replace = None  # refused: NamedTuple builds both by tuple.__new__, past __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.l1 <= 0 or self.n1 % self.l1 != 0:
            raise ValueError(f"subblock height {self.l1} must divide n1={self.n1}")
        return self

    @property
    def size(self) -> int:
        return self.n1 * self.n2


def deinterleave(imap: InterleaverMap, t: int) -> Tuple[int, int]:
    """Array cell (row, col) sent at stream position t: row-groups of l1
    rows are sent in order, each group column by column."""
    if not 0 <= t < imap.size:
        raise ValueError(f"stream position {t} outside [0, {imap.size})")
    group, rem = divmod(t, imap.l1 * imap.n2)
    col, offset = divmod(rem, imap.l1)
    return group * imap.l1 + offset, col


class DispersalReport(NamedTuple):
    burst_len: int
    max_affected_subblocks: int
    max_inner_burst: int
    worst_start: int
    aligned_only: bool


def dispersal_report(imap: InterleaverMap, burst_len: int,
                     aligned_only: bool = False) -> DispersalReport:
    """Measure, over every stream burst window of length <= burst_len, how
    many array columns are touched and the worst row span inside one column.

    aligned_only restricts window starts to multiples of l1.
    """
    if not 1 <= burst_len <= imap.size:
        raise ValueError(f"burst length {burst_len} outside [1, {imap.size}]")
    cells = [deinterleave(imap, t) for t in range(imap.size)]
    worst_cols = 0
    worst_span = 0
    worst_start = 0
    for start in range(imap.size):
        if aligned_only and start % imap.l1 != 0:
            continue
        col_rows: dict = {}
        for t in range(start, min(start + burst_len, imap.size)):
            row, col = cells[t]
            lo, hi = col_rows.get(col, (row, row))
            col_rows[col] = (min(lo, row), max(hi, row))
        n_cols = len(col_rows)
        span = max(hi - lo + 1 for lo, hi in col_rows.values())
        if n_cols > worst_cols:
            worst_cols, worst_start = n_cols, start
        worst_span = max(worst_span, span)
    return DispersalReport(burst_len, worst_cols, worst_span, worst_start,
                           aligned_only)


__all__ = [
    "QtpcSpec", "tensor_check_matrix", "qtpc_construct",
    "InterleaverMap", "deinterleave",
    "DispersalReport", "dispersal_report",
]
