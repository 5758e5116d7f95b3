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
from .gf import GF4
from .stabilizer import StabilizerCode, charge_entries, css_construct, hermitian_construct


def tensor_check_matrix(c1: LinearCode, c2: LinearCode) -> List[List[int]]:
    """Expanded (rho1*rho2) x (n1*n2) base-field check matrix of the tensor
    code.  The outer code must live over the degree-rho1 extension of the
    inner base field, which is then GF(2) or GF(4), the bases of ExtField."""
    rho1 = c1.n - c1.k
    field2 = c2.field
    if getattr(field2, "base", None) is not c1.field or field2.m != rho1:
        raise ValueError(
            f"outer code field must be the degree-{rho1} extension of {c1.field!r}")
    rows, cols = rho1 * len(c2.check_rows), c1.n * c2.n
    charge_entries(rows * cols, f"the {rows} x {cols} tensor check matrix")
    # the block of an outer entry e is M_e * H1, and its column c holds the
    # digits of e * h_c, where the extension element h_c has column c of H1
    # as its digits: row r of the block is digit r of each product
    columns = [field2.from_digits(column) for column in zip(*c1.check_rows)]
    blocks = {e: list(zip(*(field2.digits(field2.mul(e, h)) for h in columns)))
              for e in {x for row in c2.check_rows for x in row}}
    return [[x for e in h2_row for x in blocks[e][r]]
            for h2_row in c2.check_rows for r in range(rho1)]


def qtpc_construct(c1: LinearCode, c2: LinearCode) -> StabilizerCode:
    """[[n1*n2, n1*n2 - 2*rho1*rho2]] stabilizer code of the tensor code.

    The constructor's commutation check decides dual containment of the
    tensor code (ValueError otherwise), and its dimension check that the
    expanded matrix has full rank rho1*rho2 (AssertionError otherwise).
    """
    expanded = tensor_check_matrix(c1, c2)
    n = c1.n * c2.n
    rank = (c1.n - c1.k) * (c2.n - c2.k)
    tensor = LinearCode(c1.field, n, n - rank, tuple(map(tuple, expanded)))
    return hermitian_construct(tensor) if c1.field is GF4 else css_construct(tensor, tensor)


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

    aligned_only restricts window starts to multiples of l1.  One window
    period is scanned: a full window shifted by one row group (l1*n2
    positions) touches the same columns with every row moved down by l1, and
    a window cut short by the end of the stream lies inside the full window
    that starts at size - burst_len.  So the starts up to min(size -
    burst_len, l1*n2 - 1) reach every count, the first worst start included.
    """
    if not 1 <= burst_len <= imap.size:
        raise ValueError(f"burst length {burst_len} outside [1, {imap.size}]")
    last = min(imap.size - burst_len, imap.l1 * imap.n2 - 1)
    cells = [deinterleave(imap, t) for t in range(last + burst_len)]
    worst_cols = 0
    worst_span = 0
    worst_start = 0
    for start in range(0, last + 1, imap.l1 if aligned_only else 1):
        col_rows: dict = {}
        for row, col in cells[start:start + burst_len]:
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
    "tensor_check_matrix", "qtpc_construct",
    "InterleaverMap", "deinterleave",
    "DispersalReport", "dispersal_report",
]
