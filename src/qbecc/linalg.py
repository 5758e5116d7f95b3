"""Linear algebra over small finite fields.

Two engines live here.  GF(2) rows are packed into Python ints (bit i of a
row int is column i), which keeps row operations at word speed for the
syndrome-heavy stabilizer paths.  Everything else (GF(4), extension fields)
uses plain lists of field-element ints with a field object supplying
mul/inv (addition is XOR in characteristic 2); those matrices are small
and cold.  A GF(2) or GF(4) list
row packs into one int of two-bit symbols (_packed_row), the layout of
stabilizer rows.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


# ----------------------------------------------------------------------
# Packed GF(2) rows (ints)
# ----------------------------------------------------------------------

def gf2_row_reduce(rows: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Reduce packed GF(2) rows to reduced row-echelon form.

    Returns (reduced_rows, pivots) with zero rows dropped; pivots[i] is the
    lowest set bit of reduced_rows[i], strictly increasing.
    """
    reduced: List[int] = []
    pivots: List[int] = []
    for row in rows:
        for r, p in zip(reduced, pivots):
            if (row >> p) & 1:
                row ^= r
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        for i, r in enumerate(reduced):
            if (r >> p) & 1:
                reduced[i] = r ^ row
        reduced.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [reduced[i] for i in order], [pivots[i] for i in order]


def gf2_rank(rows: Sequence[int]) -> int:
    return len(gf2_row_reduce(rows)[0])


# a GF(4) symbol as a byte -> a base-4 digit: itself, its conjugate, and
# w times its conjugate
_SYMBOL, _CONJ, _W_CONJ = (bytes.maketrans(bytes(range(4)), digits)
                           for digits in (b"0123", b"0132", b"0213"))


def _packed_row(row: Sequence[int], table: bytes) -> int:
    """The packed int of a GF(2) or GF(4) row with each symbol mapped by
    table, symbol i at bits 2i and 2i+1: read from its last symbol, the row
    spells the int in base 4."""
    return int(bytes(reversed(row)).translate(table), 4)


# ----------------------------------------------------------------------
# Generic dense matrices: rows are lists of field-element ints
# ----------------------------------------------------------------------

def mat_row_reduce(field, rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Reduced row-echelon form over an arbitrary field object."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    reduced: List[List[int]] = []
    pivots: List[int] = []
    col = 0
    while work and col < ncols:
        pivot_row = None
        for i, r in enumerate(work):
            if r[col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        row = work.pop(pivot_row)
        inv = field.inv(row[col])
        row = [field.mul(inv, x) for x in row]
        for target in work + reduced:
            c = target[col]
            if c != 0:
                for j in range(ncols):
                    target[j] ^= field.mul(c, row[j])
        reduced.append(row)
        pivots.append(col)
        col += 1
    return reduced, pivots


__all__ = [
    "gf2_row_reduce", "gf2_rank",
    "mat_row_reduce",
]
