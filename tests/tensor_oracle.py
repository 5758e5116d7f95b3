"""Test oracles for the tensor-product code and the interleaver.

expanded_by_mult_matrix builds the tensor check matrix H2 (x) H1 from its
definition: each outer entry e expanded into its multiplication matrix M_e
over the base field, and the block M_e * H1 formed by matrix products.
qbecc.qtpc forms each block column as the digits of one extension-field
product instead.

dispersal_all_starts measures every window start, cell by cell, where
qbecc.qtpc scans one interleaver period.
"""

from qbecc.qtpc import DispersalReport, deinterleave


def mult_matrix(field, e):
    """m x m base-field matrix of y -> e*y in the power basis (column j = e*x^j)."""
    cols = [field.digits(field.mul(e, field.from_digits([0] * j + [1])))
            for j in range(field.m)]
    return [[cols[j][i] for j in range(field.m)] for i in range(field.m)]


def mat_mul_vec(field, rows, vec):
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc ^= field.mul(a, b)
        out.append(acc)
    return out


def expanded_by_mult_matrix(c1, c2):
    """The (rho1*rho2) x (n1*n2) expanded check matrix, row r of the block
    of e being row r of M_e times the columns of H1."""
    base, field2 = c1.field, c2.field
    rho1 = c1.n - c1.k
    columns = list(zip(*c1.check_rows))
    blocks = {e: [mat_mul_vec(base, columns, m_row) for m_row in mult_matrix(field2, e)]
              for e in {x for row in c2.check_rows for x in row}}
    return [[x for e in h2_row for x in blocks[e][r]]
            for h2_row in c2.check_rows for r in range(rho1)]


def dispersal_all_starts(imap, burst_len, aligned_only=False):
    """dispersal_report by walking every window start (every multiple of l1
    when aligned_only), each window cut at the end of the stream."""
    cells = [deinterleave(imap, t) for t in range(imap.size)]
    worst_cols = 0
    worst_span = 0
    worst_start = 0
    for start in range(imap.size):
        if aligned_only and start % imap.l1 != 0:
            continue
        col_rows = {}
        for t in range(start, min(start + burst_len, imap.size)):
            row, col = cells[t]
            lo, hi = col_rows.get(col, (row, row))
            col_rows[col] = (min(lo, row), max(hi, row))
        n_cols = len(col_rows)
        span = max(hi - lo + 1 for lo, hi in col_rows.values())
        if n_cols > worst_cols:
            worst_cols, worst_start = n_cols, start
        worst_span = max(worst_span, span)
    return DispersalReport(burst_len, worst_cols, worst_span, worst_start, aligned_only)
