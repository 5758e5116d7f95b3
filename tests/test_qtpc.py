import hashlib
import json
import sys

import pytest

from burst_oracle import capability
from conftest import burst_length, contains, in_dual, trace_ip
from qbecc.classical import cyclic_from_poly, rs_mds
from qbecc.gf import GF2, GF4, ExtField, Poly
from qbecc.linalg import mat_row_reduce
from qbecc.qtpc import (InterleaverMap, deinterleave, dispersal_report,
                        qtpc_construct, tensor_check_matrix)
from qbecc.stabilizer import F4Vector

W = 2

C1 = cyclic_from_poly(Poly(GF4, (1, 0, 0, W, 0, 0, 1)), 15)  # [15, 9]


def test_tensor_all_ones_outer_row():
    F = ExtField(GF4, C1.n - C1.k)

    class Outer:  # stub outer code with a single all-ones check row
        field = F
        n = 3
        k = 2
        check_rows = ((1, 1, 1),)
    expanded = tensor_check_matrix(C1, Outer)
    rho1 = C1.n - C1.k
    assert len(expanded) == rho1 and len(expanded[0]) == 3 * C1.n
    for r, row in enumerate(expanded):
        for block in range(3):
            assert tuple(row[block * C1.n:(block + 1) * C1.n]) == C1.check_rows[r]


def test_tensor_example_dimensions_and_rank():
    F = ExtField(GF4, 6)
    c2 = rs_mds(6, 2, F)
    expanded = tensor_check_matrix(C1, c2)
    assert len(expanded) == 24 and len(expanded[0]) == 90
    assert len(mat_row_reduce(GF4, expanded)[0]) == 24


def test_tensor_example_rows_pinned():
    # recorded before the extension-field classes merged
    rows = tensor_check_matrix(C1, rs_mds(6, 2, ExtField(GF4, 6)))
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "2c9a38b3018061538d6931b30a779158b37902852fbbd5c439a21970375b6250")


def test_tensor_field_degree_mismatch():
    F = ExtField(GF4, 2)
    c2 = rs_mds(4, 1, F)
    with pytest.raises(ValueError):
        tensor_check_matrix(C1, c2)


def test_tensor_field_base_mismatch():
    with pytest.raises(ValueError):
        tensor_check_matrix(C1, rs_mds(6, 2, ExtField(GF2, 6)))


def test_tensor_gf4_outer_of_binary_inner():
    # GF4 is GF(2^2), the degree-2 extension of a binary inner code with rho1 = 2
    rep = cyclic_from_poly(Poly(GF2, (1, 1, 1)), 3)  # [3, 1]
    expanded = tensor_check_matrix(rep, rs_mds(5, 1, GF4))
    assert len(expanded) == 2 * 2 and len(expanded[0]) == 3 * 5
    assert expanded == tensor_check_matrix(rep, rs_mds(5, 1, ExtField(GF2, 2)))


def test_tensor_gf4_outer_of_gf4_inner_refused():
    # rho1 = 2 = GF4.m, but GF4 extends GF(2), not the inner field GF(4)
    inner = cyclic_from_poly(Poly(GF4, (W, 3, 1)), 3)  # (x + 1)(x + w)
    with pytest.raises(ValueError, match=r"^outer code field must be the "
                                         r"degree-2 extension of GF\(4\)$"):
        tensor_check_matrix(inner, rs_mds(5, 1, GF4))


def test_qtpc_example_params():
    F = ExtField(GF4, 6)
    stab, spec = qtpc_construct(C1, rs_mds(6, 2, F))
    assert spec.params == (90, 42)
    assert stab.params == (90, 42)
    assert spec.rho1 == 6 and spec.rho2 == 4


def test_qtpc_solves_no_nullspace(monkeypatch):
    # the tensor code is its expanded check rows: once the component codes
    # are built, the construction solves for no generator rows
    c2 = rs_mds(6, 2, ExtField(GF4, 6))  # rs_mds's own check rows are a nullspace

    def refused(*args):
        raise AssertionError("mat_nullspace called")
    modules = [m for name, m in sys.modules.items()
               if name.startswith("qbecc") and hasattr(m, "mat_nullspace")]
    assert {"qbecc.linalg", "qbecc.classical"} <= {m.__name__ for m in modules}
    for module in modules:  # every binding of the name, wherever imported
        monkeypatch.setattr(module, "mat_nullspace", refused)
    stab, spec = qtpc_construct(C1, c2)
    assert stab.params == spec.params == (90, 42)
    assert spec.expanded_check == tuple(map(tuple, tensor_check_matrix(C1, c2)))


def test_qtpc_example_burst_capability():
    # the burst analyzer refused this code before (9.98e8 bursts at l = 12)
    stab, _ = qtpc_construct(C1, rs_mds(6, 2, ExtField(GF4, 6)))
    analysis = capability(stab)
    assert (analysis.l, analysis.degenerate) == (3, False)
    e1, e2 = analysis.witness
    assert e1 != e2
    assert burst_length(e1) <= 4 and burst_length(e2) <= 4
    u = e1.packed ^ e2.packed
    assert in_dual(stab, u) and not contains(stab, u)


def test_qtpc_family_formula():
    # [[15 n2, 15 n2 - 24 l2]] for the [15,9] inner code
    F = ExtField(GF4, 6)
    for n2, l2 in [(4, 1), (6, 2)]:
        stab, spec = qtpc_construct(C1, rs_mds(n2, l2, F))
        assert spec.params == (15 * n2, 15 * n2 - 24 * l2)


def test_qtpc_trivial_outer():
    F = ExtField(GF4, 6)
    stab, spec = qtpc_construct(C1, rs_mds(6, 0, F))
    assert spec.params == (90, 90)


def test_qtpc_rejects_non_dual_containing_inner():
    bad = cyclic_from_poly(Poly(GF4, (1, 1)), 3)
    with pytest.raises(ValueError):
        qtpc_construct(bad, rs_mds(4, 1, ExtField(GF4, 1)))


def test_qtpc_rank_deficient_expansion_rejected(monkeypatch):
    # the constructor's dimension check refuses a check matrix of rank
    # below rho1 * rho2
    from qbecc import qtpc

    def deficient(c1, c2):
        rows = tensor_check_matrix(c1, c2)
        rows[1] = list(rows[0])
        return rows
    monkeypatch.setattr(qtpc, "tensor_check_matrix", deficient)
    with pytest.raises(AssertionError):
        qtpc_construct(C1, rs_mds(6, 2, ExtField(GF4, 6)))
    with pytest.raises(AssertionError):
        qtpc_construct(_hamming(), rs_mds(6, 2, ExtField(GF2, 3)))


HAMMING = None


def _hamming():
    global HAMMING
    if HAMMING is None:
        from qbecc.classical import linear_code
        from qbecc.gf import GF2
        HAMMING = linear_code(GF2, [[1, 0, 0, 0, 0, 1, 1],
                                    [0, 1, 0, 0, 1, 0, 1],
                                    [0, 0, 1, 0, 1, 1, 0],
                                    [0, 0, 0, 1, 1, 1, 1]])
    return HAMMING


def test_qtpc_binary_branch():
    ham = _hamming()
    c2 = rs_mds(6, 2, ExtField(GF2, 3))
    stab, spec = qtpc_construct(ham, c2)
    assert spec.params == (42, 18)
    assert stab.params == (42, 18)
    assert len(mat_row_reduce(GF2, spec.expanded_check)[0]) == 12


def test_qtpc_binary_branch_rejects_non_dual_containing():
    from qbecc.classical import cyclic_from_poly as cfp
    from qbecc.gf import GF2 as _g2, Poly as _poly
    rep = cfp(_poly(_g2, (1, 1, 1)), 3)  # [3,1]: dual is bigger
    with pytest.raises(ValueError):
        qtpc_construct(rep, rs_mds(4, 1, ExtField(GF2, 2)))


def test_binary_tensor_all_ones_outer_row():
    ham = _hamming()
    F = ExtField(GF2, 3)

    class Outer:
        field = F
        n = 2
        k = 1
        check_rows = ((1, 1),)
    expanded = tensor_check_matrix(ham, Outer)
    assert len(expanded) == 3 and len(expanded[0]) == 14
    for r, row in enumerate(expanded):
        assert tuple(row[:7]) == ham.check_rows[r]
        assert tuple(row[7:]) == ham.check_rows[r]


def test_qtpc_stabilizer_self_orthogonal():
    # StabilizerCode construction verifies commutation; double-check a sample
    F = ExtField(GF4, 6)
    stab, _ = qtpc_construct(C1, rs_mds(6, 2, F))
    rows = stab.basis[:10]
    for i, u in enumerate(rows):
        for v in rows[i:]:
            assert trace_ip(F4Vector(90, u), F4Vector(90, v)) == 0


# ----------------------------------------------------------------------
# interleaver
# ----------------------------------------------------------------------

def interleave(imap: InterleaverMap, row: int, col: int) -> int:
    """Stream position of array cell (row, col), the map that deinterleave
    inverts: row-groups of l1 rows are sent in order, each group column by
    column."""
    group, offset = divmod(row, imap.l1)
    return group * (imap.l1 * imap.n2) + col * imap.l1 + offset


def test_interleave_formula_cells():
    imap = InterleaverMap(4, 3, 2)
    assert interleave(imap, 0, 0) == 0
    assert interleave(imap, 1, 0) == 1
    assert interleave(imap, 0, 1) == 2


def test_interleave_bijection_12_cells():
    imap = InterleaverMap(4, 3, 2)
    seen = set()
    for row in range(4):
        for col in range(3):
            t = interleave(imap, row, col)
            assert deinterleave(imap, t) == (row, col)
            seen.add(t)
    assert seen == set(range(12))


def test_interleave_bijection_example_scale():
    imap = InterleaverMap(15, 6, 3)
    assert all(deinterleave(imap, interleave(imap, r, c)) == (r, c)
               for r in range(15) for c in range(6))


def test_interleave_requires_divisor():
    with pytest.raises(ValueError):
        InterleaverMap(15, 6, 4)


def test_dispersal_single_position():
    imap = InterleaverMap(15, 6, 3)
    rep = dispersal_report(imap, 1)
    assert rep.max_affected_subblocks == 1
    assert rep.max_inner_burst == 1


def test_dispersal_aligned_full_burst():
    # aligned stream bursts of l1*l2 land in at most l2 columns with inner
    # span at most l1
    imap = InterleaverMap(15, 6, 3)
    rep = dispersal_report(imap, 6, aligned_only=True)
    assert rep.max_affected_subblocks <= 2
    assert rep.max_inner_burst <= 3


def test_dispersal_unaligned_shorter_burst():
    # L = l1*(l2-1)+1 stays within l2 columns at any offset
    imap = InterleaverMap(15, 6, 3)
    rep = dispersal_report(imap, 4)
    assert rep.max_affected_subblocks <= 2
    assert rep.max_inner_burst <= 3


def test_dispersal_unaligned_full_burst_measured():
    # the unaligned worst case of a full l1*l2 burst is measured, not assumed:
    # it can touch l2+1 columns
    imap = InterleaverMap(15, 6, 3)
    rep = dispersal_report(imap, 6)
    assert rep.max_affected_subblocks == 3
    assert rep.max_inner_burst <= 3


def affected_columns(imap, start, burst_len):
    """Oracle: column indices touched by one stream window, in stream order."""
    cols = []
    for t in range(start, min(start + burst_len, imap.size)):
        _, col = deinterleave(imap, t)
        if col not in cols:
            cols.append(col)
    return cols


def test_affected_columns_cyclically_consecutive():
    imap = InterleaverMap(15, 6, 3)
    n2 = imap.n2
    for start in range(imap.size):
        cols = affected_columns(imap, start, 6)
        if len(cols) <= 1:
            continue
        ordered = sorted(cols)
        gaps = [(ordered[(i + 1) % len(ordered)] - ordered[i]) % n2
                for i in range(len(ordered))]
        # consecutive mod n2: exactly one gap bigger than 1
        assert sum(1 for g in gaps if g != 1) == 1
