import json
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import (burst_length, contains, from_symbols, in_dual, interleave_halves,
                      random_css_code, random_self_orthogonal_code, symbols_of, syndrome)
from qbecc.burst import (burst_count, check_qrb, no_cloning_check, qrb,
                         quantum_burst_capability)
from qbecc.burst import _check_level_rank, _rank_unions, _window_pairs
from burst_oracle import (capability, check_level, check_level_hash, check_level_oracle,
                          enumerate_bursts, is_cyclic, label_columns, level_syndromes,
                          located_burst_check, oracle_capability)
from label_oracle import label_table
from qbecc.classical import InvalidGeneratorError, cyclic_from_poly, remainder_walk
from qbecc.gf import GF2, GF4, Poly, xn_minus_1
from qbecc.linalg import gf2_rank
from qbecc.registry import load_registry
from qbecc.search import (_candidates, _construct, build_code, build_registry_code, code_labels,
                          format_genpoly)
from qbecc.stabilizer import (F4Vector, ResourceLimitError, StabilizerCode,
                              css_construct, hermitian_construct)

W = 2

FIVE_QUBIT = StabilizerCode(5, [
    from_symbols(s).packed for s in
    [(1, 2, 2, 1, 0), (0, 1, 2, 2, 1), (1, 0, 1, 2, 2), (2, 1, 0, 1, 2)]])


def _build_13_1() -> StabilizerCode:
    from qbecc.stabilizer import hermitian_construct
    return hermitian_construct(cyclic_from_poly(Poly(GF4, (1, W, 0, 3, 0, W, 1)), 13))


def _analysis(construction, n, genpolys):
    """The CLI's analysis: label columns straight from the generator texts."""
    return quantum_burst_capability(n, *code_labels(construction, n, genpolys))


def test_qrb_examples():
    assert qrb(13, 1) == 3
    assert qrb(35, 19) == 4
    assert qrb(5, 1) == 1


def test_no_cloning_examples():
    assert no_cloning_check(13, 3)
    assert not no_cloning_check(12, 3)
    assert no_cloning_check(1, 0)


def test_enumerate_counts():
    assert sum(1 for v in enumerate_bursts(3, 1) if v.packed) == 9
    assert sum(1 for v in enumerate_bursts(3, 2) if v.packed) == 27
    assert list(enumerate_bursts(4, 0)) == [F4Vector(4, 0)]
    for n, l in [(3, 2), (5, 3), (6, 6)]:
        assert burst_count(n, l) == sum(1 for _ in enumerate_bursts(n, l))


def test_enumerate_exhaustive_and_unique():
    # independently scan all 4^n vectors and classify by burst length
    n, l = 4, 2
    expected = {0}
    for packed in range(1, 4 ** n):
        if burst_length(F4Vector(n, packed)) <= l:
            expected.add(packed)
    got = [v.packed for v in enumerate_bursts(n, l)]
    assert len(got) == len(set(got))
    assert set(got) == expected


def test_enumerate_zero_first():
    assert next(iter(enumerate_bursts(7, 3))).packed == 0


def test_numpy_syndromes_match_iterator_order():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randrange(2, 8)
        code = random_self_orthogonal_code(rng, n, rng.randrange(1, n))
        l = rng.randrange(0, n + 1)
        syns = level_syndromes(n, l, label_table(code).syndrome[:, :, 0])
        expected = [syndrome(code, v.packed) for v in enumerate_bursts(n, l)]
        assert expected == syns.tolist()


def test_five_qubit_capability():
    for analysis in (capability(FIVE_QUBIT), oracle_capability(FIVE_QUBIT)):
        assert analysis.l == 1
        assert not analysis.degenerate
        assert analysis.saturates
        assert check_qrb(analysis)


def test_13_1_capability():
    analysis = capability(_build_13_1())
    assert (analysis.l, analysis.degenerate) == (3, False)
    assert analysis.witness is None  # saturating, nothing failed above


def test_witness_validity():
    # [[21,9]] does not saturate: witness pair must break the criterion at l+1
    from qbecc.stabilizer import css_construct
    from qbecc.gf import GF2
    g1 = Poly(GF2, (1, 1, 0, 0, 1, 0, 1))
    g2 = Poly(GF2, (1, 1, 1, 0, 1, 0, 1))
    code = css_construct(cyclic_from_poly(g1, 21), cyclic_from_poly(g2, 21))
    analysis = capability(code)
    assert analysis.l == 2 and qrb(21, 9) == 3
    e1, e2 = analysis.witness
    assert burst_length(e1) <= analysis.l + 1
    assert burst_length(e2) <= analysis.l + 1
    assert e1 != e2
    u = e1.packed ^ e2.packed
    assert in_dual(code, u) and not contains(code, u)


def test_oracle_equivalence_random_codes():
    rng = random.Random(2024)
    agree = 0
    for _ in range(60):
        n = rng.randrange(2, 9)
        code = random_self_orthogonal_code(rng, n, rng.randrange(1, min(n + 1, 8)))
        fast = capability(code)
        slow = oracle_capability(code)
        assert (fast.l, fast.degenerate) == (slow.l, slow.degenerate)
        agree += 1
    assert agree == 60


def test_monotonicity_of_levels():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randrange(3, 8)
        code = random_self_orthogonal_code(rng, n, rng.randrange(1, n))
        analysis = capability(code)
        passing = [check_level(code, l)[0] for l in range(n + 1)]
        # every level up to the capability passes, and once a level fails
        # every longer one does
        assert all(passing[:analysis.l + 1])
        assert passing == sorted(passing, reverse=True)
        if analysis.l < qrb(code.n, code.k):
            assert not passing[analysis.l + 1]


def test_bounds_always_hold_on_random_codes():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(2, 9)
        code = random_self_orthogonal_code(rng, n, rng.randrange(0, n))
        analysis = capability(code)
        assert analysis.l <= qrb(code.n, code.k)
        if code.k >= 1:
            assert no_cloning_check(code.n, analysis.l)


def test_located_burst_check_trivial_span():
    assert located_burst_check(FIVE_QUBIT, 2, 0)


def test_located_burst_check_five_qubit():
    # spans up to 2*l = 2 pass everywhere; span 4 must fail
    for start in range(4):
        assert located_burst_check(FIVE_QUBIT, start, 2)
    assert not located_burst_check(FIVE_QUBIT, 0, 4)
    # oracle for the failing window: some pair supported inside breaks it
    found = False
    for u in range(1, 4 ** 4):
        if in_dual(FIVE_QUBIT, u) and not contains(FIVE_QUBIT, u):
            found = True
            break
    assert found


def test_located_burst_check_matches_pair_oracle():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randrange(2, 7)
        code = random_self_orthogonal_code(rng, n, rng.randrange(1, n))
        span = rng.randrange(0, n + 1)
        start = rng.randrange(0, n - span + 1)
        subspace_ans = located_burst_check(code, start, span)
        # direct oracle: every nonzero vector on the window not in dual\C
        direct = True
        for packed_win in range(1, 4 ** span):
            packed = 0
            for t in range(span):
                packed |= ((packed_win >> (2 * t)) & 3) << (2 * (start + t))
            if in_dual(code, packed) and not contains(code, packed):
                direct = False
                break
        assert subspace_ans == direct


def test_located_burst_13_1_double_span_windows():
    code = _build_13_1()
    analysis = capability(code)
    span = 2 * analysis.l
    for start in range(code.n - span + 1):
        assert located_burst_check(code, start, span)


# ----------------------------------------------------------------------
# Level checks against the slow paths
# ----------------------------------------------------------------------

def _assert_valid_witness(code, l, witness):
    e1, e2 = witness
    assert e1 != e2
    assert burst_length(e1) <= l and burst_length(e2) <= l
    u = e1.packed ^ e2.packed
    assert in_dual(code, u) and not contains(code, u)


def _compare_with_oracle(code, l, checks=(check_level, check_level_hash)):
    """Level checks (by default window-rank and syndrome-hash) against the
    all-pairs oracle."""
    slow_ok, slow_degenerate, _, _ = check_level_oracle(code, l)
    for check in checks:
        ok, degenerate, witness, pairs = check(code, l)
        assert ok == slow_ok
        if ok:
            # with no failure every engine has seen every collision
            assert degenerate == slow_degenerate
            assert witness is None
        else:
            _assert_valid_witness(code, l, witness)
            assert pairs >= 1


def test_level_check_matches_oracle_small_codes():
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randrange(2, 10)
        code = random_self_orthogonal_code(rng, n, rng.randrange(0, n))
        for l in range(0, n + 1):
            if burst_count(n, l) > 1500:
                break
            _compare_with_oracle(code, l)


def _two_window_cover(n):
    """Per support mask on n positions, the least l such that two windows
    of length l cover it (0 for the empty mask)."""
    cover = []
    for mask in range(1 << n):
        pos = [i for i in range(n) if (mask >> i) & 1]
        spans = [max(pos[j - 1] - pos[0] + 1 if j else 0,
                     pos[-1] - pos[j] + 1 if j < len(pos) else 0)
                 for j in range(len(pos) + 1)]
        cover.append(min(spans))
    return np.array(cover)


def _dual_oracle(code, cover):
    """(ok, degenerate) of every level 0..n from the elements of the dual:
    a level fails iff some element outside C fits in two of its windows,
    and is degenerate iff some nonzero element of C does."""
    n, r = code.n, code.r
    elems = np.zeros(1, dtype=np.int64)
    for v in code.dual_basis():
        elems = np.concatenate((elems, elems ^ v))
    support = sum(((elems >> 2 * i | elems >> 2 * i + 1) & 1) << i for i in range(n))
    fits = cover[support]
    index = np.arange(elems.size)
    logical = fits[index >> r != 0]
    stabilizer = fits[(index >> r == 0) & (index != 0)]
    return [(not (logical <= l).any(), bool((stabilizer <= l).any()))
            for l in range(n + 1)]


def _union_count(n, l, cyclic=False):
    """Window unions ranked by a passing level: pairs s1 <= n-2l, s2 in
    [s1+l, n-l], or for a shift-invariant code s1 = 0, s2 in [l, n//2], or
    the whole code once the windows must overlap."""
    if l == 0:
        return 0
    if 2 * l > n:
        return 1
    if cyclic:
        return n // 2 - l + 1
    return (n - 2 * l + 1) * (n - 2 * l + 2) // 2


def _rotate(n, row):
    """Packed row with symbol i moved to position i+1 mod n, through the
    GF(4) symbols."""
    symbols = symbols_of(F4Vector(n, row))
    return from_symbols(symbols[-1:] + symbols[:-1]).packed


def _shift_invariant(code):
    """The rotated stabilizer rows add nothing to its rank."""
    rotated = [_rotate(code.n, row) for row in code.basis]
    return gf2_rank(list(code.basis) + rotated) == code.r


def test_rank_check_matches_dual_oracle_every_level():
    # every level 0..n, so also l > n/2 where the two windows overlap; the
    # all-pairs oracle joins in wherever its pair count stays small
    rng = random.Random(515)
    covers = {n: _two_window_cover(n) for n in range(2, 10)}
    checked = overlapping = 0
    for _ in range(220):
        n = rng.randrange(2, 10)
        code = random_self_orthogonal_code(rng, n, rng.randrange(0, n + 1))
        expected = _dual_oracle(code, covers[n])
        cyclic = _shift_invariant(code)
        for l in range(n + 1):
            ok, degenerate, witness, unions = check_level(code, l)
            assert ok == expected[l][0], (n, l)
            if ok:
                assert degenerate == expected[l][1], (n, l)
                assert unions == _union_count(n, l, cyclic)
            else:
                _assert_valid_witness(code, l, witness)
            if burst_count(n, l) <= 300:
                _compare_with_oracle(code, l)
            checked += 1
            overlapping += 2 * l > n
    assert checked >= 1000 and overlapping >= 400


def test_checked_pairs_closed_form_41_1():
    # 41_1 saturates its ceiling, so the walk ranks one level, which passes
    entry = {e.id: e for e in load_registry()}["41_1"]
    analysis = _analysis(entry.construction, entry.n, entry.genpolys)
    assert (analysis.l, analysis.degenerate, analysis.witness) == (10, True, None)
    assert analysis.checked_pairs == _union_count(41, 10, cyclic=True) == 11


# ----------------------------------------------------------------------
# Shift-invariant codes rank only the unions from position 0
# ----------------------------------------------------------------------

def _all_window_check(code, l):
    """(ok, degenerate) of level l over every window union: the path of a
    code that is not shift-invariant."""
    failure, _, degenerate, _ = _rank_unions(
        label_columns(code), 2, l, 2 * code.k, _window_pairs(code.n, l), 2 * code.n)
    return failure is None, degenerate


def _random_cyclic_codes(rng, per_construction):
    """Random Hermitian and CSS search candidates of every odd n <= 21."""
    for n in range(3, 22, 2):
        for construction in ("hermitian", "css"):
            candidates = [gens for gens, _, _ in _candidates(n, construction)]
            for gens in rng.sample(candidates, min(per_construction, len(candidates))):
                yield _construct(construction, [cyclic_from_poly(g, n) for g in gens])


def _swap_positions(n, row, i, j):
    """Packed row with positions i and j exchanged."""
    for p, q in ((2 * i, 2 * j), (2 * i + 1, 2 * j + 1)):
        if ((row >> p) ^ (row >> q)) & 1:
            row ^= (1 << p) | (1 << q)
    return row


def test_shift_path_matches_all_windows_on_cyclic_codes():
    rng = random.Random(1111)
    covers = {n: _two_window_cover(n) for n in (3, 5, 7, 9)}
    codes = levels = overlapping = failing = 0
    for code in _random_cyclic_codes(rng, 4):
        n = code.n
        assert is_cyclic(code) and _shift_invariant(code)
        expected = _dual_oracle(code, covers[n]) if n < 10 else None
        columns = label_columns(code)
        for l in range(n + 1):
            ok, degenerate, witness, unions = check_level(code, l)
            all_ok, all_degenerate = _all_window_check(code, l)
            assert ok == all_ok, (n, l)
            if expected:
                assert ok == expected[l][0], (n, l)
            if ok:
                assert degenerate == all_degenerate, (n, l)
                assert not expected or degenerate == expected[l][1], (n, l)
                assert unions == _union_count(n, l, cyclic=True), (n, l)
            else:
                _assert_valid_witness(code, l, witness)
                failing += 1
            if 1 <= l <= n // 2:
                # every end-around union is a shift of one from position 0,
                # so wrapped windows add no failing union
                failure, _, end_degenerate, _ = _rank_unions(
                    columns * 2, 2, l, 2 * code.k, _window_pairs(n, l, end_around=True), 2 * n)
                assert (failure is None) == ok, (n, l)
                assert not ok or end_degenerate == degenerate, (n, l)
            levels += 1
            overlapping += 2 * l > n
        codes += 1
    assert (codes, levels, overlapping, failing) == (65, 874, 437, 638)


def test_is_cyclic_matches_rotation_oracle_and_is_cached():
    rng = random.Random(3333)
    codes = [random_self_orthogonal_code(rng, n, rng.randrange(0, n + 1))
             for n in rng.choices(range(1, 12), k=150)]
    codes += list(_random_cyclic_codes(rng, 1))
    codes += [build_registry_code(entry) for entry in load_registry()]
    seen = set()
    for code in codes:
        cyclic = is_cyclic(code)
        assert cyclic == _shift_invariant(code), (code.n, code.basis)
        seen.add(cyclic)
        # tested once: a second call does not look at the stabilizer again
        code.basis = None
        assert is_cyclic(code) is cyclic
    assert seen == {False, True}


def test_swapped_positions_take_the_all_window_path():
    rng = random.Random(2222)
    swapped_codes = 0
    for code in _random_cyclic_codes(rng, 6):
        n = code.n
        i, j = rng.sample(range(n), 2)
        swapped = StabilizerCode(n, [_swap_positions(n, row, i, j) for row in code.basis])
        assert is_cyclic(swapped) == _shift_invariant(swapped)
        if is_cyclic(swapped):
            continue  # codes fixed by every permutation, such as r = 0
        for l in range(n + 1):
            ok, degenerate, witness, unions = check_level(swapped, l)
            all_ok, all_degenerate = _all_window_check(swapped, l)
            assert ok == all_ok, (n, l)
            if ok:
                assert degenerate == all_degenerate, (n, l)
                assert unions == _union_count(n, l), (n, l)
            else:
                _assert_valid_witness(swapped, l, witness)
        swapped_codes += 1
    assert swapped_codes == 49


def test_level_check_matches_oracle_multiword_labels():
    # 2k > 64: the logical label bits span two or more uint64 words
    rng = random.Random(7070)
    seen_ok = seen_degenerate = seen_fail = 0
    for n, rx, rz in [(70, 2, 2), (64, 14, 14), (66, 12, 12), (72, 13, 13)]:
        for short in (False, True):
            code = random_css_code(rng, n, rx, rz, short)
            assert 2 * code.k > 64
            _compare_with_oracle(code, 1)
            ok, degenerate, _, _ = check_level_hash(code, 1)
            seen_ok += ok
            seen_degenerate += degenerate
            seen_fail += not ok
            fast = capability(code)
            for l in range(fast.l + 2):
                hash_ok, hash_degenerate, _, _ = check_level_hash(code, l)
                rank_ok, rank_degenerate, _, _ = check_level(code, l)
                assert rank_ok == hash_ok and (not rank_ok or rank_degenerate == hash_degenerate)
    assert seen_ok and seen_degenerate and seen_fail


def test_level_check_refuses_wide_syndromes():
    rng = random.Random(65)
    code = random_css_code(rng, 80, 33, 33, False)
    assert code.r > 64
    with pytest.raises(ResourceLimitError):
        check_level_hash(code, 1)


def test_wide_syndromes_analyzed():
    # the code the syndrome-hash check refuses above, now analyzed
    rng = random.Random(65)
    code = random_css_code(rng, 80, 33, 33, False)
    analysis = capability(code)
    assert (code.r, analysis.l, analysis.degenerate) == (66, 12, False)
    _compare_with_oracle(code, 1, checks=(check_level,))
    _assert_valid_witness(code, 13, analysis.witness)
    # a saturating [[71,1]] CSS code from the binary quadratic-residue code
    qr = "1^35 1^34 1^31 1^30 1^28 1^27 1^22 1^18 1^11 1^10 1^9 1^8 1^7 1^2 1^0"
    code = build_code("css", 71, (qr, qr))
    analysis = _analysis("css", 71, (qr, qr))
    assert (code.r, analysis.l, analysis.degenerate, analysis.witness) == (70, 17, False, None)


# Recorded with the per-pair collision walk of the syndrome-hash engine:
# (l, degenerate, checked_pairs, witness) for every search code of odd
# length 3..21, every registry row with n < 41, and every level up to
# 60000 bursts of 43 random codes (13 of them with 2k > 64).  The
# window-rank engine must agree on (l, degenerate) and give a valid
# witness; its checked_pairs count window unions instead.
PINS = json.loads((Path(__file__).parent / "data" / "burst_pins.json").read_text())


def _poly(text, field):
    coeffs = {}
    for token in text.split():
        c, e = token.split("^")
        coeffs[int(e)] = int(c)
    return Poly(field, [coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


def _witness_ints(witness):
    return None if witness is None else [witness[0].packed, witness[1].packed]


def _assert_matches_pin(code, analysis, want, at):
    l, degenerate, _, witness = want
    assert (analysis.l, analysis.degenerate) == (l, degenerate), at
    assert (analysis.witness is None) == (witness is None), at
    if witness is not None:
        _assert_valid_witness(code, l + 1, analysis.witness)


def test_pinned_search_codes():
    # the search's own label columns, keyed by the texts its records print
    # (a generator x^n - 1 prints an exponent that analyze's parser refuses)
    assert len(PINS["search"]) == 636
    searched = {}
    for n, construction, g1, g2, *want in PINS["search"]:
        if (n, construction) not in searched:
            searched[n, construction] = {
                (*map(format_genpoly, gens), "")[:2]: labels
                for gens, *labels in _candidates(n, construction)}
        if construction == "hermitian":
            code = hermitian_construct(cyclic_from_poly(_poly(g1, GF4), n))
        else:
            code = css_construct(cyclic_from_poly(_poly(g1, GF2), n),
                                 cyclic_from_poly(_poly(g2, GF2), n))
        analysis = quantum_burst_capability(n, *searched[n, construction][g1, g2])
        _assert_matches_pin(code, analysis, want, (n, g1, g2))


def test_pinned_registry_rows():
    entries = {e.id: e for e in load_registry()}
    assert len(PINS["registry"]) == 14
    for entry_id, *want in PINS["registry"]:
        entry = entries[entry_id]
        _assert_matches_pin(build_registry_code(entry),
                            _analysis(entry.construction, entry.n, entry.genpolys), want, entry_id)


def test_registry_witness_sums_go_straight_to_the_code():
    # witnesses and stabilizer rows share one packing: no conversion between
    witnesses = 0
    for entry in load_registry():
        code = build_registry_code(entry)
        analysis = _analysis(entry.construction, entry.n, entry.genpolys)
        if analysis.witness is None:
            assert analysis.saturates, entry.id
            continue
        e1, e2 = analysis.witness
        u = e1.packed ^ e2.packed
        assert in_dual(code, u) and not contains(code, u), entry.id
        witnesses += 1
    assert witnesses == 3


def test_pinned_random_levels():
    for case in PINS["random"]:
        # rows recorded as split halves: X bits, then Z bits
        code = StabilizerCode(case["n"], [interleave_halves(int(row, 16), case["n"])
                                          for row in case["rows"]])
        assert code.k == case["k"]
        for l, *want in case["levels"]:
            ok, degenerate, witness, pairs = check_level_hash(code, l)
            assert [ok, degenerate, pairs, _witness_ints(witness)] == want, (case["n"], l)
            rank_ok, rank_degenerate, _, _ = check_level(code, l)
            assert rank_ok == ok and (not ok or rank_degenerate == degenerate), (case["n"], l)


# ----------------------------------------------------------------------
# Label columns straight from the generators
# ----------------------------------------------------------------------

def _search_candidates(lengths):
    """(n, construction, generators, k, columns) of every search candidate."""
    for n in lengths:
        for construction in ("hermitian", "css"):
            for gens, k, columns in _candidates(n, construction):
                yield n, construction, gens, k, columns


def _label(columns, n, packed):
    """The label of a packed Pauli: the sum of the columns of its bits."""
    total = 0
    for j in range(2 * n):
        if packed >> j & 1:
            total ^= columns[j]
    assert total & ((1 << 2 * n) - 1) == packed  # the tracking bits
    return total >> 2 * n


def test_generator_labels_match_the_matrix_labels_odd_n_up_to_35():
    # the analysis from the generators' columns against the one from
    # label_ints, on the same shift path, for every candidate
    candidates = failing = 0
    for n, construction, gens, k, columns in _search_candidates(range(1, 36, 2)):
        code = _construct(construction, [cyclic_from_poly(g, n) for g in gens])
        assert k == code.k, (n, gens)
        fast = quantum_burst_capability(n, k, columns)
        slow = quantum_burst_capability(n, code.k, label_columns(code))
        at = (n, construction, gens)
        assert (fast.k, fast.l, fast.degenerate, fast.checked_pairs) == \
            (slow.k, slow.l, slow.degenerate, slow.checked_pairs), at
        assert (fast.witness is None) == (slow.witness is None), at
        if fast.witness is not None:
            _assert_valid_witness(code, fast.l + 1, fast.witness)
            failing += 1
        candidates += 1
    assert candidates == 2437 and failing > 500


def test_generator_label_kernel_is_the_stabilizer():
    # stabilizer rows have label 0; the logical representatives have labels
    # with no syndrome bit, independent, so the kernel is exactly C
    cases = [(n, construction, [cyclic_from_poly(g, n) for g in gens], k, columns)
             for n, construction, gens, k, columns in _search_candidates(range(1, 24, 2))]
    for entry in load_registry():
        fields = (GF4,) if entry.construction == "hermitian" else (GF2, GF2)
        cases.append((entry.n, entry.construction,
                      [cyclic_from_poly(_poly(text, field), entry.n)
                       for text, field in zip(entry.genpolys, fields)],
                      *code_labels(entry.construction, entry.n, entry.genpolys)))
    for n, construction, linear_codes, k, columns in cases:
        code = _construct(construction, linear_codes)
        at = (n, construction, [c.k for c in linear_codes])
        assert all(_label(columns, n, row) == 0 for row in code.basis), at
        logical = [_label(columns, n, v) for v in code.dual_basis()[code.r:]]
        assert all(label and not label >> 2 * k for label in logical), at
        assert gf2_rank(logical) == 2 * k, at
    assert len(cases) == 657 + 15


def test_remainder_walk_returns_iff_the_generator_divides():
    # every monic polynomial of degree <= 4 over GF(4) and <= 8 over GF(2):
    # the walk's remainders are the powers of x mod g, and it refuses with
    # cyclic_from_poly's message exactly when g does not divide x^n - 1
    walked = refused = 0
    for field, bits, top in ((GF4, 2, 4), (GF2, 1, 8)):
        for degree in range(top + 1):
            for body in range(1 << bits * degree):
                g = Poly(field, [body >> bits * i & (1 << bits) - 1 for i in range(degree)] + [1])
                for n in (1, 3, 5, 7, 9, 15):
                    divides = (xn_minus_1(n, field) % g).is_zero
                    try:
                        _, remainders, _ = remainder_walk(g, n)
                    except InvalidGeneratorError as exc:
                        assert not divides and str(exc) == \
                            f"{g!r} does not divide x^{n} - 1 over {field!r}", (n, g)
                        refused += 1
                        continue
                    assert divides, (n, g)
                    powers = [Poly(field, [0] * i + [1]) % g for i in range(n)]
                    assert remainders == [r.packed for r in powers], (n, g)
                    walked += 1
    assert walked > 100 and refused > 3000


def test_passing_cyclic_levels_rank_n_over_2_minus_l_plus_1_unions():
    levels = 0
    for n, _, gens, k, columns in _search_candidates(range(1, 24, 2)):
        for l in range(1, n // 2 + 1):
            ok, _, witness, unions = _check_level_rank(n, k, columns, l, True)
            if ok:
                assert unions == n // 2 - l + 1, (n, gens, l)
                levels += 1
            else:
                assert 1 <= unions <= n // 2 - l + 1 and witness is not None, (n, gens, l)
    assert levels > 1000
