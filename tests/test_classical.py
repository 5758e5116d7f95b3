import itertools
import random

import pytest

from cyclic_oracle import cyclic_from_poly_matrix, linear_code, mat_nullspace, rs_mds_matrix
from qbecc.burst import classical_burst_capability
from qbecc.classical import (InvalidGeneratorError, binary_dual_containing,
                             cyclic_from_poly, hermitian_dual_containing, rs_mds)
from qbecc.gf import GF2, GF4, ExtField, Poly
from qbecc.linalg import mat_row_reduce
from qbecc.search import enumerate_cyclic_generators

W = 2

G_15_9 = Poly(GF4, (1, 0, 0, W, 0, 0, 1))  # x^6 + w x^3 + 1


def codewords(code):
    """Oracle: every codeword of a small code, spanned by the nullspace of
    its check rows."""
    field = code.field
    gens = mat_nullspace(field, code.check_rows, code.n)
    assert len(gens) == code.k
    for coeffs in itertools.product(field.elements(), repeat=code.k):
        word = [0] * code.n
        for c, row in zip(coeffs, gens):
            if c:
                for j, g in enumerate(row):
                    if g:
                        word[j] ^= field.mul(c, g)
        yield tuple(word)


def test_cyclic_15_9():
    code = cyclic_from_poly(G_15_9, 15)
    assert (code.n, code.k) == (15, 9)


def test_cyclic_unit_generator_full_space():
    code = cyclic_from_poly(Poly.one(GF2), 7)
    assert (code.n, code.k) == (7, 7)
    assert code.check_rows == ()


def test_cyclic_single_parity():
    code = cyclic_from_poly(Poly(GF2, (1, 1)), 3)
    assert (code.n, code.k) == (3, 2)


def test_cyclic_invalid_generator():
    with pytest.raises(InvalidGeneratorError):
        cyclic_from_poly(Poly(GF2, (1, 0, 1, 1)), 5)  # x^3+x^2+1 does not divide x^5-1


def test_direct_build_matches_matrix_oracle():
    # every divisor of x^n - 1 over GF(2) and GF(4), odd n <= 31: the
    # systematic rows are the reduced generator rows and the nullspace basis
    # of the matrix path, entry for entry, so both row spaces are equal
    count = 0
    for n in range(1, 32, 2):
        for field in (GF2, GF4):
            for g in enumerate_cyclic_generators(n, field):
                direct = cyclic_from_poly(g, n)
                assert direct == cyclic_from_poly_matrix(g, n), (n, g)
                count += 1
    assert count == 1748


def test_direct_build_rejects_what_the_oracle_rejects():
    # random polynomials, most of them not divisors, and even lengths too
    rng = random.Random(31)
    rejected = 0
    for _ in range(2000):
        field = rng.choice((GF2, GF4))
        n = rng.randrange(1, 24)
        coeffs = [rng.randrange(field.order) for _ in range(rng.randrange(0, n + 3))]
        g = Poly(field, coeffs + [rng.randrange(1, field.order)])
        outcomes = []
        for build in (cyclic_from_poly, cyclic_from_poly_matrix):
            try:
                outcomes.append(build(g, n))
            except InvalidGeneratorError:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1], (n, g)
        rejected += outcomes[0] is None
    assert 1000 < rejected < 2000


def test_check_rows_annihilate_every_shift_of_the_generator():
    # every divisor g of x^n - 1, odd n <= 21: each x^i g (i < k) is a
    # codeword, and the n - k check rows are independent, so they check
    # exactly the code <g>
    count = 0
    for n in range(1, 22, 2):
        for field in (GF2, GF4):
            for g in enumerate_cyclic_generators(n, field):
                code = cyclic_from_poly(g, n)
                assert code.k == n - g.degree and len(code.check_rows) == g.degree
                for i in range(code.k):
                    shift = [0] * i + list(g.coeffs) + [0] * (code.k - 1 - i)
                    assert not any(code.syndrome(shift)), (n, g, i)
                assert len(mat_row_reduce(field, code.check_rows)[0]) == n - code.k, (n, g)
                count += 1
    assert count == 1280


def test_burst_capability_15_9_is_3():
    code = cyclic_from_poly(G_15_9, 15)
    assert classical_burst_capability(code).l == 3


def test_burst_capability_repetition():
    code = cyclic_from_poly(Poly(GF2, (1, 1, 1)), 3)  # [3,1] repetition
    assert (code.n, code.k) == (3, 1)
    assert classical_burst_capability(code).l == 1


def test_burst_capability_7_3():
    # frozen from the all-pairs oracle below
    g = Poly(GF2, (1, 1)) * Poly(GF2, (1, 1, 0, 1))
    code = cyclic_from_poly(g, 7)
    assert (code.n, code.k) == (7, 3)
    cap = classical_burst_capability(code)
    assert cap.l == 2
    assert cap.l == _oracle_capability(code, end_around=False)


def _oracle_capability(code, end_around):
    """All-pairs syndrome-distinctness, written independently of the engine."""
    n = code.n
    order = code.field.order

    def all_bursts(l):
        vecs = {tuple([0] * n)}
        starts = range(n) if end_around else range(n)
        for s in starts:
            for span in range(1, l + 1):
                if not end_around and s + span > n:
                    continue
                for content in itertools.product(range(order), repeat=span):
                    if span > 1 and (content[0] == 0 or content[-1] == 0):
                        continue
                    if span == 1 and content[0] == 0:
                        continue
                    v = [0] * n
                    for i, c in enumerate(content):
                        v[(s + i) % n] = c
                    vecs.add(tuple(v))
        return vecs

    best = 0
    for l in range(1, (n - code.k) // 2 + 1):
        syns = set()
        ok = True
        for v in all_bursts(l):
            syn = code.syndrome(v)
            if syn in syns:
                ok = False
                break
            syns.add(syn)
        if not ok:
            break
        best = l
    return best


def test_burst_capability_end_around_not_larger():
    for g, n in [(G_15_9, 15), (Poly(GF2, (1, 1)) * Poly(GF2, (1, 1, 0, 1)), 7)]:
        code = cyclic_from_poly(g, n)
        plain = classical_burst_capability(code, end_around=False)
        cyc = classical_burst_capability(code, end_around=True)
        assert cyc.l <= plain.l
        assert cyc.l == _oracle_capability(code, end_around=True)


def test_burst_capability_reiger_ceiling():
    for g, n in [(G_15_9, 15), (Poly(GF2, (1, 1, 1)), 3)]:
        code = cyclic_from_poly(g, n)
        assert classical_burst_capability(code).l <= (code.n - code.k) // 2


def _cyclic_span(vec, end_around):
    """Burst length of vec; with end_around the shortest over rotations."""
    n = len(vec)
    spans = []
    for r in range(n if end_around else 1):
        support = [i for i in range(n) if vec[(i + r) % n]]
        spans.append(support[-1] - support[0] + 1 if support else 0)
    return min(spans)


def _random_cyclic_codes(seed, count):
    """Random cyclic codes over GF(2) and GF(4): an odd length n <= 15 and
    a field drawn first, then a divisor of x^n - 1."""
    rng = random.Random(seed)
    for _ in range(count):
        field = rng.choice((GF2, GF4))
        n = rng.randrange(3, 16, 2)
        yield cyclic_from_poly(rng.choice(enumerate_cyclic_generators(n, field)), n)


def test_burst_capability_matches_oracle_random_cyclic():
    # the window-rank kernel against the all-pairs oracle
    fields = set()
    for code in _random_cyclic_codes(606, 60):
        fields.add(code.field)
        for end_around in (False, True):
            cap = classical_burst_capability(code, end_around=end_around)
            assert cap.end_around == end_around
            assert cap.l == _oracle_capability(code, end_around), (code.n, code.k, end_around)
    assert fields == {GF2, GF4}


def _assert_valid_classical_witness(code, cap):
    u, v = cap.witness
    assert len(u) == len(v) == code.n
    assert u != v
    assert code.syndrome(u) == code.syndrome(v)
    assert _cyclic_span(u, cap.end_around) <= cap.l + 1
    assert _cyclic_span(v, cap.end_around) <= cap.l + 1


def test_burst_capability_witness():
    seen = {False: 0, True: 0}
    for code in _random_cyclic_codes(707, 40):
        for end_around in (False, True):
            cap = classical_burst_capability(code, end_around=end_around)
            if cap.l < (code.n - code.k) // 2:
                _assert_valid_classical_witness(code, cap)
                seen[end_around] += 1
            else:
                assert cap.witness is None
    assert seen[False] >= 5 and seen[True] >= 5


def test_burst_capability_witness_across_the_end():
    # the only short codeword sits on positions 7 and 0, so the failing
    # union of end-around windows is the one that wraps
    for field, tail in ((GF2, 1), (GF4, W)):
        code = linear_code(field, [[1, 0, 0, 0, 0, 0, 0, tail]])
        plain = classical_burst_capability(code)
        assert plain.l == 0
        _assert_valid_classical_witness(code, plain)
        cap = classical_burst_capability(code, end_around=True)
        assert cap.l == 0
        _assert_valid_classical_witness(code, cap)
        assert sorted(cap.witness) == [(0,) * 7 + (tail,), (1,) + (0,) * 7]


def test_burst_capability_extension_field_mds():
    # an MDS code corrects every pattern of (n-k)/2 symbol errors, so the
    # kernel over GF(4^m) column images must reach the Reiger ceiling
    for m, n2, l2 in [(2, 6, 2), (3, 7, 3), (6, 6, 2)]:
        code = rs_mds(n2, l2, ExtField(GF4, m))
        for end_around in (False, True):
            cap = classical_burst_capability(code, end_around=end_around)
            assert (cap.l, cap.witness) == (l2, None)


# ----------------------------------------------------------------------
# Reed-Solomon
# ----------------------------------------------------------------------

def test_rs_mds_example_params():
    F = ExtField(GF4, 6)
    code = rs_mds(6, 2, F)
    assert (code.n, code.k) == (6, 2)
    assert classical_burst_capability(code, end_around=True) == (2, True, None)


def test_rs_mds_l0_identity():
    # no checks: the Vandermonde rows reduce to the identity, over GF(4) too
    for F, n2 in ((ExtField(GF4, 2), 4), (GF4, 5), (ExtField(GF4, 1), 3)):
        code = rs_mds(n2, 0, F)
        assert (code.n, code.k) == (n2, n2)
        assert code.check_rows == ()


def test_rs_mds_gf16_distance_exhaustive():
    F = ExtField(GF4, 2)
    code = rs_mds(4, 1, F)
    assert (code.n, code.k) == (4, 2)
    weights = sorted(sum(1 for x in w if x) for w in codewords(code))
    assert weights[0] == 0 and weights[1] == 3  # minimum distance 3


def test_rs_mds_singleton_equality_small():
    # every codebook up to 2^16 words is enumerated exactly
    for F, n2, l2 in [(ExtField(GF4, 2), 4, 1), (ExtField(GF4, 2), 6, 2),
                      (ExtField(GF4, 2), 5, 1), (ExtField(GF4, 3), 5, 2),
                      (GF4, 5, 1), (GF4, 4, 1), (GF4, 5, 2)]:
        code = rs_mds(n2, l2, F)
        assert (code.n, code.k) == (n2, n2 - 2 * l2)
        if F.order ** code.k > 1 << 16:
            continue
        d = min(sum(1 for x in w if x) for w in codewords(code) if any(w))
        assert d == code.n - code.k + 1


def test_rs_mds_extended_length():
    F = ExtField(GF4, 2)
    code = rs_mds(17, 1, F)  # q + 1
    assert (code.n, code.k) == (17, 15)
    with pytest.raises(ValueError):
        rs_mds(19, 1, F)  # beyond q + 1
    with pytest.raises(ValueError):
        rs_mds(6, 3, F)   # l2 above floor((n2-1)/2)


RS_FIELDS = [GF4, ExtField(GF2, 3), ExtField(GF2, 4), ExtField(GF4, 2),
             ExtField(GF4, 3), ExtField(GF2, 8)]


@pytest.mark.parametrize("field", RS_FIELDS, ids=lambda f: f.name)
def test_rs_mds_matches_vandermonde_elimination(field):
    # the systematic check rows are the nullspace basis that elimination of
    # the Vandermonde rows gives, tuple for tuple: every l2 at every length
    # up to q + 1 (or 20), and every l2 at the extended length 65 of GF(4^3)
    lengths = range(2, min(field.order + 1, 20) + 1)
    if field.order == 64:
        lengths = [*lengths, 65]
    for n2 in lengths:
        for l2 in range((n2 - 1) // 2 + 1):
            assert rs_mds(n2, l2, field) == rs_mds_matrix(n2, l2, field), (n2, l2)


@pytest.mark.parametrize("field, n2, l2", [
    (ExtField(GF4, 6), 256, 4), (ExtField(GF2, 8), 100, 7), (ExtField(GF2, 8), 257, 3),
    (ExtField(GF2, 8), 200, 40)], ids=lambda v: getattr(v, "name", str(v)))
def test_rs_mds_matches_vandermonde_elimination_long(field, n2, l2):
    # W'(a_i) by the product over the points above k at (257, 3), where
    # q - k < k, and over the other information points at the rest
    assert rs_mds(n2, l2, field) == rs_mds_matrix(n2, l2, field)


# ----------------------------------------------------------------------
# dual containment
# ----------------------------------------------------------------------

def test_hermitian_dual_containing_15_9():
    code = cyclic_from_poly(G_15_9, 15)
    assert hermitian_dual_containing(code)


def test_hermitian_dual_containing_small_dimension():
    g = G_15_9 * Poly(GF4, (1, 1)) * Poly(GF4, (W, 1)) * Poly(GF4, (3, 1))
    code = cyclic_from_poly(g, 15)
    # k = 6 < 15/2 is impossible by dimension count
    assert code.k < 15 / 2
    assert not hermitian_dual_containing(code)
    # the zero code: no independent rows, identity check rows
    zero = linear_code(GF4, [[0, 0, 0]])
    assert (zero.k, zero.check_rows) == (0, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert not hermitian_dual_containing(zero)


def test_hermitian_dual_containing_full_space():
    code = linear_code(GF4, [[1 if j == i else 0 for j in range(5)] for i in range(5)])
    assert hermitian_dual_containing(code)


def test_hermitian_dual_containing_wrong_field():
    code = cyclic_from_poly(Poly(GF2, (1, 1)), 3)
    with pytest.raises(ValueError):
        hermitian_dual_containing(code)


HAMMING_ROWS = [[1, 0, 0, 0, 0, 1, 1],
                [0, 1, 0, 0, 1, 0, 1],
                [0, 0, 1, 0, 1, 1, 0],
                [0, 0, 0, 1, 1, 1, 1]]


def test_binary_dual_containing_hamming():
    ham = linear_code(GF2, HAMMING_ROWS)
    assert (ham.n, ham.k) == (7, 4)
    # classical fact: the Hamming check matrix is self-orthogonal
    for h1 in ham.check_rows:
        for h2 in ham.check_rows:
            assert sum(a & b for a, b in zip(h1, h2)) % 2 == 0
    assert binary_dual_containing(ham, ham)


def test_binary_dual_containing_full_and_zero():
    full = linear_code(GF2, [[1 if j == i else 0 for j in range(5)] for i in range(5)])
    ham = linear_code(GF2, HAMMING_ROWS)
    assert binary_dual_containing(ham, linear_code(GF2, [[1 if j == i else 0 for j in range(7)] for i in range(7)]))
    # dual of the full space is the zero code, contained everywhere
    proper = cyclic_from_poly(Poly(GF2, (1, 1)), 5)
    assert binary_dual_containing(full, proper)


def test_binary_dual_containing_length_mismatch():
    a = cyclic_from_poly(Poly(GF2, (1, 1)), 3)
    b = cyclic_from_poly(Poly(GF2, (1, 1)), 5)
    with pytest.raises(ValueError):
        binary_dual_containing(a, b)
