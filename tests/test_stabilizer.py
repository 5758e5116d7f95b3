import random

import pytest

from conftest import (burst_length, contains, from_symbols, gf2_nullspace, gf2_reduce_vector,
                      interleave_halves, pivots_of, random_css_code, random_self_orthogonal_code,
                      swap_xz, symbols_of, syndrome, trace_ip)
from label_oracle import label_ints as oracle_label_ints, label_table
from qbecc import stabilizer
from qbecc.classical import LinearCode, cyclic_from_poly, linear_code, rs_mds
from qbecc.gf import GF2, GF4, ExtField, Poly
from qbecc.qtpc import qtpc_construct, tensor_check_matrix
from qbecc.registry import load_registry
from qbecc.search import _candidates, _construct, build_registry_code, cyclic_code
from qbecc.stabilizer import (CommutationError, F4Vector, ResourceLimitError,
                              StabilizerCode, css_construct, hermitian_construct)

W = 2

# five-qubit code: XZZXI and its cyclic shifts (X=1, Z=w)
FIVE_QUBIT_ROWS = [
    from_symbols(s).packed for s in
    [(1, 2, 2, 1, 0), (0, 1, 2, 2, 1), (1, 0, 1, 2, 2), (2, 1, 0, 1, 2)]
]


def five_qubit_code() -> StabilizerCode:
    return StabilizerCode(5, FIVE_QUBIT_ROWS)


def test_trace_ip_examples():
    w_vec = from_symbols((W,))
    assert trace_ip(w_vec, w_vec) == 0
    assert trace_ip(from_symbols((1,)), w_vec) == 1


def test_trace_symplectic_consistency_exhaustive_small():
    # the syndrome of u against the one-row code of v is their commutator
    for n in (1, 2, 3):
        for pv in range(4 ** n):
            v = F4Vector(n, pv)
            code = StabilizerCode(n, [pv])
            for pu in range(4 ** n):
                assert trace_ip(F4Vector(n, pu), v) == syndrome(code, pu)


def test_trace_symplectic_consistency_sampled():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randrange(1, 20)
        u = F4Vector(n, rng.getrandbits(2 * n))
        v = F4Vector(n, rng.getrandbits(2 * n))
        assert trace_ip(u, v) == syndrome(StabilizerCode(n, [v.packed]), u.packed)


def test_burst_length_examples():
    # X (x) I (x) Z (x) I (x) I
    v = from_symbols((1, 0, W, 0, 0))
    assert burst_length(v) == 3
    assert burst_length(from_symbols((0, 0, 0, 3, 0))) == 1
    assert burst_length(F4Vector(7, 0)) == 0


def test_burst_length_scalar_invariance():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 15)
        v = F4Vector(n, rng.getrandbits(2 * n))
        c = rng.choice((1, 2, 3))
        scaled = from_symbols([GF4.mul(c, s) for s in symbols_of(v)])
        assert burst_length(scaled) == burst_length(v)


def test_additive_code_five_qubit():
    code = five_qubit_code()
    assert code.r == 4 and code.k == 1
    assert code.params == (5, 1)


def test_additive_code_empty():
    code = StabilizerCode(4, [])
    assert code.params == (4, 4)


def test_rows_beyond_the_length_rejected():
    for row in (1 << 6, 1 << 7 | 1, -1):
        with pytest.raises(ValueError, match="exceed"):
            StabilizerCode(3, [row])
    assert StabilizerCode(3, [1 << 5]).params == (3, 2)  # Z on the last position


def test_additive_code_rejects_anticommuting():
    with pytest.raises(CommutationError) as err:
        StabilizerCode(1, [1, W])  # X and Z
    assert "0" in str(err.value) and "1" in str(err.value)


def test_stabilizer_pairwise_orthogonality():
    code = five_qubit_code()
    for i, u in enumerate(code.basis):
        for v in code.basis[i:]:
            assert trace_ip(F4Vector(5, u), F4Vector(5, v)) == 0


def test_hermitian_construct_15_3():
    code = cyclic_from_poly(Poly(GF4, (1, 0, 0, W, 0, 0, 1)), 15)
    stab = hermitian_construct(code)
    assert stab.params == (15, 3)


def test_hermitian_construct_13_1():
    code = cyclic_from_poly(Poly(GF4, (1, W, 0, 3, 0, W, 1)), 13)
    stab = hermitian_construct(code)
    assert stab.params == (13, 1)


def test_hermitian_construct_full_space():
    code = linear_code(GF4, [[1 if j == i else 0 for j in range(6)] for i in range(6)])
    stab = hermitian_construct(code)
    assert stab.params == (6, 6)
    assert stab.r == 0


def test_hermitian_construct_rejects():
    code = cyclic_from_poly(Poly(GF4, (1, 1)), 3)  # [3,2]: dual not contained
    with pytest.raises(ValueError):
        hermitian_construct(code)


HAMMING = linear_code(GF2, [[1, 0, 0, 0, 0, 1, 1],
                            [0, 1, 0, 0, 1, 0, 1],
                            [0, 0, 1, 0, 1, 1, 0],
                            [0, 0, 0, 1, 1, 1, 1]])


def test_css_construct_steane():
    stab = css_construct(HAMMING, HAMMING)
    assert stab.params == (7, 1)


def test_css_construct_21_9():
    g1 = Poly(GF2, (1, 1, 0, 0, 1, 0, 1))
    g2 = Poly(GF2, (1, 1, 1, 0, 1, 0, 1))
    stab = css_construct(cyclic_from_poly(g1, 21), cyclic_from_poly(g2, 21))
    assert stab.params == (21, 9)


def test_css_construct_full_space():
    full = linear_code(GF2, [[1 if j == i else 0 for j in range(5)] for i in range(5)])
    stab = css_construct(full, full)
    assert stab.params == (5, 5)


def _split_planes(row):
    """The X and Z bit planes of a GF(2) or GF(4) row, position i at bit i."""
    return (sum((c & 1) << i for i, c in enumerate(row)),
            sum((c >> 1) << i for i, c in enumerate(row)))


def split_hermitian_rows(n, check_rows):
    """The rows {conj(h), w*conj(h)} in split halves (X bits, then Z bits),
    as the Hermitian builder wrote them before the GF(4) symbol packing."""
    rows = []
    for h in check_rows:
        a, b = _split_planes(h)
        rows += [(a ^ b) | b << n, b | a << n]
    return rows


def split_css_rows(n, x_checks, z_checks):
    """The CSS builder's split-halves rows: X-type, then Z-type."""
    return ([_split_planes(h)[0] for h in x_checks]
            + [_split_planes(h)[0] << n for h in z_checks])


def test_rows_are_the_split_halves_rows_interleaved(monkeypatch):
    built = []
    real = stabilizer.StabilizerCode
    monkeypatch.setattr(stabilizer, "StabilizerCode",
                        lambda n, rows: built.append((n, rows)) or real(n, rows))

    def check(build, n, split_rows):
        try:
            build()
        except (ValueError, AssertionError):  # rows that anticommute, or a k they do not give
            pass
        # the last code built: qtpc_construct builds its inner code's first
        assert built[-1] == (n, [interleave_halves(r, n) for r in split_rows])
        built.clear()

    def check_cyclic(codes):
        n = codes[0].n
        if len(codes) == 1:
            check(lambda: hermitian_construct(*codes), n,
                  split_hermitian_rows(n, codes[0].check_rows))
        else:
            check(lambda: css_construct(*codes), n,
                  split_css_rows(n, codes[0].check_rows, codes[1].check_rows))

    for entry in load_registry():
        fields = (GF4,) if entry.construction == "hermitian" else (GF2, GF2)
        check_cyclic([cyclic_code(text, entry.n, field)
                      for text, field in zip(entry.genpolys, fields)])
    c1 = cyclic_code("1^6 2^3 1^0", 15, GF4)
    c2 = rs_mds(6, 2, ExtField(GF4, 6))
    check(lambda: qtpc_construct(c1, c2), 90, split_hermitian_rows(90, tensor_check_matrix(c1, c2)))
    # random search candidates, and random rows, commuting or not
    rng = random.Random(1414)
    for n in range(3, 22, 2):
        for construction in ("hermitian", "css"):
            candidates = [gens for gens, _, _ in _candidates(n, construction)]
            for gens in rng.sample(candidates, min(3, len(candidates))):
                check_cyclic([cyclic_from_poly(g, n) for g in gens])
    for _ in range(200):
        n = rng.randrange(1, 40)
        rows = [[rng.randrange(4) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        check(lambda: hermitian_construct(LinearCode(GF4, n, 0, rows)), n,
              split_hermitian_rows(n, rows))
        bits = [[c & 1 for c in row] for row in rows]
        check(lambda: css_construct(LinearCode(GF2, n, 0, bits[:1]),
                                    LinearCode(GF2, n, 0, bits[1:])),
              n, split_css_rows(n, bits[:1], bits[1:]))


def test_css_construct_rejects():
    rep = cyclic_from_poly(Poly(GF2, (1, 1, 1)), 3)  # [3,1]
    parity = cyclic_from_poly(Poly(GF2, (1, 1)), 3)  # [3,2]
    with pytest.raises(ValueError):
        css_construct(rep, rep)
    # [3,2] with C2 = [3,1]: dual of C2 is [3,2] itself? check engine decides
    stab = css_construct(parity, rep)
    assert stab.params == (3, 0)


def test_min_distance_five_qubit():
    code = five_qubit_code()
    assert code.min_distance() == 3
    # independent oracle: enumerate the dual directly from its basis
    dual = code.dual_basis()
    n = code.n
    best = 99
    for mask in range(1, 1 << len(dual)):
        v = 0
        for i in range(len(dual)):
            if (mask >> i) & 1:
                v ^= dual[i]
        if contains(code, v):
            continue
        best = min(best, sum(s != 0 for s in symbols_of(F4Vector(n, v))))
    assert best == 3


def test_min_distance_limit():
    code = five_qubit_code()
    with pytest.raises(ResourceLimitError):
        code.min_distance(limit=4)


def min_distance_walk(code):
    """The Gray-code walk over all 2^(n+k) dual elements that min_distance
    replaced, kept as its reference."""
    dual = code.dual_basis()
    skip_membership = None
    if code.r <= 22:
        skip_membership = set()
        v = 0
        skip_membership.add(0)
        for i in range(1, 1 << code.r):
            v ^= code.basis[(i & -i).bit_length() - 1]
            skip_membership.add(v)
    n = code.n
    x_bits = (4 ** n - 1) // 3  # the X bit of every position
    best = 2 * n
    v = 0
    for i in range(1, 1 << len(dual)):
        v ^= dual[(i & -i).bit_length() - 1]
        w = ((v | v >> 1) & x_bits).bit_count()
        if w >= best:
            continue
        if skip_membership is not None:
            if v in skip_membership:
                continue
        elif contains(code, v):
            continue
        best = w
    return best


def test_min_distance_matches_walk_on_registry_rows():
    from qbecc.registry import load_registry
    from qbecc.search import build_registry_code
    checked = 0
    for entry in load_registry():
        if entry.n + entry.k > 18:
            continue
        code = build_registry_code(entry)
        assert code.min_distance() == min_distance_walk(code), entry.id
        checked += 1
    assert checked == 4


@pytest.mark.parametrize("span_bits, span_elements", [(16, 1 << 20), (3, 16)])
def test_min_distance_matches_walk_on_random_codes(monkeypatch, span_bits, span_elements):
    # small span sizes force the blocked path: stabilizer rows among the
    # offsets and several blocks of offsets
    import qbecc.stabilizer as stabilizer
    monkeypatch.setattr(stabilizer, "_SPAN_BITS", span_bits)
    monkeypatch.setattr(stabilizer, "_SPAN_ELEMENTS", span_elements)
    rng = random.Random(span_bits)
    for _ in range(60):
        n = rng.randrange(1, 9)
        code = random_self_orthogonal_code(rng, n, rng.randrange(0, n + 1))
        assert code.min_distance() == min_distance_walk(code), (n, code.r)


def test_min_distance_refuses_wide_elements():
    code = random_self_orthogonal_code(random.Random(33), 33, 33)
    with pytest.raises(ResourceLimitError):
        code.min_distance(limit=1 << 40)


def test_dual_basis_shape_and_orthogonality():
    code = five_qubit_code()
    dual = code.dual_basis()
    assert len(dual) == code.n + code.k
    assert dual[:code.r] == code.basis
    for v in dual:
        for row in code.basis:
            assert trace_ip(F4Vector(code.n, v), F4Vector(code.n, row)) == 0


def test_dual_basis_stops_at_its_dimension():
    # the completions are the first nullspace vectors independent of the
    # rows before them: the same as a pass over the whole nullspace
    rng = random.Random(4096)
    codes = [random_self_orthogonal_code(rng, n, rng.randrange(0, n + 1))
             for n in rng.choices(range(1, 30), k=80)]
    codes += [build_registry_code(entry) for entry in load_registry()]
    # every search candidate of the benchmark lengths, and CSS codes with
    # r > 64 or 2k > 64
    codes += [_construct(construction, [cyclic_from_poly(g, n) for g in gens])
              for n in range(13, 24, 2) for construction in ("hermitian", "css")
              for gens, _, _ in _candidates(n, construction)]
    wide = [random_css_code(rng, n, rx, rz, False)
            for n, rx, rz in [(80, 33, 33), (90, 50, 30), (70, 2, 2), (100, 20, 10)]]
    assert any(code.r > 64 for code in wide) and any(2 * code.k > 64 for code in wide)
    codes += wide
    assert len(codes) == 80 + 15 + 601 + 4
    for code in codes:
        chosen, reduced, pivots = list(code.basis), list(code.basis), pivots_of(code)
        swapped = [swap_xz(row, code.n) for row in code.basis]
        for vec in gf2_nullspace(swapped, 2 * code.n):
            residual = gf2_reduce_vector(vec, reduced, pivots)
            if residual:
                chosen.append(vec)
                reduced.append(residual)
                pivots.append((residual & -residual).bit_length() - 1)
        assert code.dual_basis() == tuple(chosen), (code.n, code.r)


def test_label_table_matches_inner_products():
    # includes codes whose 2k logical bits need two or three uint64 words
    rng = random.Random(64)
    cases = [(rng.randrange(2, 12), None) for _ in range(20)] + [(45, 10), (70, 4)]
    for n, r in cases:
        code = random_self_orthogonal_code(rng, n, r if r else rng.randrange(0, n))
        tab = label_table(code)
        assert tab.syndrome.shape == (n, 4, max(1, -(-code.r // 64)))
        assert tab.logical.shape == (n, 4, max(1, -(-2 * code.k // 64)))
        assert label_table(code) is tab  # cached
        assert not tab.logical.flags.writeable
        labels = oracle_label_ints(code)
        dual = code.dual_basis()
        for i in range(n):
            for c in range(4):
                # the error is supported on position i alone
                error = F4Vector(1, c)
                bits = [trace_ip(error, F4Vector(1, (v >> 2 * i) & 3)) for v in dual]
                syndrome = sum(bit << j for j, bit in enumerate(bits[:code.r]))
                logical = sum(bit << j for j, bit in enumerate(bits[code.r:]))
                assert _words_int(tab.syndrome[i, c]) == syndrome
                assert _words_int(tab.logical[i, c]) == logical
                assert labels[i][c] == (syndrome << 2 * code.k) | logical


def _words_int(words) -> int:
    return sum(int(w) << (64 * i) for i, w in enumerate(words))
