import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_css_code, random_self_orthogonal_code, swap_halves
from label_oracle import label_ints as oracle_label_ints, label_table
from qbecc.classical import cyclic_from_poly, linear_code
from qbecc.gf import GF2, GF4, Poly, f4_conj, f4_mul
from qbecc.linalg import gf2_nullspace, gf2_reduce_vector
from qbecc.registry import load_registry
from qbecc.search import _candidates, _construct, build_registry_code
from qbecc.stabilizer import (CommutationError, F4Vector, ResourceLimitError,
                              StabilizerCode, SymplecticVector, additive_code,
                              burst_length, css_construct, f4_symplectic_map,
                              hermitian_construct, symplectic_f4_map,
                              symplectic_ip)

W = 2

# five-qubit code: XZZXI and its cyclic shifts (X=1, Z=w)
FIVE_QUBIT_ROWS = [
    F4Vector.from_symbols(s) for s in
    [(1, 2, 2, 1, 0), (0, 1, 2, 2, 1), (1, 0, 1, 2, 2), (2, 1, 0, 1, 2)]
]


def five_qubit_code() -> StabilizerCode:
    return additive_code(5, [f4_symplectic_map(v) for v in FIVE_QUBIT_ROWS])


def test_symplectic_ip_examples():
    u = SymplecticVector(2, 0b01, 0b10)
    v = SymplecticVector(2, 0b10, 0b01)
    assert symplectic_ip(u, v) == 0
    x1 = SymplecticVector(1, 1, 0)
    z1 = SymplecticVector(1, 0, 1)
    assert symplectic_ip(x1, z1) == 1
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 10)
        v = SymplecticVector(n, rng.getrandbits(n), rng.getrandbits(n))
        assert symplectic_ip(v, v) == 0


def test_symplectic_ip_length_mismatch():
    with pytest.raises(ValueError):
        symplectic_ip(SymplecticVector(1, 1, 0), SymplecticVector(2, 1, 0))


def trace_ip(u: F4Vector, v: F4Vector) -> int:
    """Oracle: the trace inner product sum of u_i v_i^2 + u_i^2 v_i over GF(2)."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} != {v.n}")
    acc = 0
    for x, y in zip(u.symbols(), v.symbols()):
        acc ^= f4_mul(x, f4_conj(y)) ^ f4_mul(f4_conj(x), y)
    return acc


def test_trace_ip_examples():
    w_vec = F4Vector.from_symbols((W,))
    assert trace_ip(w_vec, w_vec) == 0
    assert trace_ip(F4Vector.from_symbols((1,)), w_vec) == 1


def test_trace_symplectic_consistency_exhaustive_small():
    for n in (1, 2, 3):
        for pu in range(4 ** n):
            u = F4Vector(n, pu)
            for pv in range(4 ** n):
                v = F4Vector(n, pv)
                assert trace_ip(u, v) == symplectic_ip(f4_symplectic_map(u),
                                                       f4_symplectic_map(v))


def test_trace_symplectic_consistency_sampled():
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randrange(1, 20)
        u = F4Vector(n, rng.getrandbits(2 * n))
        v = F4Vector(n, rng.getrandbits(2 * n))
        assert trace_ip(u, v) == symplectic_ip(f4_symplectic_map(u), f4_symplectic_map(v))


@given(st.integers(1, 16), st.data())
@settings(derandomize=True, max_examples=200)
def test_map_roundtrip(n, data):
    packed = data.draw(st.integers(0, 4 ** n - 1))
    v = F4Vector(n, packed)
    assert symplectic_f4_map(f4_symplectic_map(v)) == v


def test_burst_length_examples():
    # X (x) I (x) Z (x) I (x) I
    v = F4Vector.from_symbols((1, 0, W, 0, 0))
    assert burst_length(v) == 3
    assert burst_length(f4_symplectic_map(v)) == 3
    assert burst_length(F4Vector.from_symbols((0, 0, 0, 3, 0))) == 1
    assert burst_length(F4Vector(7, 0)) == 0


def test_burst_length_scalar_invariance():
    rng = random.Random(4)
    from qbecc.gf import f4_mul
    for _ in range(200):
        n = rng.randrange(1, 15)
        v = F4Vector(n, rng.getrandbits(2 * n))
        c = rng.choice((1, 2, 3))
        scaled = F4Vector.from_symbols([f4_mul(c, s) for s in v.symbols()])
        assert burst_length(scaled) == burst_length(v)
        assert burst_length(f4_symplectic_map(v)) == burst_length(v)


def test_additive_code_five_qubit():
    code = five_qubit_code()
    assert code.r == 4 and code.k == 1
    assert code.params == (5, 1)


def test_additive_code_empty():
    code = additive_code(4, [])
    assert code.params == (4, 4)


def test_additive_code_rejects_anticommuting():
    with pytest.raises(CommutationError) as err:
        additive_code(1, [SymplecticVector(1, 1, 0), SymplecticVector(1, 0, 1)])
    assert "0" in str(err.value) and "1" in str(err.value)


def test_stabilizer_pairwise_orthogonality():
    code = five_qubit_code()
    for i, u in enumerate(code.basis):
        for v in code.basis[i:]:
            su = SymplecticVector.from_packed(5, u)
            sv = SymplecticVector.from_packed(5, v)
            assert symplectic_ip(su, sv) == 0


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
        if code.contains(v):
            continue
        a, b = v & ((1 << n) - 1), v >> n
        best = min(best, (a | b).bit_count())
    assert best == 3


def test_min_distance_limit():
    code = five_qubit_code()
    with pytest.raises(ResourceLimitError):
        code.min_distance(limit=4)


def min_distance_walk(code, include_stabilizer=False):
    """The Gray-code walk over all 2^(n+k) dual elements that min_distance
    replaced, kept as its reference."""
    dual = code.dual_basis()
    skip_membership = None
    if not include_stabilizer:
        if code.r <= 22:
            skip_membership = set()
            v = 0
            skip_membership.add(0)
            for i in range(1, 1 << code.r):
                v ^= code.basis[(i & -i).bit_length() - 1]
                skip_membership.add(v)
    n = code.n
    best = 2 * n
    v = 0
    for i in range(1, 1 << len(dual)):
        v ^= dual[(i & -i).bit_length() - 1]
        w = ((v & ((1 << n) - 1)) | (v >> n)).bit_count()
        if w >= best:
            continue
        if not include_stabilizer:
            if skip_membership is not None:
                if v in skip_membership:
                    continue
            elif code.contains(v):
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
        for include in (False, True):
            assert code.min_distance(include_stabilizer=include) == \
                min_distance_walk(code, include), (entry.id, include)
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
        for include in (False, True):
            assert code.min_distance(include_stabilizer=include) == \
                min_distance_walk(code, include), (n, code.r, include)


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
        sv = SymplecticVector.from_packed(code.n, v)
        for row in code.basis:
            assert symplectic_ip(sv, SymplecticVector.from_packed(code.n, row)) == 0


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
              for gens in _candidates(n, construction)]
    wide = [random_css_code(rng, n, rx, rz, False)
            for n, rx, rz in [(80, 33, 33), (90, 50, 30), (70, 2, 2), (100, 20, 10)]]
    assert any(code.r > 64 for code in wide) and any(2 * code.k > 64 for code in wide)
    codes += wide
    assert len(codes) == 80 + 15 + 601 + 4
    for code in codes:
        chosen, reduced, pivots = list(code.basis), list(code.basis), list(code._pivots)
        swapped = [swap_halves(row, code.n) for row in code.basis]
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
        labels = code.label_ints()
        assert code.label_ints() is labels  # cached
        dual = code.dual_basis()
        for i in range(n):
            for c in range(4):
                error = SymplecticVector(n, (c & 1) << i, (c >> 1) << i)
                bits = [symplectic_ip(error, SymplecticVector.from_packed(n, v))
                        for v in dual]
                syndrome = sum(bit << j for j, bit in enumerate(bits[:code.r]))
                logical = sum(bit << j for j, bit in enumerate(bits[code.r:]))
                assert _words_int(tab.syndrome[i, c]) == syndrome
                assert _words_int(tab.logical[i, c]) == logical
                assert labels[i][c] == (syndrome << 2 * code.k) | logical


def test_label_ints_match_oracle_table():
    # every registry row, random codes, and CSS codes with r > 64 or 2k > 64
    codes = [build_registry_code(entry) for entry in load_registry()]
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randrange(1, 80)
        codes.append(random_self_orthogonal_code(rng, n, rng.randrange(0, n + 1)))
    for n, rx, rz in [(80, 33, 33), (90, 50, 30), (70, 2, 2), (100, 20, 10)]:
        codes.append(random_css_code(rng, n, rx, rz, False))
    assert any(code.r > 64 for code in codes) and any(2 * code.k > 64 for code in codes)
    for code in codes:
        assert code.label_ints() == oracle_label_ints(code), code.params


def _words_int(words) -> int:
    return sum(int(w) << (64 * i) for i, w in enumerate(words))
