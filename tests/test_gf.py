import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from poly_oracle import TuplePoly, tuple_berlekamp, tuple_gcd
from tensor_oracle import mult_matrix
from qbecc.gf import (GF2, GF4, ExtField, Poly, UnsupportedDegreeError,
                      berlekamp_factor, poly_gcd, xn_minus_1)

W, W2 = 2, 3  # codes for w and w^2

# GF(4) by hand, nonzero codes 1, 2, 3 being w^0, w^1, w^2: the oracle for
# GF4, which is GF(2^2) on the shared log/antilog tables
_F4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
_F4_INV = (0, 1, 3, 2)  # index 0 unused
_F4_CONJ = (0, 1, 3, 2)  # x -> x^2 swaps w and w^2


def _x_class(F):
    """The class of x in F: the root of a linear modulus, else digits (0, 1)."""
    return F.modulus[0] if F.m == 1 else F.from_digits((0, 1))


def test_gf4_is_gf2_squared():
    assert isinstance(GF4, ExtField) and GF4.base is GF2 and GF4.m == 2
    assert GF4.modulus == (1, 1, 1) and GF4.order == 4  # x^2 + x + 1
    assert repr(GF4) == "GF(4)" and _x_class(GF4) == W


def test_gf4_matches_hand_tables():
    for x in range(4):
        assert GF4.conj(x) == _F4_CONJ[x]
        for y in range(4):
            assert GF4.mul(x, y) == _F4_MUL[x][y]
    for x in range(1, 4):
        assert GF4.inv(x) == _F4_INV[x]
    with pytest.raises(ZeroDivisionError, match=r"in GF\(4\)$"):
        GF4.inv(0)


def test_f4_add_examples():
    assert W ^ W == 0
    assert 1 ^ W == W2 == GF4.mul(W, W)  # w^2 = w + 1
    assert 0 ^ W2 == W2


def test_f4_mul_examples():
    assert GF4.mul(W, W) == W2
    assert GF4.mul(W, W2) == 1
    for x in range(4):
        assert GF4.mul(0, x) == 0


def test_f4_conj_examples():
    assert GF4.conj(W) == W2
    assert GF4.conj(1) == 1
    assert GF4.conj(0) == 0
    for x in range(4):
        assert GF4.conj(GF4.conj(x)) == x
        assert GF4.conj(x) == GF4.mul(x, x)


def test_f4_conj_is_field_automorphism():
    for x in range(4):
        for y in range(4):
            assert GF4.conj(x ^ y) == GF4.conj(x) ^ GF4.conj(y)
            assert GF4.conj(GF4.mul(x, y)) == GF4.mul(GF4.conj(x), GF4.conj(y))


def test_f4_field_laws_exhaustive():
    mul = GF4.mul
    for x in range(4):
        for y in range(4):
            assert mul(x, y) == mul(y, x)
            for z in range(4):
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
                assert mul(x, y ^ z) == mul(x, y) ^ mul(x, z)
    for x in range(1, 4):
        assert mul(x, GF4.inv(x)) == 1


def test_ext_field_m1_matches_f4():
    F = ExtField(GF4, 1)
    for x in range(4):
        assert F.conj(x) == x  # GF(4^1) is GF(4) over itself
        for y in range(4):
            assert F.mul(x, y) == _F4_MUL[x][y]
    for x in range(1, 4):
        assert F.inv(x) == _F4_INV[x]


def test_ext_field_gf16_laws_exhaustive():
    F = ExtField(GF4, 2)
    for x in F.elements():
        for y in F.elements():
            assert F.mul(x, y) == F.mul(y, x)
            for z in F.elements():
                assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
                assert F.mul(x, y ^ z) == F.mul(x, y) ^ F.mul(x, z)
    for x in range(1, F.order):
        assert F.mul(x, F.inv(x)) == 1


def test_ext_field_gf16_frobenius_fixed_points():
    # x -> x^4 must fix exactly the embedded GF(4), and conj is that map
    F = ExtField(GF4, 2)
    fixed = [x for x in F.elements() if F.pow(x, 4) == x]
    assert len(fixed) == 4
    assert all(F.conj(x) == F.pow(x, 4) for x in F.elements())


def test_ext_field_gf4096_generator_order():
    # multiplicative order of the generator is 4095 = 3^2 * 5 * 7 * 13
    F = ExtField(GF4, 6)
    g = _x_class(F)
    assert F.pow(g, 4095) == 1
    for q in (3, 5, 7, 13):
        assert F.pow(g, 4095 // q) != 1


@pytest.mark.parametrize("m", [3, 6])
def test_ext_field_sampled_laws(m):
    F = ExtField(GF4, m)
    rng = random.Random(1234 + m)
    for _ in range(10_000):
        x, y, z = (rng.randrange(F.order) for _ in range(3))
        assert F.mul(x, y) == F.mul(y, x)
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, y ^ z) == F.mul(x, y) ^ F.mul(x, z)
    for _ in range(1000):
        x = rng.randrange(1, F.order)
        assert F.mul(x, F.inv(x)) == 1


def test_ext_field_unsupported_degree():
    with pytest.raises(UnsupportedDegreeError):
        ExtField(GF4, 9)
    with pytest.raises(UnsupportedDegreeError):
        ExtField(GF4, 0)


# SHA-256 of " ".join(str(g^i) for i in 0 .. q^m - 2), g the class of x,
# recorded from the separate GF(4^m) and GF(2^m) classes before they merged.
EXP_TABLE_SHA256 = {
    (4, 1): "7c8f5059290305cec8323d79521f0353c9ac308b60cb4c1976340d0ce4a121d5",
    (4, 2): "1050901a030e523be20cd12172a4f6a2ca3a13af58fec52d814f308d8894a1c4",
    (4, 3): "9402250495fd2f9393835b43e46a26f22ef1f1785170810e25b47958e1520239",
    (4, 4): "cc3a151a8b9861264a30a5d74d4efea5e97fe29a949ce4985ccd81d414053b81",
    (4, 5): "dc79c9e98ab143528bfec174147f5e45a735801c54d0877d68690d564e8c0dd1",
    (4, 6): "81dec26b9875988f0da1b9db1fffd701047b95cdbf3feb0d61213dc28d616bce",
    (4, 7): "50a9738311f8de146d2d6be7f04d1a4bd2cb0af1d96164762348e4a979052ec0",
    (4, 8): "84fa60b7a1d7f3e1be5425e317d96d2b18d0081c47916144120e972645ab67fb",
    (2, 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (2, 2): "7c8f5059290305cec8323d79521f0353c9ac308b60cb4c1976340d0ce4a121d5",
    (2, 3): "85539c43cced041399d52df40b32630a071bfa8b2c4dd98cde88e2fc2b99baa8",
    (2, 4): "4b857ef705b5ef00ce3337b5977864c4a54d83beeca0da951b714de246df22bd",
    (2, 5): "836fea476e66f1b15823aa5bda76898eb00d19679896feadf1b5bb704254fbb5",
    (2, 6): "26e2e38eb5362977ffaade2a42d56a9aee209bb1dfc5b35599c97081f70d5ab6",
    (2, 7): "cb2fa13d15c075d5a50556c2981c06b926f266a501ca012c319738baf821a8a9",
    (2, 8): "1273d2a1c5f202c4d714406d7e8e887da47fc5ef45f16a74debca963fb784803",
    (2, 9): "b4cc667a96ca17a536782669afd4e45135f372bb132a84ffe15f1159dfedf534",
    (2, 10): "44457ed293b1624ce8699ddd8d7e0554a79116d2e63aa0ce00dec185254930d2",
    (2, 11): "00b1869c99353e82f20c8021d1e45b803ad7471037ef216e59f3da9d9640d228",
    (2, 12): "5fe907bf07a47c0b28ec0634ffa54b6d4ee8e773a06cf6c00f9f3e0585084813",
}


@pytest.mark.parametrize("q,m", sorted(EXP_TABLE_SHA256))
def test_ext_field_exp_table_pinned(q, m):
    F = ExtField(GF4 if q == 4 else GF2, m)
    assert F.base is (GF4 if q == 4 else GF2) and F.order == q ** m
    text = " ".join(str(F.pow(_x_class(F), i)) for i in range(F.order - 1))
    assert hashlib.sha256(text.encode()).hexdigest() == EXP_TABLE_SHA256[(q, m)]


def test_ext_field_rejects_other_bases():
    with pytest.raises(ValueError):
        ExtField(ExtField(GF4, 2), 2)
    with pytest.raises(UnsupportedDegreeError):
        ExtField(GF2, 13)


def test_ext2_field_m1_matches_gf2():
    F = ExtField(GF2, 1)
    for x in range(2):
        assert F.conj(x) == GF2.conj(x) == x
        for y in range(2):
            assert F.mul(x, y) == GF2.mul(x, y)


def test_ext2_field_gf8_laws_exhaustive():
    F = ExtField(GF2, 3)
    for x in F.elements():
        for y in F.elements():
            assert F.mul(x, y) == F.mul(y, x)
            for z in F.elements():
                assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
                assert F.mul(x, y ^ z) == F.mul(x, y) ^ F.mul(x, z)
    for x in range(1, F.order):
        assert F.mul(x, F.inv(x)) == 1


@pytest.mark.parametrize("m", sorted(range(1, 13)))
def test_ext2_field_generator_primitive(m):
    F = ExtField(GF2, m)
    g = _x_class(F)
    order = F.order - 1
    assert F.pow(g, order) == 1
    q = 2
    rest = order
    prime_factors = set()
    while rest > 1:
        while rest % q == 0:
            prime_factors.add(q)
            rest //= q
        q += 1
    for q in prime_factors:
        assert F.pow(g, order // q) != 1


def test_ext2_field_mult_matrix_is_linear_action():
    F = ExtField(GF2, 4)
    rng = random.Random(9)
    for _ in range(100):
        e = rng.randrange(F.order)
        m = mult_matrix(F, e)
        y = rng.randrange(F.order)
        yd = F.digits(y)
        prod = [0] * F.m
        for i in range(F.m):
            for j in range(F.m):
                prod[i] ^= m[i][j] & yd[j]
        assert F.from_digits(prod) == F.mul(e, y)


def test_ext_field_mult_matrix_is_linear_action():
    F = ExtField(GF4, 3)
    rng = random.Random(7)
    for _ in range(100):
        e = rng.randrange(F.order)
        m = mult_matrix(F, e)
        y = rng.randrange(F.order)
        yd = F.digits(y)
        prod = [0] * F.m
        for i in range(F.m):
            for j in range(F.m):
                prod[i] ^= GF4.mul(m[i][j], yd[j])
        assert F.from_digits(prod) == F.mul(e, y)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(derandomize=True)
def test_f4_hypothesis_ring_axioms(x, y, z):
    assert GF4.mul(x, y ^ z) == GF4.mul(x, y) ^ GF4.mul(x, z)
    assert GF4.mul(x, GF4.conj(x)) in (0, 1)  # the norm lies in GF(2)


# ----------------------------------------------------------------------
# polynomials
# ----------------------------------------------------------------------

def test_poly_divmod_binary_square():
    a = Poly(GF2, (1, 0, 1))      # x^2 + 1
    b = Poly(GF2, (1, 1))         # x + 1
    q, r = divmod(a, b)
    assert q == Poly(GF2, (1, 1)) and r.is_zero


def test_poly_divmod_table_row_divisor():
    # x^15 - 1 must be divisible by x^6 + w x^3 + 1 for the [15, 9] code to exist
    g = Poly(GF4, (1, 0, 0, W, 0, 0, 1))
    q, r = divmod(xn_minus_1(15, GF4), g)
    assert r.is_zero
    assert q * g == xn_minus_1(15, GF4)


def test_poly_divmod_self():
    a = Poly(GF4, (W, 1, W2))
    q, r = divmod(a, a)
    assert q == Poly.one(GF4) and r.is_zero


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(GF4), Poly(GF4, ()))


@pytest.mark.parametrize("field", [GF2, GF4])
def test_poly_divmod_roundtrip_random(field):
    rng = random.Random(42)
    for _ in range(1000):
        a = Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(0, 12))])
        b = Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(1, 8))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_product_degree():
    rng = random.Random(5)
    for _ in range(200):
        a = [rng.randrange(4) for _ in range(rng.randrange(1, 8))] + [rng.randrange(1, 4)]
        b = [rng.randrange(4) for _ in range(rng.randrange(1, 8))] + [rng.randrange(1, 4)]
        pa, pb = Poly(GF4, a), Poly(GF4, b)
        assert (pa * pb).degree == pa.degree + pb.degree


def _cyclotomic_coset_count(n: int, q: int) -> int:
    seen = set()
    count = 0
    for s in range(n):
        if s in seen:
            continue
        count += 1
        t = s
        while t not in seen:
            seen.add(t)
            t = (t * q) % n
    return count


@pytest.mark.parametrize("n,field,q", [(3, GF2, 2), (7, GF2, 2), (15, GF2, 2),
                                       (23, GF2, 2), (41, GF2, 2),
                                       (5, GF4, 4), (15, GF4, 4), (35, GF4, 4)])
def test_berlekamp_factors_xn_minus_1(n, field, q):
    f = xn_minus_1(n, field)
    factors = berlekamp_factor(f)
    # factor count equals the cyclotomic coset count (independent oracle)
    assert len(factors) == _cyclotomic_coset_count(n, q)
    prod = Poly.one(field)
    for piece in factors:
        assert len(tuple_berlekamp(TuplePoly(field, piece.coeffs))) == 1  # irreducible
        prod = prod * piece
    assert prod == f


@pytest.mark.parametrize("field", [GF2, GF4])
def test_berlekamp_factor_matches_the_general_oracle(field):
    # the coset-sum splitting basis against the solved-for nullspace
    for n in range(1, 200, 2):
        f = xn_minus_1(n, field)
        assert [p.coeffs for p in berlekamp_factor(f)] == \
            [t.coeffs for t in tuple_berlekamp(TuplePoly(field, f.coeffs))], n


@pytest.mark.parametrize("field", [GF2, GF4])
@pytest.mark.parametrize("coeffs", [
    (1, 0, 1),  # x^2 - 1: even n
    (1, 0, 0, 0, 1),  # x^4 - 1
    (0, 0, 0, 1),  # x^3 alone
    (1, 1, 0, 1),  # x^3 + x + 1: squarefree, irreducible over GF(2), not x^n - 1
    (1,),  # a constant
    (),  # zero
])
def test_berlekamp_factor_refuses_all_but_odd_xn_minus_1(field, coeffs):
    with pytest.raises(ValueError, match=r"x\^n - 1 for odd n only"):
        berlekamp_factor(Poly(field, coeffs))


def test_poly_gcd_of_coprime():
    a = Poly(GF4, (1, 1))
    b = Poly(GF4, (W, 1))
    assert poly_gcd(a * a, a * b) == a


def test_poly_refuses_fields_other_than_gf2_and_gf4():
    with pytest.raises(ValueError, match=r"over GF\(2\) or GF\(4\), not GF\(4\^2\)"):
        Poly(ExtField(GF4, 2), (1, 2))


def _random_coeffs(rng, field):
    """Zero, a constant, or up to 15 coefficients, sometimes with trailing
    zeros."""
    length = rng.choice((0, 1, rng.randrange(2, 16)))
    return [rng.randrange(field.order) for _ in range(length)] + [0] * rng.randrange(3)


@pytest.mark.parametrize("field", [GF2, GF4])
def test_packed_poly_matches_the_tuple_oracle(field):
    # the packed arithmetic against the tuple arithmetic it replaced, on
    # random pairs that include zero, constants and non-monic divisors
    rng = random.Random(19)
    divisions = non_monic = 0
    for _ in range(3000):
        ca, cb = _random_coeffs(rng, field), _random_coeffs(rng, field)
        a, b, ta, tb = Poly(field, ca), Poly(field, cb), TuplePoly(field, ca), TuplePoly(field, cb)
        for p, t in ((a, ta), (b, tb)):
            assert (p.coeffs, p.degree, p.is_zero, repr(p)) == \
                (t.coeffs, t.degree, t.is_zero, repr(t)), t
            assert p.monic().coeffs == t.monic().coeffs, t
            same = Poly(field, list(t.coeffs) + [0])
            assert p == same and hash(p) == hash(same), t
        assert (a == b) == (ta == tb), (ta, tb)
        assert (a + b).coeffs == (ta + tb).coeffs, (ta, tb)
        assert (a * b).coeffs == (ta * tb).coeffs, (ta, tb)
        if tb.is_zero:
            continue
        q, r = divmod(a, b)
        tq, tr = divmod(ta, tb)
        assert (q.coeffs, r.coeffs) == (tq.coeffs, tr.coeffs), (ta, tb)
        assert poly_gcd(a, b).coeffs == tuple_gcd(ta, tb).coeffs, (ta, tb)
        divisions += 1
        non_monic += tb.coeffs[-1] != 1
    assert divisions > 1200 and (non_monic > 1000) == (field is GF4), (divisions, non_monic)
