"""Classical linear and cyclic codes over GF(2), GF(4), and GF(4^m).

A code is its parity-check rows (tuples of field-element ints): every
use of it, dual containment, the stabilizer constructions, the tensor
product and burst correction, is a statement about syndromes, so no
generator rows are kept.  Burst-correction capability is decided in
qbecc.burst, by the window-rank elimination that also decides the quantum
one.  A cyclic code's check rows and its coset labels (the burst
analyzer's label columns) both come from remainder_walk, the one walk
through the powers of x mod a generator.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import xor
from typing import List, NamedTuple, Sequence, Tuple

from .gf import GF2, GF4, Poly, _multiples
from .stabilizer import charge_entries


class InvalidGeneratorError(ValueError):
    """Generator polynomial does not divide x^n - 1."""

    @classmethod
    def of(cls, g: Poly, n: int) -> "InvalidGeneratorError":
        return cls(f"{g!r} does not divide x^{n} - 1 over {g.field!r}")


class LinearCode(NamedTuple):
    """A code by its check rows: the words with a zero syndrome."""

    field: object
    n: int
    k: int
    check_rows: Tuple[Tuple[int, ...], ...]

    def syndrome(self, vec: Sequence[int]) -> Tuple[int, ...]:
        mul = self.field.mul
        return tuple(reduce(xor, map(mul, row, vec), 0) for row in self.check_rows)


def _systematic(field, n: int, k: int, parities: Sequence[Sequence[int]]) -> LinearCode:
    """The code of reduced generator [I_k | P^T], P = parities: its check row
    j holds P[j], then a 1 at k + j (char 2)."""
    r = n - k
    return LinearCode(field, n, k, tuple(tuple(row) + (0,) * j + (1,) + (0,) * (r - 1 - j)
                                         for j, row in enumerate(parities)))


def remainder_walk(g: Poly, n: int) -> Tuple[int, List[int], List[int]]:
    """(deg g, x^i mod g packed for i < n, the carry c of each step) for a
    monic GF(2) or GF(4) polynomial g: a step is s' = x s - c g, where c is
    the coefficient of x^(deg g) in x s.  The walk ends at x^n mod g, which
    is its start 1 exactly when g divides x^n - 1 (and deg g <= n);
    otherwise InvalidGeneratorError."""
    bits, degree = g.bits, g.degree
    top, multiples = bits * degree, _multiples(g.packed, bits)
    s = start = 1 if degree else 0
    remainders, carries = [], []
    for _ in range(n):
        remainders.append(s)
        s <<= bits
        c = s >> top
        s ^= multiples[c]
        carries.append(c)
    if s != start or degree > n:
        raise InvalidGeneratorError.of(g, n)
    return degree, remainders, carries


def cyclic_from_poly(g: Poly, n: int) -> LinearCode:
    """Cyclic code of length n generated by g; g must divide x^n - 1.

    The check rows are written down in systematic form, with no
    elimination.  The first k positions of a nonzero codeword a*g are not
    all zero (the lowest term of a survives, as g(0) != 0), so the code's
    reduced row-echelon basis is x^p + x^k s_p for p < k, where
    x^k s_p = x^p mod g.  As x^n = 1 mod g, s_p = x^(n-k+p) mod g: the last
    k remainders of remainder_walk, which also tests divisibility; check
    row j holds coefficient j of every s_p.
    """
    if g.is_zero:
        raise InvalidGeneratorError("zero polynomial cannot generate a cyclic code")
    g = g.monic()
    r, remainders, _ = remainder_walk(g, n)
    bits, digit = g.bits, (1 << g.bits) - 1
    return _systematic(g.field, n, n - r, [tuple(s >> bits * j & digit for s in remainders[r:])
                                           for j in range(r)])


def rs_mds(n2: int, l2: int, field) -> LinearCode:
    """[n2, k = n2 - 2*l2, 2*l2 + 1] Reed-Solomon code over an extension field:
    the values of each f of degree < k at the points a_i = i < min(n2, q),
    and for n2 = q + 1 its coefficient of x^(k-1) (singly extended, MDS).

    The check rows are written down in systematic form: interpolation on
    a_0..a_(k-1), with W(x) = prod_{l<k} (x + a_l) and W'(a_i) =
    prod_{l<k, l!=i} (a_i + a_l), gives f(b) = sum_i f(a_i) W(b) /
    ((b + a_i) W'(a_i)) and the coefficient as sum_i f(a_i) / W'(a_i).
    """
    q, mul, inv = field.order, field.mul, field.inv
    if not 2 <= n2 <= q + 1:
        raise ValueError(f"length {n2} out of range [2, {q + 1}] for {field!r}")
    if not 0 <= l2 <= (n2 - 1) // 2:
        raise ValueError(f"burst target {l2} out of range [0, {(n2 - 1) // 2}]")
    k, r = n2 - 2 * l2, 2 * l2
    charge_entries(r * n2, f"the {r} x {n2} check matrix of the Reed-Solomon code")
    if r == 0:
        return LinearCode(field, n2, k, ())
    # 1 / W'(a_i): as the product of (a + b) over all b != a is 1, it is the
    # product over b = k..q-1, or the inverse of W'(a_i), whichever is shorter
    inv_w = [reduce(mul, map(i.__xor__, range(k, q)), 1) if q - k < k else
             inv(reduce(mul, map(i.__xor__, chain(range(i), range(i + 1, k))), 1))
             for i in range(k)]
    weights = []
    for b in range(k, min(n2, q)):
        w_b = reduce(mul, map(b.__xor__, range(k)), 1)
        weights.append([mul(w_b, mul(inv(b ^ i), c)) for i, c in enumerate(inv_w)])
    if n2 == q + 1:
        weights.append(inv_w)
    return _systematic(field, n2, k, weights)


def hermitian_dual_containing(code: LinearCode) -> bool:
    """True iff the Hermitian dual of a GF(4) code, spanned by the conjugated
    check rows, lies inside the code: every conj(h) has a zero syndrome."""
    if code.field is not GF4:
        raise ValueError("Hermitian dual containment is defined over GF(4)")
    return not any(any(code.syndrome([GF4.conj(x) for x in h])) for h in code.check_rows)


def binary_dual_containing(c2: LinearCode, c1: LinearCode) -> bool:
    """True iff the dual of c2, spanned by its check rows, lies in c1 (both
    binary, same length): every such row has a zero c1 syndrome."""
    if c2.field is not GF2 or c1.field is not GF2:
        raise ValueError("dual containment check requires binary codes")
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} != {c2.n}")
    return not any(any(c1.syndrome(h)) for h in c2.check_rows)


__all__ = [
    "LinearCode", "InvalidGeneratorError",
    "remainder_walk", "cyclic_from_poly", "rs_mds",
    "hermitian_dual_containing", "binary_dual_containing",
]
