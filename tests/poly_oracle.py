"""Reference polynomial arithmetic on coefficient tuples.

qbecc.gf.Poly packs a GF(2) or GF(4) polynomial into one int and
multiplies and divides by shifts and XORs of whole rows; this keeps the
tuple form it replaced, with one field.mul per coefficient pair, so the
packed arithmetic can be checked against it.

tuple_berlekamp is the general Berlekamp factorizer that
qbecc.gf.berlekamp_factor replaced: it solves for the splitting
polynomials, where berlekamp_factor writes them down for x^n - 1.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from cyclic_oracle import mat_nullspace


class TuplePoly:
    """Coefficients lowest degree first with no trailing zeros; the zero
    polynomial has an empty tuple and degree -1."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TuplePoly") -> "TuplePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c  # char 2
        return TuplePoly(self.field, out)

    def __mul__(self, other: "TuplePoly") -> "TuplePoly":
        if self.is_zero or other.is_zero:
            return TuplePoly(self.field, ())
        mul = self.field.mul
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] ^= mul(a, b)
        return TuplePoly(self.field, out)

    def scale(self, c: int) -> "TuplePoly":
        mul = self.field.mul
        return TuplePoly(self.field, [mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: "TuplePoly") -> Tuple["TuplePoly", "TuplePoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field, mul = self.field, self.field.mul
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return TuplePoly(field, ()), self
        quot = [0] * (dq + 1)
        inv_lead = field.inv(other.coeffs[-1])
        for shift in range(dq, -1, -1):
            lead = rem[shift + other.degree]
            if lead == 0:
                continue
            c = mul(lead, inv_lead)
            quot[shift] = c
            for i, b in enumerate(other.coeffs):
                if b:
                    rem[shift + i] ^= mul(c, b)
        return TuplePoly(field, quot), TuplePoly(field, rem)

    def __mod__(self, other: "TuplePoly") -> "TuplePoly":
        return divmod(self, other)[1]

    def monic(self) -> "TuplePoly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TuplePoly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly<0>"
        names = {0: "0", 1: "1", 2: "w", 3: "w2"}
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            coef = "" if (c == 1 and e > 0) else names[c]
            if e == 0:
                terms.append(names[c])
            elif e == 1:
                terms.append(f"{coef}x")
            else:
                terms.append(f"{coef}x^{e}")
        return f"Poly<{' + '.join(terms)}>"


def tuple_gcd(a: TuplePoly, b: TuplePoly) -> TuplePoly:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def tuple_powmod(base: TuplePoly, e: int, mod: TuplePoly) -> TuplePoly:
    result = TuplePoly(base.field, (1,))
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def tuple_berlekamp(f: TuplePoly) -> List[TuplePoly]:
    """Irreducible factors of a monic squarefree polynomial, sorted by
    (degree, coefficients).  The nullspace of (Q - I)^T, Q's row i being
    x^(q i) mod f, gives the splitting polynomials v, one per factor; gcd
    against v + c over all field constants c refines the factors until
    there are as many.
    """
    field, d = f.field, f.degree
    xq = tuple_powmod(TuplePoly(field, (0, 1)), field.order, f)
    rows, cur = [], TuplePoly(field, (1,))
    for i in range(d):
        rows.append((list(cur.coeffs) + [0] * d)[:d])
        rows[i][i] ^= 1  # Q - I
        cur = (cur * xq) % f
    basis = mat_nullspace(field, [list(col) for col in zip(*rows)], d)
    factors = [f.monic()]
    for v in basis:
        if len(factors) == len(basis):  # one factor per basis vector
            break
        refined = []
        for g in factors:
            parts = [h for h in (tuple_gcd(g, TuplePoly(field, v) + TuplePoly(field, (c,)))
                                 for c in field.elements()) if h.degree >= 1]
            refined += parts if len(parts) > 1 else [g]
        factors = refined
    return sorted(factors, key=lambda p: (p.degree, p.coeffs))
