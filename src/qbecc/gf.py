"""Exact arithmetic for GF(2), GF(4), GF(2^m), GF(4^m), polynomials over
GF(2) and GF(4), and the irreducible factors of x^n - 1 for odd n, split
by the sums over its cyclotomic cosets (berlekamp_factor).

Element encodings (all characteristic 2, so addition is always XOR and no
field object carries an add):

* GF(2): ints 0, 1.
* GF(q^m), q = 2 or 4: ints 0 .. q^m-1, packed digit vectors (1 or 2 bits
  per base-field coefficient, lowest degree first) in the power basis of a
  fixed irreducible modulus.  Multiplication runs on log/antilog tables.
* GF(4) is GF(2^2) in the power basis {1, x} of x^2 + x + 1: ints 0, 1,
  2, 3 stand for 0, 1, w, w^2 with w = x, so code 3 = 0b11 = 1 + w = w^2.

The moduli below are pinned constants so every build expands extension
field elements into identical base-field coordinate matrices.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .linalg import _SYMBOL


class BinaryField:
    """GF(2) with the same element-int API as the larger fields."""

    order = 2
    name = "GF(2)"

    @staticmethod
    def mul(a: int, b: int) -> int:
        return a & b

    @staticmethod
    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2)")
        return 1

    @staticmethod
    def conj(a: int) -> int:
        return a

    @staticmethod
    def elements() -> range:
        return range(2)

    def __repr__(self) -> str:
        return self.name


GF2 = BinaryField()


class UnsupportedDegreeError(ValueError):
    """Requested extension degree has no pinned modulus."""


# Irreducible moduli over GF(4), coefficients lowest degree first including
# the x^m term.  Chosen so the class of x is a multiplicative generator.
_EXT4_MODULI = {
    1: (2, 1),
    2: (2, 1, 1),
    3: (2, 1, 1, 1),
    4: (2, 0, 1, 1, 1),
    5: (2, 0, 0, 0, 1, 1),
    6: (2, 0, 0, 0, 1, 3, 1),
    7: (2, 0, 0, 0, 0, 1, 1, 1),
    8: (2, 0, 0, 0, 0, 2, 0, 2, 1),
}

# Primitive polynomials over GF(2), bit i = coefficient of x^i.
_EXT2_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}

# base field -> {degree: modulus}; GF(4) joins once it is built over GF(2)
_EXT_MODULI = {
    GF2: {m: tuple((mask >> i) & 1 for i in range(m + 1))
          for m, mask in _EXT2_MODULI.items()},
}


class ExtField:
    """GF(q^m) over base = GF(2) or GF(4): elements are ints packing the m
    base-field coordinates in the power basis (lowest degree first, 1 or 2
    bits each); multiplication via log/antilog tables, x primitive."""

    def __init__(self, base, m: int):
        if base not in _EXT_MODULI:
            raise ValueError(f"extension fields are built over GF(2) or GF(4), not {base!r}")
        q = base.order
        if m not in _EXT_MODULI[base]:
            raise UnsupportedDegreeError(
                f"no pinned modulus for GF({q}^{m}); supported m: {sorted(_EXT_MODULI[base])}")
        self.base = base
        self.m = m
        self.width = q.bit_length() - 1  # bits per coordinate
        self.order = q ** m
        self.modulus = _EXT_MODULI[base][m]
        self.name = f"GF({q}^{m})"
        # x * e: shift every coordinate up one degree and fold the top one
        # back through x^m = sum of the lower modulus terms (char 2)
        xm_images = [self.from_digits(base.mul(c, d) for d in self.modulus[:m])
                     for c in base.elements()]
        top_shift = self.width * (m - 1)
        n = self.order - 1
        exp = [0] * (2 * n)
        log = [0] * self.order
        val = 1
        for i in range(n):
            exp[i] = val
            log[val] = i
            val = ((val << self.width) & n) ^ xm_images[val >> top_shift]
        if val != 1:
            raise AssertionError(f"x is not primitive for modulus of {self.name}")
        exp[n:] = exp[:n]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.name}")
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def conj(self, a: int) -> int:
        """Frobenius a -> a^q over the base field GF(q); on GF(4) it swaps
        w and w^2."""
        return self.pow(a, self.base.order)

    def elements(self) -> range:
        return range(self.order)

    def digits(self, e: int) -> Tuple[int, ...]:
        """Base-field coordinates of e in the power basis, lowest degree first."""
        mask = self.base.order - 1
        return tuple((e >> (self.width * i)) & mask for i in range(self.m))

    def from_digits(self, digits: Iterable[int]) -> int:
        mask = self.base.order - 1
        e = 0
        for i, d in enumerate(digits):
            e |= (d & mask) << (self.width * i)
        return e

    def __repr__(self) -> str:
        return self.name


GF4 = ExtField(GF2, 2)
GF4.name = "GF(4)"
_EXT_MODULI[GF4] = _EXT4_MODULI


# ----------------------------------------------------------------------
# Polynomials over GF(2) and GF(4), packed
# ----------------------------------------------------------------------

def _w_times(v: int, ones: int) -> int:
    """w times every GF(4) symbol of v, a0 + a1 w -> a1 + (a0 + a1) w;
    ones is 0b0101... over at least the symbols of v."""
    lo, hi = v & ones, v >> 1 & ones
    return hi | (lo ^ hi) << 1


def _multiples(v: int, bits: int) -> Tuple[int, ...]:
    """c * v for every symbol c, indexed by c, for v packed in bits-bit
    symbols."""
    if bits == 1:
        return 0, v
    wv = _w_times(v, (1 << (v.bit_length() | 1) + 1) // 3)
    return 0, v, wv, v ^ wv


def _times(a: int, b: int, bits: int) -> int:
    """The product of two packed polynomials of bits-bit symbols."""
    multiples, digit = _multiples(a, bits), (1 << bits) - 1
    out = shift = 0
    while b:
        out ^= multiples[b & digit] << shift
        b >>= bits
        shift += bits
    return out


class Poly:
    """Univariate polynomial over GF(2) or GF(4), packed into one int:
    coefficient i at symbol i of 1 or 2 bits (the F4Vector packing over
    GF(4)).  A sum is an XOR and x^j times p is p << (bits * j); the zero
    polynomial packs to 0, has no coefficients and degree -1.
    """

    __slots__ = ("field", "packed")

    def __init__(self, field, coeffs: Iterable[int]):
        if field is not GF2 and field is not GF4:
            raise ValueError(f"polynomials are over GF(2) or GF(4), not {field!r}")
        self.field = field
        # read from the last one, the coefficients spell the int in base 2 or 4
        self.packed = int(bytes(coeffs)[::-1].translate(_SYMBOL) or b"0", field.order)

    @classmethod
    def from_packed(cls, field, packed: int) -> "Poly":
        p = cls.__new__(cls)
        p.field, p.packed = field, packed
        return p

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, (1,))

    @property
    def bits(self) -> int:
        return 1 if self.field is GF2 else 2

    @property
    def degree(self) -> int:
        return (self.packed.bit_length() - 1) // self.bits

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The coefficients, lowest degree first, with no trailing zeros."""
        v, bits = self.packed, self.bits
        digit = (1 << bits) - 1
        # from a list, so the tuple is made at its final size: a tuple grown
        # from a generator is resized, and freed ones pile up on free lists
        return tuple([v >> i & digit for i in range(0, v.bit_length(), bits)])

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.from_packed(self.field, self.packed ^ other.packed)  # char 2

    __sub__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly.from_packed(self.field, _times(self.packed, other.packed, self.bits))

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        """Long division by other made monic, one symbol a step; the
        quotient is then scaled by the same inverse of other's lead."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field, bits, top = self.field, self.bits, other.degree
        inv_lead = field.inv(other.packed >> bits * top)
        multiples = _multiples(_multiples(other.packed, bits)[inv_lead], bits)
        rem, quot = self.packed, 0
        for shift in range(bits * (self.degree - top), -1, -bits):
            c = rem >> bits * top + shift
            if c:
                rem ^= multiples[c] << shift
                quot |= c << shift
        return (Poly.from_packed(field, _multiples(quot, bits)[inv_lead]),
                Poly.from_packed(field, rem))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        lead = self.packed >> self.bits * max(self.degree, 0)
        if lead <= 1:
            return self
        return Poly.from_packed(self.field,
                                _multiples(self.packed, self.bits)[self.field.inv(lead)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field is other.field
                and self.packed == other.packed)

    def __hash__(self) -> int:
        return hash((id(self.field), self.packed))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly<0>"
        names = {0: "0", 1: "1", 2: "w", 3: "w2"}
        terms = []
        coeffs = self.coeffs
        for e in range(self.degree, -1, -1):
            c = coeffs[e]
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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def xn_minus_1(n: int, field) -> Poly:
    """x^n - 1, which in characteristic 2 is x^n + 1."""
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    coeffs[n] = 1
    return Poly(field, coeffs)


def berlekamp_factor(f: Poly) -> List[Poly]:
    """The irreducible factors of f = x^n - 1, n odd, sorted by (degree,
    coefficients); any other f raises ValueError.

    Berlekamp's splitting polynomials, the h with h^q = h mod f, are
    written down rather than solved for: as h(x)^q = h(x^q) in
    characteristic 2, the sum of x^i over each q-cyclotomic coset of n
    (i -> q i mod n) is one, and these sums have disjoint supports and one
    per irreducible factor, so they are a basis (Berlekamp 1967; MacWilliams
    and Sloane, ch. 7).  Each is a field constant modulo every factor, so
    gcd(g, h + c) over the constants c splits the factors it separates.
    """
    field, n, bits = f.field, f.degree, f.bits
    if n < 1 or n % 2 == 0 or f.packed != 1 | 1 << bits * n:
        raise ValueError(f"berlekamp_factor factors x^n - 1 for odd n only, not {f!r}")
    q = field.order
    seen = [False] * n
    basis = []
    for s in range(1, n):
        h, t = 0, s
        while not seen[t]:
            seen[t] = True
            h |= 1 << bits * t
            t = t * q % n
        if h:
            basis.append(Poly.from_packed(field, h))
    n_factors = len(basis) + 1  # with the coset {0}, whose sum 1 splits nothing
    factors = [f]
    for h in basis:
        if len(factors) == n_factors:
            break
        next_factors: List[Poly] = []
        for g in factors:
            if g.degree <= 1:
                next_factors.append(g)
                continue
            parts = []
            for c in field.elements():
                part = poly_gcd(g, h + Poly.from_packed(field, c))
                if part.degree >= 1:
                    parts.append(part)
            next_factors.extend(parts if len(parts) > 1 else [g])
        factors = next_factors
    return sorted(factors, key=lambda p: (p.degree, p.coeffs))


__all__ = [
    "GF2", "GF4", "BinaryField", "ExtField", "UnsupportedDegreeError",
    "Poly", "poly_gcd", "xn_minus_1",
    "berlekamp_factor",
]
