"""Burst-error capability of quantum and classical codes, and the bound
predicates.

The capability of a stabilizer code is the largest l such that any two
distinct error vectors of burst length <= l have a sum outside
dual(C) \\ C.  Equivalently: whenever two bursts share a syndrome, their
sum must lie in the stabilizer itself (a harmless, degenerate collision).

Two bursts of length <= l differ by a vector on the union of two length-l
windows, and every such vector splits into two such bursts (Reiger's
argument).  So a level fails iff some union supports an element of
dual(C) \\ C, and is degenerate iff some union supports a nonzero element
of C.  The engine decides both by GF(2) elimination of the union's label
columns (syndrome bits above logical bits; the label map is injective
modulo C), so no burst is enumerated.  A classical code is the case with
no stabilizer: its level holds iff no nonzero codeword lies on a union.

Every code the CLI analyzes is cyclic, so its stabilizer is invariant
under the cyclic shift of positions and the engine ranks only the unions
[0, l) + [d, d+l) with d in [l, n/2]: a union at distance d is the shift
of the one from 0, and of [0, l) + [n-d, n-d+l) (Peterson and Weldon's
shift argument for classical cyclic burst codes).  Its label columns come
straight from the generators, with no matrix: a cyclic code's coset label
is a polynomial remainder (MacWilliams and Sloane, ch. 7), found for every
position by one shift-and-reduce walk (hermitian_columns, css_columns, from
classical.remainder_walk, the walk that also writes a cyclic code's
check rows).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .classical import LinearCode
from .gf import _multiples, _w_times
from .stabilizer import F4Vector


def qrb(n: int, k: int) -> int:
    """Ceiling on correctable burst length: floor((n-k)/4)."""
    if n <= k:
        return 0
    return (n - k) // 4


def no_cloning_check(n: int, l: int) -> bool:
    """A code with k >= 1 correcting bursts of length l requires n > 4l."""
    return n > 4 * l


class BurstAnalysis(NamedTuple):
    n: int
    k: int
    l: int
    degenerate: bool
    witness: Optional[Tuple[F4Vector, F4Vector]]
    checked_pairs: int

    @property
    def saturates(self) -> bool:
        return self.l == qrb(self.n, self.k)


def check_qrb(analysis: BurstAnalysis) -> bool:
    return analysis.l <= qrb(analysis.n, analysis.k)


def burst_count(n: int, l: int) -> int:
    """Number of vectors of burst length <= l on n positions, zero included:
    per start s, 3 * 4^(w-1) bursts whose window [s, s+w) has w = min(l, n-s)."""
    if l == 0:
        return 1
    return 1 + sum(3 * 4 ** (min(l, n - s) - 1) for s in range(n))


# ----------------------------------------------------------------------
# Window-rank engine
# ----------------------------------------------------------------------

def _insert(basis: Dict[int, int], columns: Iterable[int], shift: int,
            logical_bits: int) -> Tuple[Optional[int], bool]:
    """Reduce each column against an msb-keyed GF(2) basis and add what is
    left as a new pivot.  Bits below shift are bookkeeping; the label sits
    above them.  Returns (failure, dependent): failure is the first reduced
    column whose label is nonzero with no syndrome bit (a logical pivot),
    or None; dependent is True if a column reduced to a zero label."""
    dependent = False
    for v in columns:
        while v >> shift:
            pivot = basis.get(v.bit_length())
            if pivot is None:
                break
            v ^= pivot
        label = v >> shift
        if not label:
            dependent = True
        elif not label >> logical_bits:
            return v, dependent
        else:
            basis[v.bit_length()] = v
    return None, dependent


def _window_pairs(n: int, l: int, end_around: bool = False) -> List[Tuple[int, range]]:
    """Each s1 with its s2 range: the pairs of windows [s1, s1+l), [s2, s2+l)
    whose unions contain every union of two length-l windows.  An
    overlapping pair spans an interval that lies in the union of [s1, s1+l)
    and [s1+l, s1+2l), or in [n-2l, n) near the end.  With end_around the
    windows are cyclic (positions mod n, 2l <= n): s2 - s1 runs over
    [l, n/2], as a pair at distance d > n/2 is the pair from s2 at n - d."""
    if end_around:
        return [(s1, range(s1 + l, s1 + n // 2 + 1)) for s1 in range(n)]
    if 2 * l > n:
        return [(0, range(n - l, n - l + 1))]
    return [(s1, range(s1 + l, n - l + 1)) for s1 in range(n - 2 * l + 1)]


def _rank_unions(columns: Sequence[int], width: int, l: int, logical_bits: int,
                 pairs: List[Tuple[int, range]], shift: int):
    """Eliminate every union of the window pairs, width columns per
    position (columns[width*p:width*(p+1)] belong to position p).  Returns
    (failure, (s1, s2), degenerate, unions ranked): failure as _insert
    (labels above shift) reports it for the first union that has one, or
    None; degenerate if some column of a ranked union reduced to a zero label."""
    degenerate = False
    unions = 0
    for s1, s2_range in pairs:
        w1: Dict[int, int] = {}
        failure, dependent = _insert(w1, columns[width * s1:width * (s1 + l)], shift, logical_bits)
        degenerate |= dependent
        for s2 in s2_range:
            unions += 1
            if failure is None:
                rest = columns[width * max(s2, s1 + l):width * (s2 + l)]
                failure, dependent = _insert(dict(w1), rest, shift, logical_bits)
                degenerate |= dependent
            if failure is not None:
                return failure, (s1, s2), degenerate, unions
    return None, None, degenerate, unions


def _split(failure: int, bits: int, cut: int) -> Tuple[int, int]:
    """The tracking bits (the low bits) of a failing column, a null vector
    on a window union, cut at bit cut: its part on the first window, the rest."""
    null = failure & ((1 << bits) - 1)
    first = null & ((1 << cut) - 1)
    return first, null ^ first


def _check_level_rank(n: int, k: int, columns: Sequence[int], l: int, cyclic: bool):
    """(ok, degenerate, witness, unions ranked) of level l, given the code's
    label columns; a failure's witness is the null vector outside C that the
    failing union's elimination found, split between its two windows."""
    if l == 0:
        return True, False, None, 0
    # on a cyclic code the pairs from s1 = 0 alone (see _window_pairs)
    pairs = [(0, range(l, n // 2 + 1))] if 2 * l <= n and cyclic else _window_pairs(n, l)
    failure, pair, degenerate, unions = _rank_unions(columns, 2, l, 2 * k, pairs, 2 * n)
    if failure is None:
        return True, degenerate, None, unions
    first, rest = _split(failure, 2 * n, 2 * (pair[0] + l))
    return False, degenerate, (F4Vector(n, first), F4Vector(n, rest)), unions


def quantum_burst_capability(n: int, k: int, columns: Sequence[int]) -> BurstAnalysis:
    """Largest correctable burst length, degeneracy flag, and witness of
    the cyclic [[n, k]] code with these label columns (hermitian_columns,
    css_columns).

    Candidates descend from the (n-k)/4 ceiling; the first passing level is
    the capability, and the witness (if any) certifies failure one above it.
    """
    witness = None
    total_pairs = 0
    for cand in range(qrb(n, k), -1, -1):
        ok, degenerate, wit, pairs = _check_level_rank(n, k, columns, cand, True)
        total_pairs += pairs
        if ok:
            analysis = BurstAnalysis(n, k, cand, degenerate, witness, total_pairs)
            assert check_qrb(analysis)
            assert k < 1 or no_cloning_check(n, analysis.l)
            return analysis
        witness = wit
    raise AssertionError("level 0 cannot fail")


# ----------------------------------------------------------------------
# Label columns of cyclic codes, from their generators
# ----------------------------------------------------------------------
#
# Column 2i is the label of X at position i and column 2i+1 that of Z,
# above 2n tracking bits: column j carries bit j, so the tracking bits of a
# sum of columns are its Pauli in F4Vector packing.  A label is the r
# syndrome bits above the 2k logical bits.
#
# Let g generate the cyclic code that dual(C) comes from, and g m the
# generator of the one C comes from.  The label of an error e(x) is
# e mod g m, written q g + s with deg s < deg g: its kernel is <g m>, and
# s = e mod g is zero exactly on <g>, so s is the syndrome and q the
# logical part.  From x^i to x^(i+1) both take one shift and one
# reduction: s' = x s - c g, where c is the coefficient of x^(deg g) in
# x s (classical.remainder_walk), and q' = (x q + c) mod m.

def _quotients(walk: Tuple[int, List[int], List[int]], m: int, bits: int) -> List[int]:
    """The logical part q of x^i for every step of a remainder walk of g,
    for the label modulus g m (m packed and monic): q starts at 1 div g
    and moves to (x q + c) mod m."""
    degree, _, carries = walk
    top, multiples = bits * ((m.bit_length() - 1) // bits), _multiples(m, bits)
    q = 0 if degree else 1
    quotients = []
    for c in carries:
        q ^= multiples[q >> top]
        quotients.append(q)
        q = q << bits | c
    return quotients


def hermitian_columns(n: int, walk, m: int) -> Tuple[int, List[int]]:
    """(k, label columns) of the Hermitian construction from the GF(4)
    code D = <g> of length n, given walk = remainder_walk(g, n) and the
    packed m = g*/g.  Here g* is the monic conjugate reciprocal of
    (x^n - 1)/g, which generates the stabilizer D^perp_h; D contains it
    exactly when g divides g*.

    X at position i is the error 1 * x^i and Z is w * x^i, so the Z label is
    w times the X label symbol by symbol; the label of x^i is
    s << 2k | q in 2-bit symbols, and k = deg m."""
    k = (m.bit_length() - 1) // 2
    ones = (4 ** n - 1) // 3
    columns = []
    for i, (s, q) in enumerate(zip(walk[1], _quotients(walk, m, 2))):
        x = s << 2 * k | q
        columns += (x << 2 * n | 1 << 2 * i, _w_times(x, ones) << 2 * n | 2 << 2 * i)
    return k, columns


def css_columns(n: int, walk1, m2: int, walk2, m1: int) -> Tuple[int, List[int]]:
    """(k, label columns) of the CSS construction from binary codes
    C1 = <g1> and C2 = <g2> of length n with the dual of C2 in C1, given
    their remainder walks and the packed m1 = g1perp/g2 and m2 = g2perp/g1;
    gperp is the monic reciprocal of (x^n - 1)/g, which generates the dual.

    X^a Z^b has the X part a mod g1perp, split by g2, and the Z part
    b mod g2perp, split by g1; both syndromes sit above both logical parts:
    s_x << (deg g1 + 2k) | s_z << 2k | q_x << k | q_z, and k = deg m1."""
    k, d1 = m1.bit_length() - 1, walk1[0]
    xs = zip(walk2[1], _quotients(walk2, m1, 1))
    zs = zip(walk1[1], _quotients(walk1, m2, 1))
    columns = []
    for i, ((sx, qx), (sz, qz)) in enumerate(zip(xs, zs)):
        x = sx << d1 + 2 * k | qx << k
        columns += (x << 2 * n | 1 << 2 * i, (sz << 2 * k | qz) << 2 * n | 2 << 2 * i)
    return k, columns


# ----------------------------------------------------------------------
# Classical codes
# ----------------------------------------------------------------------

class BurstCapability(NamedTuple):
    l: int
    end_around: bool
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None


def classical_burst_capability(code: LinearCode, end_around: bool = False) -> BurstCapability:
    """Largest l, up to the Reiger ceiling (n-k)/2, with all bursts of
    length <= l having distinct syndromes (cyclic bursts if end_around).

    The columns are the GF(2) images of the check-matrix columns (column i
    times each field element 1 << t, symbols packed `bits` bits each), so
    GF(2) independence is GF(q) independence.  Image j carries tracking
    bit j as its logical bit: a union fails when an image reduces to a
    zero syndrome, and the failure's tracking bits are a codeword on the
    union.  Its part on the first window and the rest are the witness.
    """
    field, n = code.field, code.n
    bits = field.order.bit_length() - 1
    images = [sum(field.mul(1 << t, h[i]) << (bits * j) for j, h in enumerate(code.check_rows))
              for i in range(n) for t in range(bits)]
    # a second copy makes every cyclic window a slice
    images *= 2 if end_around else 1
    m = len(images)
    columns = [(h << m) | (1 << j) for j, h in enumerate(images)]

    def symbols(v: int) -> Tuple[int, ...]:
        v |= v >> (bits * n)
        return tuple((v >> (bits * i)) & (field.order - 1) for i in range(n))

    ceiling = (n - code.k) // 2
    for l in range(1, ceiling + 1):
        failure, pair, _, _ = _rank_unions(columns, bits, l, m, _window_pairs(n, l, end_around), 0)
        if failure is not None:
            first, rest = _split(failure, m, bits * (pair[0] + l))
            return BurstCapability(l - 1, end_around, (symbols(first), symbols(rest)))
    return BurstCapability(ceiling, end_around)


__all__ = [
    "BurstAnalysis", "qrb", "check_qrb", "no_cloning_check",
    "burst_count", "quantum_burst_capability",
    "hermitian_columns", "css_columns",
    "BurstCapability", "classical_burst_capability",
]
