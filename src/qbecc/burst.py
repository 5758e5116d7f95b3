"""Quantum burst-error capability analysis and the bound predicates.

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
modulo C), so no burst is enumerated.  A naive all-pairs oracle is kept
alongside for cross-validation at small sizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .stabilizer import F4Vector, ResourceLimitError, StabilizerCode


def qrb(n: int, k: int) -> int:
    """Ceiling on correctable burst length: floor((n-k)/4)."""
    if n <= k:
        return 0
    return (n - k) // 4


def no_cloning_check(n: int, l: int) -> bool:
    """A code with k >= 1 correcting bursts of length l requires n > 4l."""
    return n > 4 * l


@dataclass(frozen=True)
class BurstAnalysis:
    n: int
    k: int
    l: int
    degenerate: bool
    witness: Optional[Tuple[F4Vector, F4Vector]]
    checked_pairs: int
    method: str

    @property
    def saturates(self) -> bool:
        return self.l == qrb(self.n, self.k)


def check_qrb(analysis: BurstAnalysis) -> bool:
    return analysis.l <= qrb(analysis.n, analysis.k)


# ----------------------------------------------------------------------
# Burst enumeration
# ----------------------------------------------------------------------

def _window_lengths(n: int, l: int) -> List[Tuple[int, int]]:
    return [(s, min(l, n - s)) for s in range(n)]


def burst_count(n: int, l: int) -> int:
    """Number of vectors enumerate_bursts(n, l) yields (zero included)."""
    if l == 0:
        return 1
    return 1 + sum(3 * 4 ** (w - 1) for _, w in _window_lengths(n, l))


def _burst_vector(s: int, w: int, c: int) -> Tuple[int, int]:
    """(packed_f4, packed_ab) of the burst with window start s and content
    index c; the first symbol is c // 4^(w-1) + 1, remaining digits base 4
    big-endian."""
    first = (c >> (2 * (w - 1))) + 1
    f4 = first << (2 * s)
    a = (first & 1) << s
    b = (first >> 1) << s
    for t in range(1, w):
        d = (c >> (2 * (w - 1 - t))) & 3
        pos = s + t
        f4 |= d << (2 * pos)
        a |= (d & 1) << pos
        b |= (d >> 1) << pos
    return f4, (a, b)


def enumerate_bursts(n: int, l: int) -> Iterator[F4Vector]:
    """Yield the zero vector, then every vector of burst length in [1, l]
    exactly once, keyed by its first nonzero coordinate."""
    if not 0 <= l <= n:
        raise ValueError(f"burst bound {l} outside [0, {n}]")
    yield F4Vector(n, 0)
    if l == 0:
        return
    for s, w in _window_lengths(n, l):
        for c in range(3 * 4 ** (w - 1)):
            f4, _ = _burst_vector(s, w, c)
            yield F4Vector(n, f4)


# ----------------------------------------------------------------------
# Window-rank engine
# ----------------------------------------------------------------------

def _label_columns(code: StabilizerCode) -> List[int]:
    """Label of X (column 2i) and Z (column 2i+1) at each position i: the
    r syndrome bits high, the 2k logical bits low, from the label table."""
    tab = code.label_table()

    def as_int(words: np.ndarray) -> int:
        return int.from_bytes(words.tobytes(), "little")

    return [(as_int(tab.syndrome[i, c]) << 2 * code.k) | as_int(tab.logical[i, c])
            for i in range(code.n) for c in (1, 2)]


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


def _window_pairs(n: int, l: int) -> List[Tuple[int, range]]:
    """Each s1 with its s2 range: the pairs of windows [s1, s1+l), [s2, s2+l)
    whose unions contain every union of two length-l windows.  An
    overlapping pair spans an interval that lies in the union of [s1, s1+l)
    and [s1+l, s1+2l), or in [n-2l, n) near the end."""
    if 2 * l > n:
        return [(0, range(n - l, n - l + 1))]
    return [(s1, range(s1 + l, n - l + 1)) for s1 in range(n - 2 * l + 1)]


def _check_level_rank(code: StabilizerCode, columns: List[int], l: int):
    """(ok, degenerate, witness, unions ranked) of level l, given the code's
    label columns; on failure the witness is a callable that builds it, so
    only the level just above the answer pays for one."""
    if l == 0:
        return True, False, None, 0
    logical_bits = 2 * code.k
    degenerate = False
    unions = 0
    for s1, s2_range in _window_pairs(code.n, l):
        w1: Dict[int, int] = {}
        failure, dependent = _insert(w1, columns[2 * s1:2 * (s1 + l)], 0, logical_bits)
        degenerate |= dependent
        for s2 in s2_range:
            unions += 1
            if failure is None:
                rest = columns[2 * max(s2, s1 + l):2 * (s2 + l)]
                failure, dependent = _insert(dict(w1), rest, 0, logical_bits)
                degenerate |= dependent
            if failure is not None:
                return (False, degenerate,
                        functools.partial(_union_witness, code, columns, l, s1, s2), unions)
    return True, degenerate, None, unions


def _union_witness(code: StabilizerCode, columns: List[int], l: int,
                   s1: int, s2: int) -> Tuple[F4Vector, F4Vector]:
    """Two distinct bursts of length <= l, on [s1, s1+l) and [s2, s2+l),
    whose sum is in dual(C) \\ C: the null vector outside C that the
    union's elimination found, each column tracked by one low bit."""
    positions = [*range(s1, s1 + l), *range(max(s2, s1 + l), s2 + l)]
    cols = [2 * p + z for p in positions for z in (0, 1)]
    m = len(cols)
    failure, _ = _insert({}, [(columns[c] << m) | (1 << j) for j, c in enumerate(cols)],
                         m, 2 * code.k)
    assert failure is not None, "the union holds no logical operator"
    parts = [0, 0]
    for j, c in enumerate(cols):
        if (failure >> j) & 1:
            parts[j >= 2 * l] |= (1 + (c & 1)) << (2 * (c >> 1))
    return F4Vector(code.n, parts[0]), F4Vector(code.n, parts[1])


# ----------------------------------------------------------------------
# All-pairs oracle
# ----------------------------------------------------------------------

def _check_level_oracle(code: StabilizerCode, l: int):
    n = code.n
    if l == 0:
        return True, False, None, 0
    if burst_count(n, l) > 20000:
        raise ResourceLimitError("oracle method is for small codes only")
    vecs = [(0, 0)]
    for s, w in _window_lengths(n, l):
        for c in range(3 * 4 ** (w - 1)):
            f4, (a, b) = _burst_vector(s, w, c)
            vecs.append((f4, a | (b << n)))
    degenerate = False
    pairs = 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            u = vecs[i][1] ^ vecs[j][1]
            pairs += 1
            if code.in_dual(u):
                if not code.contains(u):
                    witness = (F4Vector(n, vecs[i][0]), F4Vector(n, vecs[j][0]))
                    return False, degenerate, witness, pairs
                degenerate = True
    return True, degenerate, None, pairs


def quantum_burst_capability(code: StabilizerCode, method: str = "window-rank") -> BurstAnalysis:
    """Largest correctable burst length, degeneracy flag, and witness.

    Candidates descend from the (n-k)/4 ceiling; the first passing level is
    the capability, and the witness (if any) certifies failure one above it.
    """
    if method == "window-rank":
        check = functools.partial(_check_level_rank, code, _label_columns(code))
    elif method == "oracle":
        check = functools.partial(_check_level_oracle, code)
    else:
        raise KeyError(method)
    n, k = code.n, code.k
    ceiling = qrb(n, k)
    witness = None
    total_pairs = 0
    for cand in range(ceiling, -1, -1):
        ok, degenerate, wit, pairs = check(cand)
        total_pairs += pairs
        if ok:
            if callable(witness):
                witness = witness()
            analysis = BurstAnalysis(n, k, cand, degenerate, witness, total_pairs, method)
            assert check_qrb(analysis)
            assert k < 1 or no_cloning_check(n, analysis.l)
            return analysis
        witness = wit
    raise AssertionError("level 0 cannot fail")


def located_burst_check(code: StabilizerCode, start: int, span: int) -> bool:
    """True iff every pair of errors supported on [start, start+span) has a
    sum outside dual(C) \\ C: the one-window case of the level check, as the
    sums of such pairs are exactly the vectors supported on the window."""
    n = code.n
    if span < 0 or start < 0 or start + span > n:
        raise ValueError(f"window [{start}, {start + span}) outside length {n}")
    window = _label_columns(code)[2 * start:2 * (start + span)]
    failure, _ = _insert({}, window, 0, 2 * code.k)
    return failure is None


__all__ = [
    "BurstAnalysis", "qrb", "check_qrb", "no_cloning_check",
    "burst_count", "enumerate_bursts", "quantum_burst_capability",
    "located_burst_check",
]
