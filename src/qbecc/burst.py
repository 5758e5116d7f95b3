"""Quantum burst-error capability analysis and the bound predicates.

The capability of a stabilizer code is the largest l such that any two
distinct error vectors of burst length <= l have a sum outside
dual(C) \\ C.  Equivalently: whenever two bursts share a syndrome, their
sum must lie in the stabilizer itself (a harmless, degenerate collision).

The production engine enumerates every burst once, computes all syndromes
as packed uint64 words with vectorized XOR folding from the code's cached
label table, and sorts them.  The bursts whose syndrome occurs more than
once are then resolved in one vectorized pass: each gets its 2k logical
label bits from the same table, and a collision is harmful exactly when
a burst's logical bits differ from those of the first burst sharing its
syndrome.  A naive all-pairs oracle is kept alongside for
cross-validation at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .linalg import gf2_nullspace
from .stabilizer import F4Vector, ResourceLimitError, StabilizerCode

MAX_BURSTS_PER_LEVEL = 1 << 27


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
# Syndrome-hash engine
# ----------------------------------------------------------------------

def _level_syndromes(n: int, l: int, syn: np.ndarray) -> np.ndarray:
    """Syndromes of every burst of length <= l, index 0 the zero vector,
    then the enumerate_bursts order; syn is the uint64 [position, symbol]
    table of single-coordinate syndromes."""
    windows = _window_lengths(n, l) if l > 0 else []
    out = np.zeros(1 + sum(3 * 4 ** (w - 1) for _, w in windows), dtype=np.uint64)
    base = 1
    for s, w in windows:
        arr = syn[s, 1:4]
        for t in range(1, w):
            arr = (arr[:, None] ^ syn[s + t][None, :]).reshape(-1)
        out[base:base + arr.size] = arr
        base += arr.size
    return out


def _index_to_vector(n: int, l: int, idx: int) -> Tuple[int, Tuple[int, int]]:
    if idx == 0:
        return 0, (0, 0)
    base = 1
    for s, w in _window_lengths(n, l):
        cnt = 3 * 4 ** (w - 1)
        if idx < base + cnt:
            return _burst_vector(s, w, idx - base)
        base += cnt
    raise IndexError(idx)


def _burst_labels(n: int, l: int, logical: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Logical label words [len(idx), words] of the bursts at the given
    level-l enumeration indices: the vectorized form of _index_to_vector."""
    windows = _window_lengths(n, l)
    starts = np.array([s for s, _ in windows], dtype=np.int64)
    widths = np.array([w for _, w in windows], dtype=np.int64)
    bases = np.cumsum(np.concatenate(([1], 3 * 4 ** (widths[:-1] - 1))))
    win = np.maximum(np.searchsorted(bases, idx, side="right") - 1, 0)
    start, width, c = starts[win], widths[win], idx - bases[win]
    labels = np.zeros((idx.size, logical.shape[2]), dtype=np.uint64)
    for t in range(l):
        inside = (idx > 0) & (t < width)
        digit = c >> np.where(inside, 2 * (width - 1 - t), 0)
        digit = digit + 1 if t == 0 else digit & 3
        labels ^= logical[np.minimum(start + t, n - 1), np.where(inside, digit, 0)]
    return labels


def _colliding(syns: np.ndarray, dup_vals: np.ndarray) -> np.ndarray:
    """Ascending indices of the syndromes found in the sorted dup_vals, in
    blocks so the temporaries stay small next to syns."""
    block = 1 << 20
    hits = []
    for lo in range(0, syns.size, block):
        part = syns[lo:lo + block]
        pos = np.searchsorted(dup_vals, part)
        np.minimum(pos, dup_vals.size - 1, out=pos)
        hits.append(np.flatnonzero(dup_vals[pos] == part) + lo)
    return np.concatenate(hits)


def _check_level_hash(code: StabilizerCode, l: int):
    n = code.n
    if l == 0:
        return True, False, None, 0
    total = burst_count(n, l)
    if total > MAX_BURSTS_PER_LEVEL:
        raise ResourceLimitError(
            f"level {l} needs {total} bursts, limit {MAX_BURSTS_PER_LEVEL}")
    tab = code.label_table()
    if tab.syndrome.shape[2] > 1:
        raise ResourceLimitError(f"{code.r} syndrome bits exceed one 64-bit word")
    syns = _level_syndromes(n, l, tab.syndrome[:, :, 0])
    s_sorted = np.sort(syns)
    dup_mask = s_sorted[1:] == s_sorted[:-1]
    if not dup_mask.any():
        return True, False, None, 0
    dup_vals = np.unique(s_sorted[1:][dup_mask])
    del s_sorted, dup_mask
    # colliding bursts grouped by ascending syndrome, each group in
    # enumeration order; the first member of a group stands for the group
    hit = _colliding(syns, dup_vals)
    hit = hit[np.argsort(syns[hit], kind="stable")]
    hs = syns[hit]
    first = np.ones(hit.size, dtype=bool)
    first[1:] = hs[1:] != hs[:-1]
    rep = np.flatnonzero(first)[np.cumsum(first) - 1]
    labels = _burst_labels(n, l, tab.logical, hit)
    # same syndrome: the sum lies in dual(C), and in C iff the labels agree
    harmful = np.flatnonzero((labels != labels[rep]).any(axis=1))
    if harmful.size == 0:
        pairs = int(hit.size - first.sum())
        return True, pairs > 0, None, pairs
    f = int(harmful[0])
    pairs = f + 1 - int(first[:f + 1].sum())
    rep_f4, _ = _index_to_vector(n, l, int(hit[rep[f]]))
    f4, _ = _index_to_vector(n, l, int(hit[f]))
    return False, pairs > 1, (F4Vector(n, rep_f4), F4Vector(n, f4)), pairs


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


def quantum_burst_capability(code: StabilizerCode, method: str = "syndrome-hash") -> BurstAnalysis:
    """Largest correctable burst length, degeneracy flag, and witness.

    Candidates descend from the (n-k)/4 ceiling; the first passing level is
    the capability, and the witness (if any) certifies failure one above it.
    """
    check = {"syndrome-hash": _check_level_hash, "oracle": _check_level_oracle}[method]
    n, k = code.n, code.k
    ceiling = qrb(n, k)
    witness = None
    total_pairs = 0
    for cand in range(ceiling, -1, -1):
        ok, degenerate, wit, pairs = check(code, cand)
        total_pairs += pairs
        if ok:
            analysis = BurstAnalysis(n, k, cand, degenerate, witness, total_pairs, method)
            assert check_qrb(analysis)
            assert k < 1 or no_cloning_check(n, analysis.l)
            return analysis
        witness = wit
    raise AssertionError("level 0 cannot fail")


def located_burst_check(code: StabilizerCode, start: int, span: int) -> bool:
    """True iff every pair of errors supported on [start, start+span) has a
    sum outside dual(C) \\ C.

    The sums of such pairs are exactly the vectors supported on the window,
    so this reduces to: the window-supported subspace of dual(C) lies in C.
    """
    n = code.n
    if span < 0 or start < 0 or start + span > n:
        raise ValueError(f"window [{start}, {start + span}) outside length {n}")
    if span == 0:
        return True
    constraints = []
    for sw in code._swapped:
        row = 0
        for t in range(span):
            pos = start + t
            row |= ((sw >> pos) & 1) << (2 * t)            # a variable
            row |= ((sw >> (n + pos)) & 1) << (2 * t + 1)  # b variable
        constraints.append(row)
    for sol in gf2_nullspace(constraints, 2 * span):
        a = b = 0
        for t in range(span):
            a |= ((sol >> (2 * t)) & 1) << (start + t)
            b |= ((sol >> (2 * t + 1)) & 1) << (start + t)
        if not code.contains(a | (b << n)):
            return False
    return True


__all__ = [
    "BurstAnalysis", "qrb", "check_qrb", "no_cloning_check",
    "burst_count", "enumerate_bursts", "quantum_burst_capability",
    "located_burst_check", "MAX_BURSTS_PER_LEVEL",
]
