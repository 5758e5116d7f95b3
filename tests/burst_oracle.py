"""Reference level checks for the window-rank engine of qbecc.burst: two
built on an explicit enumeration of the bursts of length <= l, and the
engine's own check of a single window.

* label_columns is the engine's input for any StabilizerCode, from the
  dual-basis labels label_oracle.label_ints (the CLI builds cyclic codes'
  columns from their generators instead), and is_cyclic tells whether the
  code is shift-invariant, which lets the engine rank only the unions from 0;
  check_level runs one level of the engine on both, and capability walks
  the levels with it.

* The all-pairs oracle tests every pair of bursts for a sum in
  dual(C) \\ C; oracle_capability walks the levels with it.
* located_burst_check eliminates the label columns of one window, the
  sums of pairs of errors on it.
* The syndrome-hash check is the engine that the window-rank one replaced:
  it sorts the bursts' uint64 syndromes and tells the colliding bursts
  apart by their logical label bits.  Its results are pinned in
  data/burst_pins.json, recorded when stabilizer rows were packed as split
  halves (X bits of positions 0..n-1, then Z bits): its syndromes are taken
  against the reduced basis in that column order, so that the collision
  groups come in the recorded order.
"""

from __future__ import annotations

import weakref
from typing import Iterator, List, Tuple

import numpy as np

from conftest import contains, in_dual
from qbecc.burst import BurstAnalysis, _check_level_rank, _insert, burst_count, qrb
from qbecc.linalg import gf2_row_reduce
from qbecc.stabilizer import F4Vector, ResourceLimitError, StabilizerCode
from label_oracle import label_ints, label_table

MAX_BURSTS_PER_LEVEL = 1 << 27


# ----------------------------------------------------------------------
# The engine's input from a StabilizerCode
# ----------------------------------------------------------------------

def label_columns(code: StabilizerCode) -> List[int]:
    """Label of X (column 2i) and Z (column 2i+1) at each position i, above
    2n tracking bits: column j carries bit j, so the tracking bits of a sum
    of columns are its Pauli in F4Vector packing."""
    m = 2 * code.n
    labels = (label for labels in label_ints(code) for label in labels[1:3])
    return [(label << m) | (1 << j) for j, label in enumerate(labels)]


_CYCLIC: "weakref.WeakKeyDictionary[StabilizerCode, bool]" = weakref.WeakKeyDictionary()


def is_cyclic(code: StabilizerCode) -> bool:
    """True iff the cyclic shift of positions (i -> i+1 mod n) maps the
    stabilizer to itself: every basis row, rotated by one symbol (two
    bits), stays in the span.  The shift preserves the symplectic form,
    so dual(C) \\ C is then invariant too.  Tested once per code.
    """
    if code not in _CYCLIC:
        m = 2 * code.n
        full = (1 << m) - 1
        _CYCLIC[code] = all(contains(code, ((row << 2) & full) | (row >> (m - 2)))
                            for row in code.basis)
    return _CYCLIC[code]


def check_level(code: StabilizerCode, l: int):
    """The engine's (ok, degenerate, witness, unions ranked) of level l,
    from the code's matrix labels, on the shift path iff is_cyclic."""
    return _check_level_rank(code.n, code.k, label_columns(code), l, is_cyclic(code))


# ----------------------------------------------------------------------
# Burst enumeration
# ----------------------------------------------------------------------

def _window_lengths(n: int, l: int) -> List[Tuple[int, int]]:
    return [(s, min(l, n - s)) for s in range(n)]


def _burst_vector(s: int, w: int, c: int) -> int:
    """Packed F4Vector of the burst with window start s and content index
    c; the first symbol is c // 4^(w-1) + 1, remaining digits base 4
    big-endian."""
    f4 = ((c >> (2 * (w - 1))) + 1) << (2 * s)
    for t in range(1, w):
        f4 |= ((c >> (2 * (w - 1 - t))) & 3) << (2 * (s + t))
    return f4


def enumerate_bursts(n: int, l: int) -> Iterator[F4Vector]:
    """Yield the zero vector, then every vector of burst length in [1, l]
    exactly once, keyed by its first nonzero coordinate; burst_count(n, l)
    vectors in all."""
    if not 0 <= l <= n:
        raise ValueError(f"burst bound {l} outside [0, {n}]")
    yield F4Vector(n, 0)
    if l == 0:
        return
    for s, w in _window_lengths(n, l):
        for c in range(3 * 4 ** (w - 1)):
            yield F4Vector(n, _burst_vector(s, w, c))


# ----------------------------------------------------------------------
# All-pairs oracle
# ----------------------------------------------------------------------

def check_level_oracle(code: StabilizerCode, l: int):
    """(ok, degenerate, witness, pairs tested) of level l, from every pair
    of bursts of length <= l."""
    n = code.n
    if l == 0:
        return True, False, None, 0
    if burst_count(n, l) > 20000:
        raise ResourceLimitError("the all-pairs oracle is for small codes only")
    vecs = [0] + [_burst_vector(s, w, c) for s, w in _window_lengths(n, l)
                  for c in range(3 * 4 ** (w - 1))]
    degenerate = False
    pairs = 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            u = vecs[i] ^ vecs[j]
            pairs += 1
            if in_dual(code, u):
                if not contains(code, u):
                    witness = (F4Vector(n, vecs[i]), F4Vector(n, vecs[j]))
                    return False, degenerate, witness, pairs
                degenerate = True
    return True, degenerate, None, pairs


def _level_walk(n: int, k: int, check) -> BurstAnalysis:
    """quantum_burst_capability's level walk over check(l): down from the
    qrb ceiling to the first passing level, with the witness of the failing
    level above it."""
    witness = None
    total = 0
    for cand in range(qrb(n, k), -1, -1):
        ok, degenerate, wit, pairs = check(cand)
        total += pairs
        if ok:
            return BurstAnalysis(n, k, cand, degenerate, witness, total)
        witness = wit
    raise AssertionError("level 0 cannot fail")


def oracle_capability(code: StabilizerCode) -> BurstAnalysis:
    """The level walk over check_level_oracle."""
    return _level_walk(code.n, code.k, lambda l: check_level_oracle(code, l))


def capability(code: StabilizerCode) -> BurstAnalysis:
    """The engine's analysis of any StabilizerCode: the level walk over
    check_level, so from its matrix labels, ranking every window union
    unless the code is cyclic."""
    return _level_walk(code.n, code.k, lambda l: check_level(code, l))


def located_burst_check(code: StabilizerCode, start: int, span: int) -> bool:
    """True iff every pair of errors supported on [start, start+span) has a
    sum outside dual(C) \\ C: the one-window case of the level check, as the
    sums of such pairs are exactly the vectors supported on the window."""
    n = code.n
    if span < 0 or start < 0 or start + span > n:
        raise ValueError(f"window [{start}, {start + span}) outside length {n}")
    window = label_columns(code)[2 * start:2 * (start + span)]
    failure, _ = _insert({}, window, 2 * n, 2 * code.k)
    return failure is None


# ----------------------------------------------------------------------
# Syndrome-hash check
# ----------------------------------------------------------------------


def level_syndromes(n: int, l: int, syn: np.ndarray) -> np.ndarray:
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


def _index_to_vector(n: int, l: int, idx: int) -> int:
    if idx == 0:
        return 0
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


def _split_syndromes(code: StabilizerCode) -> np.ndarray:
    """uint64 [position, symbol]: bit j is the symplectic inner product
    with row j of the reduced row-echelon stabilizer basis in split-halves
    column order."""
    n = code.n
    if code.r > 64:
        raise ResourceLimitError(f"{code.r} syndrome bits exceed one 64-bit word")
    split = [sum(((row >> 2 * i) & 1) << i | ((row >> 2 * i + 1) & 1) << (n + i)
                 for i in range(n)) for row in code.basis]
    table = [[0] * 4 for _ in range(n)]
    for j, row in enumerate(gf2_row_reduce(split)[0]):
        for i in range(n):
            # <e, v> = e_x v_z + e_z v_x, where symbol c has e_x = c & 1, e_z = c >> 1
            x, z = (row >> i) & 1, (row >> (n + i)) & 1
            table[i][1] |= z << j
            table[i][2] |= x << j
            table[i][3] |= (x ^ z) << j
    return np.array(table, dtype=np.uint64)


def check_level_hash(code: StabilizerCode, l: int):
    n = code.n
    if l == 0:
        return True, False, None, 0
    total = burst_count(n, l)
    if total > MAX_BURSTS_PER_LEVEL:
        raise ResourceLimitError(
            f"level {l} needs {total} bursts, limit {MAX_BURSTS_PER_LEVEL}")
    syns = level_syndromes(n, l, _split_syndromes(code))
    tab = label_table(code)
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
    rep_f4 = _index_to_vector(n, l, int(hit[rep[f]]))
    f4 = _index_to_vector(n, l, int(hit[f]))
    return False, pairs > 1, (F4Vector(n, rep_f4), F4Vector(n, f4)), pairs
