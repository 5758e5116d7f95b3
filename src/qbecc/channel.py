"""Markov-correlated depolarizing channel, syndrome decoders, and
entanglement fidelity.

Channel: the first qubit draws a Pauli index from the depolarizing
marginals (1-p, p/3, p/3, p/3); every following qubit repeats the previous
index with probability mu and redraws from the marginals otherwise.

Entanglement fidelity of a stabilizer code with a syndrome-table decoder is
the total probability of errors e whose recovery R(syndrome(e)) composes
with e to a stabilizer element.  The exact engine never iterates the 4^n
errors one by one: errors are binned by their coset of the stabilizer group
(a 2^(n+k)-valued linear label), and the full probability mass per coset is
pushed through the qubit chain as a transfer recursion.  The mass is kept
as four rows, one per last symbol; as the channel either repeats the last
symbol or redraws from the marginals, a step is one row sum and scaled
adds that share one scaled row sum for X, Z and Y, each reading the XOR
permutation by that qubit's label through a flipped view, with no separate
permute pass.  The labels are relabeled per code by an invertible GF(2) map
that sends the stepped qubits' X and Z labels to the highest bits, where
those views read long contiguous runs.  The recursion starts after the
longest prefix of qubits whose X and Z labels are linearly independent: the
prefixes there have distinct labels, so that mass is scattered directly from
the prefixes' left-to-right chain products.  Each decoder entry then claims
exactly one coset's mass, so one mass per (code, p, mu) scores every decoder
table of that code, and its last step is taken only at those tables'
labels.  The frame and the stepped labels and views are one plan per code,
built once for all its (p, mu) points.

Error patterns are uint64 arrays [patterns, c], a row per pattern: the
XOR over its positions of a word table's rows, whose column 0 is the coset
label (label_contrib: the syndrome above the logical bits, read from the
burst analyzer's own label columns, CodeLabels) and whose other columns
are the F4Vector.packed symbols, one word up to 32 qubits and two above.
One enumerator grows a weight or a span class from the right, in its
order with no sort.  A decoder table keeps the first pattern of each
syndrome in priority order and its recoveries' labels as
one sorted array: a pattern is decoded correctly iff its label is in that
array.  The truncated engine scores every pattern up to a weight cap, plus
the heavier bursts up to a span cap, and brackets the fidelity from below,
with the unenumerated mass as the residual.  Its weight classes are grown
left to right in groups of equal weight and last symbol, each a chain
product array and a label array, so a position costs one scalar multiply
and one scalar XOR per group; the heavier bursts come from the enumerator.
Every fidelity is the exact sum of its terms rounded once, as math.fsum
gives it, but summed in arrays: the terms' mantissa halves are binned by
exponent, and only the bins are joined as Python ints.  Pattern sets and
transfer buffers are capped in bytes.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .linalg import gf2_rank
from .stabilizer import MAX_ARRAY_BYTES, ResourceLimitError

DEFAULT_EXACT_LIMIT = 4 ** 13
# Values an exact sum bins at once: 2^16 halves below 2^27 sum below 2^53.
_SUM_CHUNK = 1 << 16


class _ChannelModel(NamedTuple):
    p: float
    mu: float


class ChannelModel(_ChannelModel):
    """The memory channel of depolarizing probability p and correlation
    degree mu; construction raises ValueError outside [0, 1]."""

    __slots__ = ()
    _make = _replace = None  # refused: NamedTuple builds both by tuple.__new__, past __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability {self.p} outside [0, 1]")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"correlation degree {self.mu} outside [0, 1]")
        return self

    @property
    def marginals(self) -> Tuple[float, float, float, float]:
        return (1.0 - self.p, self.p / 3.0, self.p / 3.0, self.p / 3.0)


def cond_prob(l: int, k: int, ch: ChannelModel) -> float:
    """Probability of Pauli index l given the previous index k."""
    if not (0 <= l <= 3 and 0 <= k <= 3):
        raise ValueError("Pauli indices must be in 0..3")
    return (1.0 - ch.mu) * ch.marginals[l] + (ch.mu if l == k else 0.0)


def _cond_table(ch: ChannelModel) -> np.ndarray:
    """float64 [previous, next] of cond_prob."""
    return np.array([[cond_prob(l, k, ch) for l in range(4)] for k in range(4)])


def _chain_probs(packed: np.ndarray, n: int, ch: ChannelModel) -> np.ndarray:
    """The chain probability of every pattern, given by its F4Vector.packed
    words (uint64 [m, words], qubit i at bits 2i and 2i+1 of word i // 32):
    the marginal of its first symbol times cond_prob of each next one,
    multiplied left to right."""
    cond = _cond_table(ch).ravel()  # [previous * 4 + next]
    symbols = ((packed[:, i // 32] >> 2 * (i % 32) & 3).astype(np.intp) for i in range(n))
    prev = next(symbols)
    prob = np.array(ch.marginals)[prev]
    for sym in symbols:
        prob *= cond.take(prev << 2 | sym)
        prev = sym
    return prob


# ----------------------------------------------------------------------
# Error patterns and their labels
# ----------------------------------------------------------------------

class CodeLabels(NamedTuple):
    """A stabilizer code as the channel reads it: the arguments of
    burst.quantum_burst_capability, with (k, columns) as search.code_labels
    gives them.  Column 2i is the label of X at qubit i and column 2i + 1
    that of Z, above 2n tracking bits; a label is the n - k syndrome bits
    above the 2k logical bits."""

    n: int
    k: int
    columns: Sequence[int]


def _class_size(n: int, kind: str, size: int) -> int:
    if kind == "weight":
        return math.comb(n, size) * 3 ** size
    return max(0, n - size + 1) * 9 * 4 ** (size - 2)


def _classes(n: int, w_max: int, span: int) -> List[Tuple[str, int]]:
    """Weight classes 0..w_max, then span classes 2..span, as (kind, size)."""
    return ([("weight", w) for w in range(min(w_max, n) + 1)]
            + [("span", s) for s in range(2, min(span, n) + 1)])


def _check_patterns(n: int, count: int, what: str) -> None:
    if count * n > MAX_ARRAY_BYTES:
        raise ResourceLimitError(
            f"{what} needs {count} patterns of {n} symbols, over the "
            f"{MAX_ARRAY_BYTES}-byte cap")


def _word_table(code: CodeLabels) -> np.ndarray:
    """uint64 [n, 4, c]: per position and symbol, the coset label
    (label_contrib) in column 0, and the symbol's F4Vector.packed bits
    (symbol s of qubit i at bits 2i and 2i+1) in columns 1 to c - 1, one
    word up to 32 qubits and two above.  A pattern's words are the XOR of
    the rows at its symbols."""
    n = code.n
    if n + code.k > 64:
        raise ResourceLimitError(
            f"coset labels of {n + code.k} bits exceed one 64-bit word")
    table = np.zeros((n, 4, 1 + (n + 31) // 32), dtype=np.uint64)
    table[:, :, 0] = label_contrib(code)
    i = np.arange(n)
    shifts = (2 * (i % 32)).astype(np.uint64)
    table[i, :, 1 + i // 32] = np.arange(4, dtype=np.uint64) << shifts[:, None]
    return table


def _class_words(table: np.ndarray, kind: str, size: int) -> np.ndarray:
    """uint64 [m, c]: the words (_word_table) of every pattern of weight
    exactly size, in lexicographic order (kind "weight"), or of burst length
    exactly size >= 2, ordered by start position and then by window content
    (kind "span").  Both are grown from the right: prepending symbols 0, 1,
    2 and 3 at a position, in that order, keeps lexicographic order."""
    n, _, c = table.shape
    count = _class_size(n, kind, size)
    _check_patterns(n, count, f"the {kind}-{size} class")
    if not count:
        return np.zeros((0, c), dtype=np.uint64)
    if kind == "weight":
        # tails[v]: the weight-v patterns of positions j..n-1, that is a 0
        # before weight v, then 1, 2 and 3 before weight v - 1; only weights
        # that can still reach size are kept
        empty = np.zeros((0, c), dtype=np.uint64)
        tails = {0: np.zeros((1, c), dtype=np.uint64)}
        for j in reversed(range(n)):
            grown = {}
            for v in range(max(0, size - j), min(n - j, size) + 1):
                zero, rest = tails.get(v, empty), tails.get(v - 1, empty)
                out = np.empty((len(zero) + 3 * len(rest), c), dtype=np.uint64)
                np.bitwise_xor(zero, table[j, 0], out=out[:len(zero)])
                np.bitwise_xor(table[j, 1:, None], rest,
                               out=out[len(zero):].reshape(3, len(rest), c))
                grown[v] = out
            tails = grown
        return tails[size]
    out = np.empty((count, c), dtype=np.uint64)
    blocks = out.reshape(n - size + 1, 3, -1, c)
    for start in range(n - size + 1):
        # the window's last symbol (1, 2, 3), then any symbol in front of it
        rows = table[start + size - 1, 1:]
        for j in range(start + size - 2, start, -1):
            rows = (table[j, :, None] ^ rows).reshape(-1, c)
        np.bitwise_xor(table[start, 1:, None], rows, out=blocks[start])
    return out


def label_contrib(code: CodeLabels) -> List[Tuple[int, int, int, int]]:
    """Per-position, per-symbol contribution to the coset label, indexed
    [i][c]: (0, x, z, x ^ z), where x and z are the labels of columns 2i
    and 2i + 1 above their 2n tracking bits.  Labels are XOR-additive over
    coordinates and constant on cosets of the stabilizer.
    """
    shift = 2 * code.n
    labels = [column >> shift for column in code.columns]
    return [(0, x, z, x ^ z) for x, z in zip(labels[::2], labels[1::2])]


# ----------------------------------------------------------------------
# Decoder tables
# ----------------------------------------------------------------------

class _DecoderTable(NamedTuple):
    code: CodeLabels
    mode: str  # "random" | "burst" | "combined"
    t: int
    l: int
    entries: Dict[int, int]  # syndrome -> packed GF(4) recovery, first claim first


class DecoderTable(_DecoderTable):
    """A syndrome table and labels, the uint64 [E] array of its recoveries'
    labels, sorted (so sorted by syndrome).  The array is kept outside the
    tuple, so ==, hash and repr see the other fields and never compare it;
    labels is read-only like them.  _make and _replace, which would drop
    labels, raise TypeError."""

    labels = property(operator.attrgetter("_labels"))
    _make = _replace = None  # refused: NamedTuple builds both by tuple.__new__, past __new__

    def __new__(cls, code, mode, t, l, entries, labels):
        self = super().__new__(cls, code, mode, t, l, entries)
        self._labels = labels
        return self


def _check_mode(mode: str) -> None:
    if mode not in ("random", "burst", "combined"):
        raise ValueError(f"unknown decoder mode {mode!r}")


def build_decoder(code: CodeLabels, mode: str,
                  t: Optional[int] = None, l: Optional[int] = None) -> DecoderTable:
    """Fill a syndrome table in priority order: weights 0..t first
    (lexicographic within a weight class), then bursts of span 2..l for the
    syndromes still unclaimed.  random mode skips the burst pass; burst mode
    caps the weight pass at 1.  Enumeration stops once every syndrome is
    claimed; a class over the byte cap that the walk is bound to reach is
    refused before any class is enumerated."""
    _check_mode(mode)
    if mode == "random":
        if t is None:
            raise ValueError("random mode needs the weight radius t")
        l = 0
    elif mode == "burst":
        if l is None:
            raise ValueError("burst mode needs the span bound l")
        t = 1
    else:
        if t is None or l is None:
            raise ValueError("combined mode needs both t and l")
    if t < 0 or l < 0:
        raise ValueError(f"t={t} and l={l} must be non-negative")
    word_table, shift, r = _word_table(code), 2 * code.k, code.n - code.k
    classes = _classes(code.n, t, l)
    # each pattern claims at most one syndrome, so a walk whose earlier
    # classes hold fewer than 2^r patterns must reach every class up to there
    before = 0
    for kind, size in classes:
        if before >= 1 << r:
            break
        count = _class_size(code.n, kind, size)
        _check_patterns(code.n, count, f"the {kind}-{size} class")
        before += count
    entries: Dict[int, int] = {}
    claimed = np.zeros(0, dtype=np.uint64)  # the claimed syndromes, sorted
    labels = [claimed]
    for kind, size in classes:
        if len(claimed) == 1 << r:
            break
        words = _class_words(word_table, kind, size)
        syndromes, first = np.unique(words[:, 0] >> shift, return_index=True)
        unclaimed = ~np.isin(syndromes, claimed, assume_unique=True)
        claimed = np.insert(claimed, np.searchsorted(claimed, syndromes[unclaimed]),
                            syndromes[unclaimed])
        # the first pattern of each unclaimed syndrome, in enumeration order
        first = words[np.sort(first[unclaimed])]
        labels.append(first[:, 0])
        # the recovery's packed words, joined in Python only past 32 qubits
        recoveries = first[:, 1].tolist()
        if first.shape[1] > 2:
            recoveries = [a | b << 64 for a, b in zip(recoveries, first[:, 2].tolist())]
        entries.update(zip((labels[-1] >> shift).tolist(), recoveries))
    return DecoderTable(code, mode, t, l, entries, np.sort(np.concatenate(labels)))


# ----------------------------------------------------------------------
# Entanglement fidelity
# ----------------------------------------------------------------------

class _EfResult(NamedTuple):
    ef_lower: float
    residual: float
    exact: bool


class EfResult(_EfResult):
    """A fidelity bracket [ef_lower, ef_lower + residual]; construction
    raises AssertionError unless it lies in [0, 1]."""

    __slots__ = ()
    _make = _replace = None  # refused: NamedTuple builds both by tuple.__new__, past __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 <= self.ef_lower <= self.ef_lower + self.residual <= 1.0 + 1e-9):
            raise AssertionError(f"inconsistent bracket {self}")
        return self


def _xor_view(c: int, dim: int) -> Tuple[Tuple[int, ...], Tuple[slice, ...]]:
    """(shape, index) with x.reshape(shape)[index] a view of x[y ^ c] for
    every y < 2^dim: each maximal run of index bits on which c is constant
    becomes one axis of the reshape, and reversing an axis of 2^b entries
    XORs its b bits with all ones.  An output written through out= takes
    the plain reshape."""
    shape, index = [], []
    bit = dim
    while bit > 0:
        flag = (c >> (bit - 1)) & 1
        run = 1
        while run < bit and (c >> (bit - 1 - run)) & 1 == flag:
            run += 1
        shape.append(1 << run)
        index.append(slice(None, None, -1) if flag else slice(None))
        bit -= run
    return tuple(shape), tuple(index)


def _independent_prefix(contrib: Sequence[Sequence[int]]) -> int:
    """The largest m whose X and Z labels on qubits 0..m-1 are linearly
    independent, so that the 4^m Pauli prefixes there have distinct labels
    (a label is linear in the X and Z parts of the error)."""
    m = 0
    while m < len(contrib) and gf2_rank(
            [c for row in contrib[:m + 1] for c in row[1:3]]) == 2 * m + 2:
        m += 1
    return m


def _label_frame(contrib: Sequence[Sequence[int]], start: int, dim: int) -> List[int]:
    """An invertible GF(2) relabeling T of the 2^dim labels, as the images
    T(e_j) of the unit vectors.  T sends the X and Z labels of qubits
    start..n-1, in that order, to the highest unit bits (X of qubit start
    to bit dim-1, its Z to dim-2, ...), skipping a label that depends on
    those before it, and is completed by unit vectors from the top down
    (so T is the identity when no qubit is left)."""
    pivots: Dict[int, Tuple[int, int]] = {}  # msb -> (vector, its image)
    vectors = [c for row in contrib[start:] for c in row[1:3]]
    vectors += [1 << j for j in reversed(range(dim))]
    bit = dim
    for v in vectors:
        image = 0
        while v and v.bit_length() - 1 in pivots:
            pivot, pivot_image = pivots[v.bit_length() - 1]
            v, image = v ^ pivot, image ^ pivot_image
        if v:  # independent: its image is the next unit bit down
            bit -= 1
            pivots[v.bit_length() - 1] = (v, image ^ 1 << bit)
    images = []
    for j in range(dim):  # T(e_j), by reducing e_j over the full basis
        v, image = 1 << j, 0
        while v:
            pivot, pivot_image = pivots[v.bit_length() - 1]
            v, image = v ^ pivot, image ^ pivot_image
        images.append(image)
    return images


def _to_frame(images: Sequence[int], labels: np.ndarray) -> np.ndarray:
    """T(labels) for integer labels, by the XOR spans of the images of the
    unit vectors below and above h = len(images) // 2: T(x) =
    low[x mod 2^h] ^ high[x >> h]."""
    h = len(images) // 2
    spans = []
    for part in (images[:h], images[h:]):
        span = np.zeros(1, dtype=np.intp)
        for image in part:
            span = np.concatenate([span, span ^ image])
        spans.append(span)
    return spans[0][labels & ((1 << h) - 1)] ^ spans[1][labels >> h]


class _ExactPlan(NamedTuple):
    """The exact engine's work for one code that no (p, mu) changes: the
    label frame (_label_frame), every qubit's labels in it, with the
    last prefix qubit's carrying the row bits of the prefix scatter, the
    flipped views of the stepped qubits' X, Z and Y labels (_xor_view),
    and the label arrays of the decoder tables it scores, or None for the
    full mass."""

    dim: int
    start: int
    frame: List[int]
    words: np.ndarray  # intp [n, 4]
    views: List[List[Tuple[Tuple[int, ...], Tuple[slice, ...]]]]
    labels: Optional[List[np.ndarray]]


def _exact_plan(code: CodeLabels,
                tables: Optional[Sequence[DecoderTable]] = None) -> _ExactPlan:
    """The _ExactPlan of code, scoring tables (None: the full mass)."""
    dim = code.n + code.k
    contrib = label_contrib(code)
    start = max(1, _independent_prefix(contrib))
    frame = _label_frame(contrib, start, dim)
    words = _to_frame(frame, np.array(contrib, dtype=np.intp))
    words[start - 1] |= np.arange(4) << dim
    views = [[_xor_view(c, dim) for c in row[1:]] for row in words[start:].tolist()]
    labels = None if tables is None else [table.labels for table in tables]
    return _ExactPlan(dim, start, frame, words, views, labels)


def _label_mass(plan: _ExactPlan, ch: ChannelModel) -> List[np.ndarray]:
    """Probability mass of stabilizer-coset labels over all 4^n errors:
    one array per label array of plan.labels, the mass of each of its
    labels, or with plan.labels None [mass], the mass of every label x at
    mass[_to_frame(plan.frame, x)].

    Row s of the mass holds the prefixes with each label whose last symbol
    is s; a transfer step pushes it through one more qubit.  As cond[k, s]
    = (1-mu)·marg[s] + mu·[k = s], a step is new[s] = P_s(a_s·R +
    mu·mass[s]), with a_s = (1-mu)·marg[s], R the row sum ((m0 + m1) + m2)
    + m3 and P_s the XOR permutation by the qubit's label for s: every
    term is a sum or product of nonnegative floats, so a zero mass stays
    an exact zero.  The identity's label is 0, so its row takes a_0·R in
    place; then R is scaled in place to a·R, the one a_s of X, Z and Y
    (their marginals are all p/3), and each of those rows is two passes,
    mu·mass[s] and + a·R, both read through the flipped view of P_s
    (_xor_view), with no separate permute pass.  A relabeling is a
    bijection of the indices, and in the frame the labels of the stepped
    qubits are single high bits (X, Z) or two adjacent ones (Y), which
    the view reads in long contiguous runs.  While the prefixes have
    distinct labels (the first m = _independent_prefix qubits), each
    label holds at most one prefix, so the mass after max(1, m) qubits is
    scattered directly from the left-to-right chain products of its
    prefixes, and only the remaining qubits run transfer steps.  With
    labels to score, the last step runs only there: a_s·R + mu·mass[s]
    gathered at label ^ c_s and summed ((0 + 1) + 2) + 3, the same float
    operations as the step and the row sum after it.  The steps hold six
    label-sized buffers: the four rows, R and one spare row, which a step
    writes and then swaps with the row it replaces; before the gather R
    is summed into the spare row and its own buffer freed, and only then
    are the tables' labels mapped into the frame, so no table-sized array
    is held next to the six.
    """
    dim, start, words = plan.dim, plan.start, plan.words
    n = len(words)
    n_labels = 1 << dim
    # cond[previous, next] as [next, previous], contiguous, so that the
    # products below come out in C order and ravel copies nothing
    cond = np.ascontiguousarray(_cond_table(ch).T)
    # numpy copies an operand that it cannot read in runs of bufsize
    # elements (such as a flipped view of the lower label bits, or a
    # broadcast prefix product) through a buffer of bufsize elements; at its
    # default of 8192 that buffer is half a label buffer of 13_1.  errstate
    # restores the bufsize on exit, and it is per thread
    with np.errstate():
        np.setbufsize(2048)
        # mass before the prefix arrays, so that the heap they free is where
        # the step's buffers land
        mass = np.zeros((4, n_labels), dtype=np.float64)
        # the prefixes' chain products and their mass.ravel() index, last
        # symbol * 2^dim + label (the last prefix qubit's words carry the
        # row); distinct, so one scatter places them.  Each qubit's symbol is
        # a new outermost axis, so the products run over long inner axes and
        # the scatter fills one row after the other
        prob, index = np.array(ch.marginals), words[0]
        for i in range(1, start):
            prob = (cond[:, :, None] * prob.reshape(4, -1)).ravel()
            index = (words[i][:, None] ^ index).ravel()
        mass.reshape(-1)[index] = prob
        del prob, index
        rows, total, spare = list(mass), np.empty(n_labels), np.empty(n_labels)
        mu = ch.mu
        scale = [(1.0 - mu) * marg for marg in ch.marginals]  # a_1 = a_2 = a_3
        gather = plan.labels is not None and start < n
        for views in plan.views[:len(plan.views) - gather]:
            _row_sum(rows, total)
            np.multiply(total, scale[0], out=spare)
            rows[0] *= mu
            rows[0] += spare
            total *= scale[1]
            for s, (shape, flip) in enumerate(views, 1):
                out = spare.reshape(shape)
                np.multiply(rows[s].reshape(shape)[flip], mu, out=out)
                out += total.reshape(shape)[flip]
                rows[s], spare = spare, rows[s]
        if not gather:
            full = _row_sum(rows, total)
            return [full] if plan.labels is None else [
                full[_to_frame(plan.frame, labels)] for labels in plan.labels]
        del total
        total = _row_sum(rows, spare)
        last = words[n - 1].tolist()
        out = []
        for labels in plan.labels:
            labels = _to_frame(plan.frame, labels)
            index = np.empty_like(labels)
            term, moved = np.empty(len(labels)), np.empty(len(labels))
            acc = np.zeros(len(labels))  # 0 + t0 is t0 exactly, for t0 >= 0
            for s in range(4):
                # take buffers out= unless told how to treat an index out
                # of range; none is, as every index is below 2^dim
                np.bitwise_xor(labels, last[s], out=index)
                total.take(index, out=term, mode="wrap")
                term *= scale[s]
                rows[s].take(index, out=moved, mode="wrap")
                moved *= mu
                term += moved
                acc += term
            out.append(acc)
        return out


def _row_sum(rows: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """((rows[0] + rows[1]) + rows[2]) + rows[3], into out."""
    np.add(rows[0], rows[1], out=out)
    out += rows[2]
    out += rows[3]
    return out


def _exact_sum(parts: Iterable[np.ndarray]) -> float:
    """math.fsum of every value of parts, float64 arrays of non-negative
    finite values: their exact sum, rounded once.  Each value is m·2^(e-53)
    with an integer mantissa m < 2^53 (np.frexp), split into its high 27
    and low 26 bits; per _SUM_CHUNK values, each half is summed by
    exponent with np.bincount, where every partial sum is an integer below
    2^53 and so exact, and the bins are joined as Python ints."""
    total = 0
    for part in parts:
        for at in range(0, len(part), _SUM_CHUNK):
            frac, exp = np.frexp(part[at:at + _SUM_CHUNK])
            frac *= 1 << 27  # m / 2^26: the high half above the point
            high = np.floor(frac)
            frac -= high  # the low half / 2^26
            exp = np.add(exp, 1073, dtype=np.intp)  # frexp's exponents are >= -1073
            high, low = np.bincount(exp, high), np.bincount(exp, frac)
            nonzero = np.flatnonzero(high)  # a nonzero value's high half is >= 2^26
            high = high[nonzero].astype(np.int64).tolist()
            low = (low[nonzero] * (1 << 26)).astype(np.int64).tolist()
            for e, h, l in zip(nonzero.tolist(), high, low):
                total += ((h << 26) + l) << e
    return total / (1 << 1073 + 53)


def _weight_groups(words: np.ndarray, ch: ChannelModel,
                   w_max: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Every pattern of weight <= w_max, as (chain products, labels)
    arrays, float64 and uint64, one pair per group.  The prefixes are grown
    left to right in groups keyed by (weight, last symbol): appending
    symbol s at position j multiplies a group's products by the scalar
    cond[last, s] and XORs its labels with the label word of (j, s), so
    each pattern gets the left-to-right multiplies of _chain_probs, and no
    pattern array is built."""
    cond = _cond_table(ch).tolist()
    groups = {(int(s > 0), s): (np.array([ch.marginals[s]]), words[0, s:s + 1])
              for s in range(4 if w_max else 1)}
    for j in range(1, len(words)):
        sources: Dict[Tuple[int, int], list] = {}
        for (w, last), group in groups.items():
            for s in range(4 if w < w_max else 1):
                sources.setdefault((w + (s > 0), s), []).append(
                    (group, cond[last][s], words[j, s]))
        groups = {}
        for key, parts in sources.items():
            size = sum(len(prob) for (prob, _), _, _ in parts)
            out = np.empty(size), np.empty(size, dtype=np.uint64)
            at = 0
            for (prob, labels), factor, word in parts:
                np.multiply(prob, factor, out=out[0][at:at + len(prob)])
                np.bitwise_xor(labels, word, out=out[1][at:at + len(prob)])
                at += len(prob)
            groups[key] = out
    return list(groups.values())


def _truncated(code: CodeLabels, table: DecoderTable, ch: ChannelModel,
               w_max: int, span: int) -> EfResult:
    n = code.n
    # a span class up to w_max holds no pattern heavier than w_max: all of
    # it is in the weight classes
    classes = [(kind, size) for kind, size in _classes(n, w_max, span)
               if kind == "weight" or size > w_max]
    _check_patterns(n, sum(_class_size(n, *c) for c in classes), "the truncated pattern set")
    word_table = _word_table(code)
    parts = _weight_groups(word_table[:, :, 0], ch, w_max)
    for kind, size in classes:
        if kind == "span":  # lighter bursts are in the weight classes
            words = _class_words(word_table, kind, size)
            packed = words[:, 1:]
            # a qubit's weight is 1 if either of its two bits is set
            weight = np.bitwise_count((packed | packed >> 1) & 0x5555555555555555).sum(axis=1)
            heavier = weight > w_max
            parts.append((_chain_probs(packed[heavier], n, ch), words[heavier, 0]))
    probs = [prob for prob, _ in parts]
    # decoding succeeds iff the recovery filed under the pattern's
    # syndrome carries the pattern's own label, that is iff the label
    # is in the table (which holds one label per syndrome)
    success = np.isin(np.concatenate([labels for _, labels in parts]), table.labels)
    del parts
    # each sum is exactly rounded, so its parts are binned one at a time,
    # with no concatenated copy
    starts = itertools.accumulate([len(prob) for prob in probs], initial=0)
    ef = _exact_sum(prob[success[at:at + len(prob)]] for prob, at in zip(probs, starts))
    residual = max(0.0, 1.0 - _exact_sum(probs))
    return EfResult(ef, residual, False)


def _fidelities(tables: Sequence[DecoderTable], ch: ChannelModel, strategy: str,
                w_max: int, burst_span: Optional[int],
                plan: Optional[_ExactPlan]) -> List[EfResult]:
    """entanglement_fidelity of each table: the exact strategy computes
    one label mass for all of them, from their code's plan, and scores
    each table by the exactly rounded sum of the mass at its labels."""
    if strategy == "exact":
        return [EfResult(min(_exact_sum([mass]), 1.0), 0.0, True)
                for mass in _label_mass(plan, ch)]
    return [_truncated(table.code, table, ch, w_max,
                       table.l if burst_span is None else burst_span)
            for table in tables]


def _check_strategy(strategy: str, codes: Sequence[CodeLabels], limit: int) -> None:
    """Refuse an unknown strategy, and an exact one for any code over the
    4^n limit or whose label space is over the transfer buffer cap."""
    if strategy not in ("exact", "truncated"):
        raise ValueError(f"unknown strategy {strategy!r}")
    for code in codes if strategy == "exact" else ():
        if 4 ** code.n > limit:
            raise ResourceLimitError(
                f"exact strategy needs 4^{code.n} = {4 ** code.n} error mass terms, "
                f"limit {limit}")
        dim = code.n + code.k
        if 32 << dim > MAX_ARRAY_BYTES:
            raise ResourceLimitError(
                f"label space 2^{dim} needs {32 << dim} bytes per transfer "
                f"buffer, over the {MAX_ARRAY_BYTES}-byte cap")


def entanglement_fidelity(code: CodeLabels, table: DecoderTable,
                          ch: ChannelModel, strategy: str = "exact",
                          w_max: int = 4, burst_span: Optional[int] = None,
                          limit: int = DEFAULT_EXACT_LIMIT) -> EfResult:
    """Probability that decoding succeeds (recovery * error lands in the
    stabilizer group).

    exact: full 4^n mass, computed per stabilizer coset; requires
    4^n <= limit.  truncated: enumerates weight <= w_max plus bursts of span
    <= burst_span (default: the decoder's l) and brackets from below.
    """
    _check_strategy(strategy, [code], limit)
    plan = _exact_plan(code, [table]) if strategy == "exact" else None
    return _fidelities([table], ch, strategy, w_max, burst_span, plan)[0]


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

class SweepPoint(NamedTuple):
    code_id: str
    decoder: str
    strategy: str
    p: float
    mu: float
    ef_lower: float
    residual: float
    exact: bool


def sweep(code_specs: Sequence[Tuple[str, CodeLabels, int, int]],
          modes: Sequence[str], p_grid: Sequence[float], mu_grid: Sequence[float],
          strategy: str = "exact", w_max: int = 4,
          limit: int = DEFAULT_EXACT_LIMIT, workers: int = 1) -> List[SweepPoint]:
    """One fidelity evaluation per (code, mode, p, mu), in that nesting
    order; deterministic and independent of the worker count.  A task is
    one (code, p, mu) and scores every mode's table.  Refused before any
    table is built, in this order: more tasks than the byte cap holds at 8
    bytes each (ResourceLimitError, before any list is built); an unknown
    mode or strategy (ValueError); for the exact strategy, any code over the
    limit or the transfer buffer cap (ResourceLimitError); a p or mu
    outside [0, 1] (ValueError, from the grid's ChannelModels)."""
    tasks = len(code_specs) * len(p_grid) * len(mu_grid)
    if 8 * tasks > MAX_ARRAY_BYTES:
        raise ResourceLimitError(
            f"{len(code_specs)} codes x {len(p_grid)} p x {len(mu_grid)} mu points are "
            f"{tasks} tasks of 8 bytes, over the {MAX_ARRAY_BYTES}-byte cap")
    for mode in modes:
        _check_mode(mode)
    _check_strategy(strategy, [spec[1] for spec in code_specs], limit)
    grid = [(p, mu) for p in p_grid for mu in mu_grid]
    models = [ChannelModel(p, mu) for p, mu in grid]
    tables = [[build_decoder(code, mode, t=t, l=l) for mode in modes]
              for _, code, t, l in code_specs]
    # the exact engine's per-code work, shared by the code's grid points
    plans = [_exact_plan(spec[1], tabs) if strategy == "exact" else None
             for spec, tabs in zip(code_specs, tables)]
    # _fidelities' arguments, one column each, one task per (code, p, mu)
    columns = ([tabs for tabs in tables for _ in grid],
               [ch for _ in code_specs for ch in models],
               itertools.repeat(strategy), itertools.repeat(w_max),
               itertools.repeat(None), [plan for plan in plans for _ in grid])
    if workers <= 1 or len(columns[0]) <= 1:
        results = list(map(_fidelities, *columns))
    else:
        # the engine's numpy calls release the GIL, so threads share the CPUs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(workers, len(columns[0]))) as pool:
            results = list(pool.map(_fidelities, *columns))
    points = []
    for c, (code_id, *_) in enumerate(code_specs):
        block = results[c * len(grid):(c + 1) * len(grid)]
        for m, table in enumerate(tables[c]):
            points += [SweepPoint(code_id, table.mode, strategy, p, mu,
                                  res[m].ef_lower, res[m].residual, res[m].exact)
                       for (p, mu), res in zip(grid, block)]
    return points


SWEEP_CSV_HEADER = ["code", "decoder", "strategy", "p", "mu",
                    "ef_lower", "ef_residual", "exact"]


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    lines = [",".join(SWEEP_CSV_HEADER)]
    for pt in points:
        lines.append(",".join([
            pt.code_id, pt.decoder, pt.strategy,
            f"{pt.p:.12g}", f"{pt.mu:.12g}",
            f"{pt.ef_lower:.12g}", f"{pt.residual:.12g}",
            str(pt.exact).lower()]))
    return "\n".join(lines) + "\n"


__all__ = [
    "ChannelModel", "cond_prob", "CodeLabels",
    "DecoderTable", "build_decoder", "label_contrib",
    "EfResult", "entanglement_fidelity",
    "SweepPoint", "sweep", "sweep_to_csv", "SWEEP_CSV_HEADER",
    "DEFAULT_EXACT_LIMIT", "MAX_ARRAY_BYTES",
]
