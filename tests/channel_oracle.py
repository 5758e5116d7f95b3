"""Reference versions of the channel layer's fast paths: the chain
probability of one pattern, the pattern generators, the per-pattern decoder
table, the class-by-class decoder build with per-row packing, the
per-pattern truncated EF loop, the gather form of the label-mass recursion,
and the engines the fast paths replaced, kept as bit-identity oracles: the
pattern classes as uint8 symbol matrices [patterns, n] with their label
folds, word packing and chain products, the weight class sorted by
lexsort, the truncated bracket over every class, the truncated bracket over
symbol matrices of each class, and the transfer recursion in the original
label frame with a separate XOR-permute pass.  A code is the channel's
label record (channel.CodeLabels), so each reference reads the same labels
as the path it checks."""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from qbecc import channel
from qbecc.channel import ChannelModel, cond_prob, label_contrib


def error_prob(symbols: Sequence[int], ch: ChannelModel) -> float:
    """Chain probability of a Pauli error pattern of symbols (phase
    ignored), multiplied left to right."""
    prob = ch.marginals[symbols[0]]
    prev = symbols[0]
    for s in symbols[1:]:
        prob *= cond_prob(s, prev, ch)
        prev = s
    return prob


def weight_class(n: int, w: int) -> Iterable[Tuple[int, ...]]:
    """All symbol tuples of weight w in lexicographic order."""
    if w == 0:
        yield (0,) * n
        return
    vectors = []
    for support in itertools.combinations(range(n), w):
        for syms in itertools.product((1, 2, 3), repeat=w):
            vec = [0] * n
            for pos, s in zip(support, syms):
                vec[pos] = s
            vectors.append(tuple(vec))
    vectors.sort()
    yield from vectors


def span_class(n: int, span: int) -> Iterable[Tuple[int, ...]]:
    """All symbol tuples of burst length exactly span >= 2, ordered by
    start position then window content."""
    for start in range(n - span + 1):
        for first in (1, 2, 3):
            for middle in itertools.product(range(4), repeat=span - 2):
                for last in (1, 2, 3):
                    vec = [0] * n
                    vec[start] = first
                    for i, s in enumerate(middle):
                        vec[start + 1 + i] = s
                    vec[start + span - 1] = last
                    yield tuple(vec)


def vector_label(contrib: Sequence[Sequence[int]], symbols: Sequence[int]) -> int:
    lbl = 0
    for i, c in enumerate(symbols):
        if c:
            lbl ^= contrib[i][c]
    return lbl


def packed(symbols: Sequence[int]) -> int:
    out = 0
    for i, c in enumerate(symbols):
        out |= c << (2 * i)
    return out


def label_words(code) -> np.ndarray:
    """uint64 [n, 4]: label_contrib with each label in one word."""
    return np.array(label_contrib(code), dtype=np.uint64)


def product(axes: Sequence[Sequence[int]]) -> np.ndarray:
    """uint8 [prod, len(axes)]: itertools.product(*axes) as rows."""
    grids = np.meshgrid(*[np.array(a, dtype=np.uint8) for a in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def pattern_class(n: int, kind: str, size: int) -> np.ndarray:
    """uint8 [m, n]: every pattern of weight exactly size, in lexicographic
    order (kind "weight"), or of burst length exactly size >= 2, ordered by
    start position and then by window content (kind "span"); grown from
    the right, as tails per weight, with no sort."""
    count = channel._class_size(n, kind, size)
    if kind == "weight" and count:
        # tails[v]: the weight-v patterns of the last j positions in
        # lexicographic order, that is a 0 before weight v, then 1, 2 and 3
        # before weight v - 1; only weights that can still reach size are kept
        tails = {0: np.zeros((1, 0), dtype=np.uint8)}
        for j in range(1, n + 1):
            tails = {v: prepend(tails.get(v), tails.get(v - 1), j)
                     for v in range(max(0, size - (n - j)), min(j, size) + 1)}
        return tails[size]
    out = np.zeros((count, n), dtype=np.uint8)
    if count:
        window = product([(1, 2, 3)] + [range(4)] * (size - 2) + [(1, 2, 3)])
        out = out.reshape(n - size + 1, len(window), n)
        for start in range(n - size + 1):
            out[start, :, start:start + size] = window
    return out.reshape(count, n)


def prepend(zero, rest, j: int) -> np.ndarray:
    """uint8 [len(zero) + 3 len(rest), j]: the rows of zero behind a 0,
    then the rows of rest behind a 1, a 2 and a 3 (None holds no row)."""
    a = 0 if zero is None else len(zero)
    b = 0 if rest is None else len(rest)
    out = np.empty((a + 3 * b, j), dtype=np.uint8)
    if a:
        out[:a, 0] = 0
        out[:a, 1:] = zero
    if b:
        ones = out[a:].reshape(3, b, j)
        ones[:, :, 0] = np.array([[1], [2], [3]], dtype=np.uint8)
        ones[:, :, 1:] = rest
    return out


def fold(words: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """uint64 [m]: the label of each row, the XOR over positions of the
    label words at its symbols."""
    out = words[0][patterns[:, 0]]
    for i in range(1, patterns.shape[1]):
        out ^= words[i][patterns[:, i]]
    return out


def packed_ints(patterns: np.ndarray) -> List[int]:
    """Each row as an F4Vector.packed int: the symbols of each 32 qubits
    are the 2-bit fields of one uint64 word, and the two words of a row are
    joined in Python only past 32 qubits."""
    n = patterns.shape[1]
    fields = np.uint64(4) ** np.arange(min(n, 32), dtype=np.uint64)
    low = (patterns[:, :32] @ fields).tolist()
    if n <= 32:
        return low
    high = (patterns[:, 32:] @ fields[:n - 32]).tolist()
    return [a | b << 64 for a, b in zip(low, high)]


def chain_probs(patterns: np.ndarray, ch: ChannelModel) -> np.ndarray:
    """The chain probability of every symbol row, multiplied left to
    right by a flat take of cond[previous * 4 + next]."""
    cond = channel._cond_table(ch).ravel()
    prob = np.array(ch.marginals)[patterns[:, 0]]
    for i in range(1, patterns.shape[1]):
        prob *= cond.take(patterns[:, i - 1] * np.uint8(4) + patterns[:, i])
    return prob


def decoder_entries(code, t: int, l: int) -> Dict[int, int]:
    """First pattern of each syndrome over weights 0..t, then spans 2..l."""
    contrib = label_contrib(code)
    entries: Dict[int, int] = {}
    classes = itertools.chain(
        (vec for w in range(t + 1) for vec in weight_class(code.n, w)),
        (vec for s in range(2, l + 1) for vec in span_class(code.n, s)))
    for vec in classes:
        syn = vector_label(contrib, vec) >> 2 * code.k
        if syn not in entries:
            entries[syn] = packed(vec)
    return entries


def packed_rows(patterns: np.ndarray) -> List[int]:
    """Each uint8 pattern row as an F4Vector.packed int, one row at a time
    through np.packbits."""
    m, n = patterns.shape
    bits = np.stack([patterns & 1, patterns >> 1], axis=2).reshape(m, 2 * n)
    raw = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in raw]


def decoder_table(code, t: int, l: int) -> Tuple[Dict[int, int], np.ndarray]:
    """(entries, labels) of channel.build_decoder over weights 0..t and
    spans 2..l, built class by class: rows packed one at a time, the label
    array re-sorted by np.union1d after every class."""
    words, shift = label_words(code), 2 * code.k
    entries: Dict[int, int] = {}
    labels = np.zeros(0, dtype=np.uint64)
    for kind, size in channel._classes(code.n, t, l):
        if len(entries) == 1 << code.n - code.k:
            break
        patterns = pattern_class(code.n, kind, size)
        folded = fold(words, patterns)
        syndromes, first = np.unique(folded >> shift, return_index=True)
        first = np.sort(first[~np.isin(syndromes, labels >> shift, assume_unique=True)])
        entries.update(zip((folded[first] >> shift).tolist(), packed_rows(patterns[first])))
        labels = np.union1d(labels, folded[first])
    return entries, labels


def truncated_ef(code, entries: Dict[int, int], ch: ChannelModel,
                 w_max: int, span: int) -> Tuple[float, float]:
    """(ef_lower, residual) by one error_prob per distinct pattern."""
    contrib = label_contrib(code)
    n = code.n
    entry_labels = {syn: vector_label(contrib, [(rec >> (2 * i)) & 3 for i in range(n)])
                    for syn, rec in entries.items()}
    success, total, seen = [], [], set()
    classes = itertools.chain(
        (vec for w in range(w_max + 1) for vec in weight_class(n, w)),
        (vec for s in range(2, span + 1) for vec in span_class(n, s)))
    for vec in classes:
        if vec in seen:
            continue
        seen.add(vec)
        prob = error_prob(vec, ch)
        total.append(prob)
        lbl = vector_label(contrib, vec)
        if entry_labels.get(lbl >> 2 * code.k) == lbl:
            success.append(prob)
    return math.fsum(success), max(0.0, 1.0 - math.fsum(total))


def label_mass(code, ch: ChannelModel) -> np.ndarray:
    """The transfer recursion with the XOR applied as an index gather."""
    contrib = label_contrib(code)
    n_labels = 1 << (code.n + code.k)
    marg = np.array(ch.marginals, dtype=np.float64)
    cond = np.empty((4, 4), dtype=np.float64)
    for k in range(4):
        for l in range(4):
            cond[k, l] = cond_prob(l, k, ch)
    mass = np.zeros((n_labels, 4), dtype=np.float64)
    for s in range(4):
        mass[contrib[0][s], s] += marg[s]
    idx = np.arange(n_labels, dtype=np.intp)
    for i in range(1, code.n):
        new = np.empty_like(mass)
        for s in range(4):
            col = mass @ cond[:, s]
            new[:, s] = col[idx ^ contrib[i][s]]
        mass = new
    return mass.sum(axis=1)


def lexsorted_weight_class(n: int, size: int) -> np.ndarray:
    """uint8 [m, n]: the weight-size class scattered support by support,
    then sorted into lexicographic order by np.lexsort."""
    count = math.comb(n, size) * 3 ** size
    out = np.zeros((count, n), dtype=np.uint8)
    if count == 0 or size == 0:
        return out
    supports = np.array(list(itertools.combinations(range(n), size)), dtype=np.intp)
    symbols = product([(1, 2, 3)] * size)
    rows = np.arange(count).reshape(len(supports), len(symbols), 1)
    out[rows, supports[:, None, :]] = symbols[None, :, :]
    return out[np.lexsort(out.T[::-1])]


def truncated_every_class(code, table, ch: ChannelModel, w_max: int,
                          span: int) -> channel.EfResult:
    """The truncated bracket over every class, lighter span classes
    included, with lexsorted weight classes and chain products by 2-d
    fancy indexing."""
    n = code.n
    words = label_words(code)
    cond = channel._cond_table(ch)
    probs, successes = [], []
    for kind, size in channel._classes(n, w_max, span):
        if kind == "weight":
            patterns = lexsorted_weight_class(n, size)
        else:
            patterns = pattern_class(n, kind, size)
            patterns = patterns[np.count_nonzero(patterns, axis=1) > w_max]
        prob = np.array(ch.marginals)[patterns[:, 0]]
        for i in range(1, n):
            prob *= cond[patterns[:, i - 1], patterns[:, i]]
        probs.append(prob)
        successes.append(prob[np.isin(fold(words, patterns), table.labels)])
    ef = math.fsum(np.concatenate(successes).tolist())
    residual = max(0.0, 1.0 - math.fsum(np.concatenate(probs).tolist()))
    return channel.EfResult(ef, residual, False)


def pattern_class_truncated(code, table, ch: ChannelModel, w_max: int,
                            span: int) -> channel.EfResult:
    """The truncated bracket with every class as a [m, n] symbol matrix:
    the weight classes 0..w_max and the span classes heavier than w_max,
    each folded to labels and scored by chain_probs, summed by one
    math.fsum over all the probabilities."""
    n = code.n
    classes = [(kind, size) for kind, size in channel._classes(n, w_max, span)
               if kind == "weight" or size > w_max]
    words = label_words(code)
    probs, successes = [], []
    for kind, size in classes:
        patterns = pattern_class(n, kind, size)
        if kind == "span":
            patterns = patterns[np.count_nonzero(patterns, axis=1) > w_max]
        prob = chain_probs(patterns, ch)
        probs.append(prob)
        successes.append(prob[np.isin(fold(words, patterns), table.labels)])
    ef = math.fsum(np.concatenate(successes).tolist())
    residual = max(0.0, 1.0 - math.fsum(np.concatenate(probs).tolist()))
    return channel.EfResult(ef, residual, False)


def xor_permute(src: np.ndarray, c: int, dim: int, out: np.ndarray) -> None:
    """out[x] = src[x ^ c] for every x < 2^dim.  Each maximal run of index
    bits on which c is constant becomes one axis of a reshaped view;
    reversing an axis of 2^b entries XORs its b bits with all ones."""
    shape, flips = [], []
    bit = dim
    while bit > 0:
        flag = (c >> (bit - 1)) & 1
        run = 1
        while run < bit and (c >> (bit - 1 - run)) & 1 == flag:
            run += 1
        if flag:
            flips.append(len(shape))
        shape.append(1 << run)
        bit -= run
    np.copyto(out.reshape(shape), np.flip(src.reshape(shape), axis=flips))


def permuted_label_mass(code, ch: ChannelModel) -> np.ndarray:
    """The transfer recursion in the original label frame: the prefix
    scatter, then per step the row sum and, for each row, the scaled add
    into a scratch row that xor_permute writes back."""
    dim = code.n + code.k
    n_labels = 1 << dim
    contrib = label_contrib(code)
    cond = channel._cond_table(ch)
    start = max(1, channel._independent_prefix(contrib))
    mass = np.zeros((4, n_labels), dtype=np.float64)
    words = np.array(contrib, dtype=np.intp)
    prob, index = np.array(ch.marginals), words[0].copy()
    for i in range(1, start):
        prob = (prob.reshape(-1, 4)[:, :, None] * cond).ravel()
        index = (index[:, None] ^ words[i]).ravel()
    index.reshape(-1, 4)[:] |= np.arange(4) << dim
    mass.reshape(-1)[index] = prob
    total, scratch = np.empty(n_labels), np.empty(n_labels)
    scale = [(1.0 - ch.mu) * marg for marg in ch.marginals]
    for i in range(start, code.n):
        mass.sum(axis=0, out=total)
        for s in range(4):
            np.multiply(total, scale[s], out=scratch)
            mass[s] *= ch.mu
            scratch += mass[s]
            xor_permute(scratch, contrib[i][s], dim, mass[s])
    return mass.sum(axis=0, out=total)
