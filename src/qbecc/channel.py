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
pushed through the qubit chain as a transfer recursion.  Each decoder entry
then claims exactly one coset's mass.

The truncated engine enumerates a small error set explicitly (all patterns
up to a weight cap plus all bursts up to a span cap) and brackets the
fidelity from below, with the unenumerated mass as the residual.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .stabilizer import F4Vector, PauliError, ResourceLimitError, StabilizerCode

DEFAULT_EXACT_LIMIT = 4 ** 13
MAX_LABEL_STATES = 1 << 24


@dataclass(frozen=True)
class ChannelModel:
    p: float
    mu: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability {self.p} outside [0, 1]")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"correlation degree {self.mu} outside [0, 1]")

    @property
    def marginals(self) -> Tuple[float, float, float, float]:
        return (1.0 - self.p, self.p / 3.0, self.p / 3.0, self.p / 3.0)


def cond_prob(l: int, k: int, ch: ChannelModel) -> float:
    """Probability of Pauli index l given the previous index k."""
    if not (0 <= l <= 3 and 0 <= k <= 3):
        raise ValueError("Pauli indices must be in 0..3")
    return (1.0 - ch.mu) * ch.marginals[l] + (ch.mu if l == k else 0.0)


def _error_symbols(e) -> Tuple[int, ...]:
    if isinstance(e, F4Vector):
        return e.symbols()
    if isinstance(e, PauliError):
        from .stabilizer import symplectic_f4_map
        return symplectic_f4_map(e.sym).symbols()
    return tuple(e)


def error_prob(e, ch: ChannelModel) -> float:
    """Chain probability of a Pauli error pattern (phase ignored)."""
    symbols = _error_symbols(e)
    prob = ch.marginals[symbols[0]]
    prev = symbols[0]
    for s in symbols[1:]:
        prob *= cond_prob(s, prev, ch)
        prev = s
    return prob


# ----------------------------------------------------------------------
# Coset labels
# ----------------------------------------------------------------------

def label_contrib(code: StabilizerCode) -> List[List[int]]:
    """Per-position, per-symbol contribution to the coset label.

    Bit j of the label of an error is its symplectic inner product with the
    j-th dual-basis vector; the first r bits are the syndrome.  Labels are
    XOR-additive over coordinates and constant on cosets of the stabilizer.
    This is the code's label table with each entry joined into one int.
    """
    tab = code.label_table()

    def as_int(words: np.ndarray) -> int:
        return int.from_bytes(words.tobytes(), "little")

    return [[as_int(tab.syndrome[i, c]) | (as_int(tab.logical[i, c]) << code.r)
             for c in range(4)] for i in range(code.n)]


def vector_label(contrib: Sequence[Sequence[int]], symbols: Sequence[int]) -> int:
    lbl = 0
    for i, c in enumerate(symbols):
        if c:
            lbl ^= contrib[i][c]
    return lbl


# ----------------------------------------------------------------------
# Decoder tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecoderTable:
    code: StabilizerCode
    mode: str  # "random" | "burst" | "combined"
    t: int
    l: int
    entries: Dict[int, int]  # syndrome -> packed GF(4) recovery

    def describe(self) -> str:
        if self.mode == "random":
            return f"random(t={self.t})"
        if self.mode == "burst":
            return f"burst(l={self.l})"
        return f"combined(t={self.t},l={self.l})"


def _weight_class(n: int, w: int) -> Iterable[Tuple[int, ...]]:
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


def _span_class(n: int, span: int) -> Iterable[Tuple[int, ...]]:
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


def _packed(symbols: Sequence[int]) -> int:
    packed = 0
    for i, c in enumerate(symbols):
        packed |= c << (2 * i)
    return packed


def build_decoder(code: StabilizerCode, mode: str,
                  t: Optional[int] = None, l: Optional[int] = None,
                  syndrome_limit: int = 1 << 32) -> DecoderTable:
    """Fill a syndrome table in priority order: weights 0..t first
    (lexicographic within a weight class), then bursts of span 2..l for the
    syndromes still unclaimed.  random mode skips the burst pass; burst mode
    caps the weight pass at 1."""
    if mode not in ("random", "burst", "combined"):
        raise ValueError(f"unknown decoder mode {mode!r}")
    if 1 << (2 * code.r) > syndrome_limit:
        raise ResourceLimitError(
            f"syndrome space 4^{code.r} exceeds the limit {syndrome_limit}")
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
    contrib = label_contrib(code)
    smask = (1 << code.r) - 1
    entries: Dict[int, int] = {}
    for w in range(t + 1):
        for vec in _weight_class(code.n, w):
            syn = vector_label(contrib, vec) & smask
            if syn not in entries:
                entries[syn] = _packed(vec)
    for span in range(2, (l or 0) + 1):
        for vec in _span_class(code.n, span):
            syn = vector_label(contrib, vec) & smask
            if syn not in entries:
                entries[syn] = _packed(vec)
    return DecoderTable(code, mode, t, l, entries)


# ----------------------------------------------------------------------
# Entanglement fidelity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EfResult:
    ef_lower: float
    residual: float
    exact: bool

    def __post_init__(self):
        if not (0.0 <= self.ef_lower <= self.ef_lower + self.residual <= 1.0 + 1e-9):
            raise AssertionError(f"inconsistent bracket {self}")


def _entry_labels(table: DecoderTable, contrib) -> Dict[int, int]:
    n = table.code.n
    labels = {}
    for syn, packed in table.entries.items():
        symbols = tuple((packed >> (2 * i)) & 3 for i in range(n))
        lbl = vector_label(contrib, symbols)
        if lbl & ((1 << table.code.r) - 1) != syn:
            raise AssertionError("decoder entry filed under a foreign syndrome")
        labels[syn] = lbl
    return labels


def _label_mass(code: StabilizerCode, contrib, ch: ChannelModel) -> np.ndarray:
    """Probability mass of every stabilizer-coset label over all 4^n errors."""
    n = code.n
    dim = n + code.k
    n_labels = 1 << dim
    if n_labels > MAX_LABEL_STATES:
        raise ResourceLimitError(
            f"label space 2^{dim} exceeds {MAX_LABEL_STATES} states")
    marg = np.array(ch.marginals, dtype=np.float64)
    cond = np.empty((4, 4), dtype=np.float64)
    for k in range(4):
        for l in range(4):
            cond[k, l] = cond_prob(l, k, ch)
    mass = np.zeros((n_labels, 4), dtype=np.float64)
    for s in range(4):
        mass[contrib[0][s], s] += marg[s]
    idx = np.arange(n_labels, dtype=np.intp)
    for i in range(1, n):
        new = np.empty_like(mass)
        for s in range(4):
            col = mass @ cond[:, s]
            new[:, s] = col[idx ^ contrib[i][s]]
        mass = new
    return mass.sum(axis=1)


def entanglement_fidelity(code: StabilizerCode, table: DecoderTable,
                          ch: ChannelModel, strategy: str = "exact",
                          w_max: int = 4, burst_span: Optional[int] = None,
                          limit: int = DEFAULT_EXACT_LIMIT) -> EfResult:
    """Probability that decoding succeeds (recovery * error lands in the
    stabilizer group).

    exact: full 4^n mass, computed per stabilizer coset; requires
    4^n <= limit.  truncated: enumerates weight <= w_max plus bursts of span
    <= burst_span (default: the decoder's l) and brackets from below.
    """
    contrib = label_contrib(code)
    entry_labels = _entry_labels(table, contrib)
    if strategy == "exact":
        if 4 ** code.n > limit:
            raise ResourceLimitError(
                f"exact strategy needs 4^{code.n} = {4 ** code.n} error mass terms, "
                f"limit {limit}")
        mass = _label_mass(code, contrib, ch)
        ef = math.fsum(float(mass[lbl]) for _, lbl in sorted(entry_labels.items()))
        return EfResult(min(ef, 1.0), 0.0, True)
    if strategy != "truncated":
        raise ValueError(f"unknown strategy {strategy!r}")
    span = table.l if burst_span is None else burst_span
    success_terms: List[float] = []
    all_terms: List[float] = []
    seen = set()
    classes = itertools.chain(
        (vec for w in range(w_max + 1) for vec in _weight_class(code.n, w)),
        (vec for s in range(2, span + 1) for vec in _span_class(code.n, s)))
    for vec in classes:
        packed = _packed(vec)
        if packed in seen:
            continue
        seen.add(packed)
        prob = error_prob(vec, ch)
        all_terms.append(prob)
        lbl = vector_label(contrib, vec)
        target = entry_labels.get(lbl & ((1 << code.r) - 1))
        if target is not None and target == lbl:
            success_terms.append(prob)
    ef = math.fsum(success_terms)
    residual = max(0.0, 1.0 - math.fsum(all_terms))
    return EfResult(ef, residual, False)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    code_id: str
    decoder: str
    strategy: str
    p: float
    mu: float
    ef_lower: float
    residual: float
    exact: bool


def _sweep_task(args) -> SweepPoint:
    code_id, code, table, strategy, p, mu, w_max, limit = args
    result = entanglement_fidelity(code, table, ChannelModel(p, mu),
                                   strategy=strategy, w_max=w_max, limit=limit)
    return SweepPoint(code_id, table.mode, strategy, p, mu,
                      result.ef_lower, result.residual, result.exact)


def sweep(code_specs: Sequence[Tuple[str, StabilizerCode, int, int]],
          modes: Sequence[str], p_grid: Sequence[float], mu_grid: Sequence[float],
          strategy: str = "exact", w_max: int = 4,
          limit: int = DEFAULT_EXACT_LIMIT, workers: int = 1) -> List[SweepPoint]:
    """One fidelity evaluation per (code, mode, p, mu), in that nesting
    order; deterministic and independent of the worker count."""
    tasks = []
    for code_id, code, t, l in code_specs:
        for mode in modes:
            table = build_decoder(code, mode, t=t, l=l)
            for p in p_grid:
                for mu in mu_grid:
                    tasks.append((code_id, code, table, strategy, p, mu, w_max, limit))
    if workers <= 1 or len(tasks) <= 1:
        return [_sweep_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_task, tasks, chunksize=4))


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
    "ChannelModel", "cond_prob", "error_prob",
    "DecoderTable", "build_decoder", "label_contrib", "vector_label",
    "EfResult", "entanglement_fidelity",
    "SweepPoint", "sweep", "sweep_to_csv", "SWEEP_CSV_HEADER",
    "DEFAULT_EXACT_LIMIT",
]
