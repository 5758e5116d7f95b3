import itertools
import math
import random
import sys

import numpy as np
import pytest

import channel_oracle as oracle
from conftest import contains, random_self_orthogonal_code, syndrome
from label_oracle import label_record
from qbecc import channel
from qbecc.channel import (ChannelModel, CodeLabels, EfResult, build_decoder,
                           cond_prob, entanglement_fidelity,
                           label_contrib, sweep, sweep_to_csv)
from qbecc.classical import cyclic_from_poly
from qbecc.gf import GF4, Poly
from qbecc.linalg import gf2_rank
from qbecc.registry import load_registry, registry_entry
from qbecc.search import build_registry_code, code_labels
from qbecc.stabilizer import ResourceLimitError, StabilizerCode, hermitian_construct

W = 2

# The channel's codes are label records in the label_ints basis
# (label_oracle.label_record), whose syndromes the oracles here take
# against the stabilizer's basis rows.
FIVE_QUBIT_CODE = StabilizerCode(5, [
    oracle.packed(s) for s in
    [(1, 2, 2, 1, 0), (0, 1, 2, 2, 1), (1, 0, 1, 2, 2), (2, 1, 0, 1, 2)]])
FIVE_QUBIT = label_record(FIVE_QUBIT_CODE)

CODE_13_1 = label_record(hermitian_construct(
    cyclic_from_poly(Poly(GF4, (1, W, 0, 3, 0, W, 1)), 13)))


def _registry_code(entry):
    return label_record(build_registry_code(entry))


def _random_code(rng, n, rank):
    return label_record(random_self_orthogonal_code(rng, n, rank))


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(-0.1, 0.5)
    with pytest.raises(ValueError):
        ChannelModel(0.1, 1.5)
    ch = ChannelModel(0.3, 0.2)
    assert math.isclose(sum(ch.marginals), 1.0)


def test_cond_prob_examples():
    ch0 = ChannelModel(0.12, 0.0)
    for k in range(4):
        for l in range(4):
            assert cond_prob(l, k, ch0) == ch0.marginals[l]
    ch1 = ChannelModel(0.12, 1.0)
    for k in range(4):
        for l in range(4):
            assert cond_prob(l, k, ch1) == (1.0 if l == k else 0.0)
    assert math.isclose(cond_prob(0, 0, ChannelModel(0.03, 0.5)), 0.985)


def test_error_prob_single_qubit():
    ch = ChannelModel(0.2, 0.7)
    assert oracle.error_prob((0,), ch) == 0.8


def test_error_prob_identity_formula():
    for n in (2, 5, 9):
        ch = ChannelModel(0.05, 0.3)
        expected = (1 - 0.05) * ((1 - 0.3) * (1 - 0.05) + 0.3) ** (n - 1)
        assert math.isclose(oracle.error_prob((0,) * n, ch), expected, rel_tol=1e-14)


def test_normalization_n2_exact():
    ch = ChannelModel(0.11, 0.37)
    total = math.fsum(oracle.error_prob(s, ch)
                      for s in itertools.product(range(4), repeat=2))
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 8])
def test_normalization_sampled(n):
    rng = random.Random(100 + n)
    for _ in range(5):
        ch = ChannelModel(rng.random(), rng.random())
        total = math.fsum(oracle.error_prob(s, ch)
                          for s in itertools.product(range(4), repeat=n))
        assert abs(total - 1.0) < 1e-12


def test_mu0_product_form_exhaustive():
    for n in (2, 4, 6):
        ch = ChannelModel(0.07, 0.0)
        for sym in itertools.product(range(4), repeat=n):
            product = 1.0
            for s in sym:
                product *= ch.marginals[s]
            assert oracle.error_prob(sym, ch) == product


# ----------------------------------------------------------------------
# decoder tables
# ----------------------------------------------------------------------

def test_decoder_zero_syndrome_identity():
    table = build_decoder(CODE_13_1, "combined", t=2, l=3)
    assert table.entries[0] == 0


def test_decoder_weight1_unique_syndromes():
    # distance 5 implies all 39 single-qubit errors get their own syndrome
    table = build_decoder(CODE_13_1, "random", t=1)
    assert len(table.entries) == 1 + 39


def test_decoder_random_t2_size():
    # d = 5: every error of weight <= 2 has a distinct syndrome
    table = build_decoder(CODE_13_1, "random", t=2)
    assert len(table.entries) == 1 + 39 + math.comb(13, 2) * 9


def test_decoder_soundness():
    contrib = label_contrib(CODE_13_1)
    for mode, kwargs in [("random", {"t": 2}), ("burst", {"l": 3}),
                         ("combined", {"t": 2, "l": 3})]:
        table = build_decoder(CODE_13_1, mode, **kwargs)
        for syn, packed in table.entries.items():
            symbols = tuple((packed >> (2 * i)) & 3 for i in range(13))
            assert oracle.vector_label(contrib, symbols) >> 2 * CODE_13_1.k == syn


def test_decoder_combined_extends_random():
    random_table = build_decoder(CODE_13_1, "random", t=2)
    combined = build_decoder(CODE_13_1, "combined", t=2, l=3)
    for syn, rec in random_table.entries.items():
        assert combined.entries[syn] == rec
    assert len(combined.entries) > len(random_table.entries)


def test_decoder_mode_validation():
    with pytest.raises(ValueError):
        build_decoder(CODE_13_1, "random")
    with pytest.raises(ValueError):
        build_decoder(CODE_13_1, "nonsense", t=1)
    with pytest.raises(ValueError):
        build_decoder(CODE_13_1, "combined", t=-1, l=3)


# ----------------------------------------------------------------------
# entanglement fidelity
# ----------------------------------------------------------------------

def _ef_oracle(code, table, ch):
    """Plain sum over all 4^n errors, success tested by direct membership."""
    n = code.n
    total = []
    for sym in itertools.product(range(4), repeat=n):
        e = oracle.packed(sym)
        rec = table.entries.get(syndrome(code, e))
        if rec is None:
            continue
        if contains(code, e ^ rec):
            total.append(oracle.error_prob(sym, ch))
    return math.fsum(total)


@pytest.mark.parametrize("p,mu", [(0.0, 0.3), (0.05, 0.0), (0.08, 0.6), (0.3, 0.9)])
def test_ef_exact_matches_bruteforce_five_qubit(p, mu):
    table = build_decoder(FIVE_QUBIT, "random", t=1)
    ch = ChannelModel(p, mu)
    got = entanglement_fidelity(FIVE_QUBIT, table, ch)
    assert got.exact
    assert abs(got.ef_lower - _ef_oracle(FIVE_QUBIT_CODE, table, ch)) < 1e-12


def test_ef_exact_matches_bruteforce_random_codes():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randrange(2, 6)
        code = random_self_orthogonal_code(rng, n, rng.randrange(1, n))
        record = label_record(code)
        table = build_decoder(record, "combined", t=1, l=min(2, n))
        ch = ChannelModel(rng.uniform(0, 0.3), rng.random())
        got = entanglement_fidelity(record, table, ch)
        assert abs(got.ef_lower - _ef_oracle(code, table, ch)) < 1e-12


def test_ef_p0_is_one():
    table = build_decoder(CODE_13_1, "combined", t=2, l=3)
    result = entanglement_fidelity(CODE_13_1, table, ChannelModel(0.0, 0.4))
    assert result.ef_lower == 1.0 and result.exact


def test_ef_combined_dominates_random():
    random_table = build_decoder(CODE_13_1, "random", t=2)
    combined = build_decoder(CODE_13_1, "combined", t=2, l=3)
    for p, mu in [(0.01, 0.0), (0.03, 0.5), (0.1, 0.9)]:
        ch = ChannelModel(p, mu)
        ef_r = entanglement_fidelity(CODE_13_1, random_table, ch).ef_lower
        ef_c = entanglement_fidelity(CODE_13_1, combined, ch).ef_lower
        assert ef_c >= ef_r


def test_ef_exact_limit():
    table = build_decoder(CODE_13_1, "random", t=1)
    with pytest.raises(ResourceLimitError):
        entanglement_fidelity(CODE_13_1, table, ChannelModel(0.01, 0.1), limit=4 ** 5)


def test_ef_truncated_brackets_exact():
    table = build_decoder(CODE_13_1, "combined", t=2, l=3)
    for p, mu in [(0.01, 0.2), (0.03, 0.5), (0.05, 0.8)]:
        ch = ChannelModel(p, mu)
        exact = entanglement_fidelity(CODE_13_1, table, ch)
        bracket = entanglement_fidelity(CODE_13_1, table, ch, strategy="truncated",
                                        w_max=3)
        assert not bracket.exact
        assert bracket.ef_lower - 1e-9 <= exact.ef_lower
        assert exact.ef_lower <= bracket.ef_lower + bracket.residual + 1e-9


def test_ef_result_invariants():
    with pytest.raises(AssertionError):
        EfResult(0.9, 0.2, False)
    with pytest.raises(AssertionError):
        EfResult(-0.1, 0.0, True)


def test_sweep_rows_and_determinism():
    points = sweep([("five", FIVE_QUBIT, 1, 2)], ["random", "combined"],
                   [0.0, 0.02], [0.0, 0.5], limit=4 ** 5)
    assert len(points) == 8
    assert [(_p.p, _p.mu) for _p in points[:4]] == [(0.0, 0.0), (0.0, 0.5),
                                                    (0.02, 0.0), (0.02, 0.5)]
    again = sweep([("five", FIVE_QUBIT, 1, 2)], ["random", "combined"],
                  [0.0, 0.02], [0.0, 0.5], limit=4 ** 5)
    assert sweep_to_csv(points) == sweep_to_csv(again)
    tables = {m: build_decoder(FIVE_QUBIT, m, t=1, l=2) for m in ("random", "combined")}
    for pt in points:  # the shared mass scores each table as a lone call does
        assert pt.ef_lower == entanglement_fidelity(
            FIVE_QUBIT, tables[pt.decoder], ChannelModel(pt.p, pt.mu), limit=4 ** 5).ef_lower
    header = sweep_to_csv(points).splitlines()[0]
    assert header == "code,decoder,strategy,p,mu,ef_lower,ef_residual,exact"


def test_sweep_workers_identical():
    specs = [("five", FIVE_QUBIT, 1, 2), ("13_1", CODE_13_1, 2, 3)]
    for modes, strategy in [(["combined"], "exact"),
                            (["random", "burst", "combined"], "exact"),
                            (["burst", "random"], "truncated")]:
        serial = sweep(specs, modes, [0.01, 0.03], [0.2, 0.7], strategy=strategy,
                       w_max=2, workers=1)
        parallel = sweep(specs, modes, [0.01, 0.03], [0.2, 0.7], strategy=strategy,
                         w_max=2, workers=2)
        assert sweep_to_csv(serial) == sweep_to_csv(parallel)
        assert [(pt.code_id, pt.decoder) for pt in serial[::4]] == \
            [(c, m) for c in ("five", "13_1") for m in modes]


def test_sweep_pool_is_threads_capped_at_tasks(monkeypatch):
    import concurrent.futures
    seen = []

    class RecordedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
    specs = [("five", FIVE_QUBIT, 1, 2), ("13_1", CODE_13_1, 2, 3)]
    grid = ([0.01, 0.03], [0.2, 0.5, 0.9])
    serial = sweep(specs, ["random", "combined"], *grid)
    # more threads than CPUs, switching often, share the codes and tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = sweep(specs, ["random", "combined"], *grid, workers=64)
    finally:
        sys.setswitchinterval(interval)
    assert sweep_to_csv(serial) == sweep_to_csv(parallel)
    assert seen == [12]


def test_sweep_monotone_in_p_reported():
    # fidelity is expected to fall as p grows below 0.1, but only reported:
    # nothing guarantees monotonicity, so violations are printed, not failed
    p_grid = [0.001, 0.005, 0.01, 0.05, 0.1]
    points = sweep([("five", FIVE_QUBIT, 1, 2)], ["combined"],
                   p_grid, [0.4], limit=4 ** 5)
    values = [pt.ef_lower for pt in points]
    violations = [(p_grid[i], p_grid[i + 1]) for i in range(len(values) - 1)
                  if values[i + 1] > values[i] + 1e-12]
    if violations:
        print(f"ef_lower rose with p at: {violations}")


# ----------------------------------------------------------------------
# vectorized paths against their scalar references
# ----------------------------------------------------------------------

def _rows(vectors, n):
    return np.array(list(vectors), dtype=np.uint8).reshape(-1, n)


def _joined(words):
    """Each row's recovery: its packed words joined as low | high << 64."""
    low = words[:, 1].tolist()
    if words.shape[1] == 2:
        return low
    return [a | b << 64 for a, b in zip(low, words[:, 2].tolist())]


@pytest.mark.parametrize("n", range(1, 10))
def test_pattern_classes_match_generators(n):
    # k = n: every Pauli its own label
    code = label_record(StabilizerCode(n, []))
    table, words = channel._word_table(code), oracle.label_words(code)
    for kind, sizes, generate in [("weight", range(n + 2), oracle.weight_class),
                                  ("span", range(2, n + 2), oracle.span_class)]:
        for size in sizes:
            patterns = oracle.pattern_class(n, kind, size)
            assert np.array_equal(patterns, _rows(generate(n, size), n)), (kind, size)
            got = channel._class_words(table, kind, size)
            assert got.dtype == np.uint64 and got.shape == (len(patterns), 2)
            assert np.array_equal(got[:, 0], oracle.fold(words, patterns)), (kind, size)
            assert _joined(got) == oracle.packed_ints(patterns), (kind, size)


@pytest.mark.parametrize("code_id", [e.id for e in load_registry()])
def test_decoder_matches_per_pattern_table(code_id):
    entry = registry_entry(code_id)
    code = _registry_code(entry)
    # past 16 syndrome bits, (t, l) = (1, 2) keeps the oracle loop small
    radius, span = (2, entry.l) if code.n - code.k <= 16 else (1, 2)
    for mode, t, l in [("random", radius, 0), ("burst", 1, span),
                       ("combined", radius, span)]:
        table = build_decoder(code, mode, t=t, l=l)
        expected = oracle.decoder_entries(code, t, l)
        assert list(table.entries.items()) == list(expected.items()), mode
        assert (table.labels >> 2 * code.k).tolist() == sorted(expected)


def _z_code(n):
    """The k = 0 code stabilized by Z on every qubit: n + k = n label bits."""
    return label_record(StabilizerCode(n, [2 << 2 * i for i in range(n)]))


@pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 47, 64])
def test_packed_ints_match_per_row_packing(n):
    # a pattern's packed words, the XOR of the word table's packed columns
    # at its symbols, joined past 32 qubits, against packing row by row
    rng = np.random.default_rng(n)
    patterns = rng.integers(0, 4, size=(200, n), dtype=np.uint8)
    patterns[0], patterns[1] = 0, 3  # the zero row and every bit set
    table = channel._word_table(_z_code(n))
    assert table.shape == (n, 4, 2 if n <= 32 else 3)
    words = np.bitwise_xor.reduce(table[np.arange(n), patterns], axis=1)
    assert _joined(words) == oracle.packed_rows(patterns)
    assert oracle.packed_ints(patterns) == oracle.packed_rows(patterns)
    assert oracle.packed_ints(patterns[:0]) == []


def _capped_span(entry):
    """The largest span up to the row's l whose class holds at most 2^18
    patterns, which keeps the oracle's symbol matrices small."""
    return max(s for s in range(2, entry.l + 1)
               if channel._class_size(entry.n, "span", s) <= 1 << 18)


PACKING_CASES = [("13_1", 2, 3), ("15_3", 2, 3), ("17_1a", 2, 4), ("17_1b", 2, 4),
                 ("35_25", 1, 2)]  # 35 qubits: rows packed into two words


# every registry row, in all three modes
@pytest.mark.parametrize("code_id, radius, span", PACKING_CASES + [
    (e.id, 2, _capped_span(e)) for e in load_registry()
    if e.id not in {case[0] for case in PACKING_CASES}])
def test_decoder_matches_per_row_packing(code_id, radius, span):
    code = _registry_code(registry_entry(code_id))
    for mode, t, l in [("random", radius, 0), ("burst", 1, span),
                       ("combined", radius, span)]:
        table = build_decoder(code, mode, t=t, l=l)
        entries, labels = oracle.decoder_table(code, t, l)
        assert list(table.entries.items()) == list(entries.items()), mode
        assert table.labels.dtype == labels.dtype and np.array_equal(table.labels, labels)


def test_decoder_stops_once_every_syndrome_is_claimed():
    full = oracle.decoder_entries(CODE_13_1, 4, 0)
    assert len(full) == 1 << CODE_13_1.n - CODE_13_1.k
    for mode, t, l in [("random", 40, 0), ("combined", 40, 3), ("burst", 1, 40)]:
        table = build_decoder(CODE_13_1, mode, t=t, l=l)
        assert len(table.entries) == 1 << CODE_13_1.n - CODE_13_1.k
        if mode != "burst":
            assert table.entries == full


def test_truncated_matches_per_pattern_loop():
    for code_id, points, w_values in [
            ("13_1", [(0.01, 0.2), (0.03, 0.5), (0.1, 0.9)], range(5)),
            ("17_1a", [(0.02, 0.0), (0.05, 0.7)], range(4)),
            ("17_1a", [(0.03, 0.5)], [4])]:
        entry = registry_entry(code_id)
        code = _registry_code(entry)
        table = build_decoder(code, "combined", t=2, l=entry.l)
        for p, mu in points:
            ch = ChannelModel(p, mu)
            for w_max in w_values:
                got = entanglement_fidelity(code, table, ch, strategy="truncated",
                                            w_max=w_max)
                assert (got.ef_lower, got.residual) == \
                    oracle.truncated_ef(code, table.entries, ch, w_max, entry.l)


def test_truncated_matches_the_every_class_engine():
    # spans below, at and above w_max: span classes up to w_max are skipped,
    # weight classes come built in order, chain products by a flat take
    for code_id, spans, points in [("13_1", (2, 3, 6), [(0.03, 0.5), (0.1, 0.0)]),
                                   ("17_1a", (2, 4, 6), [(0.05, 0.7)])]:
        code = _registry_code(registry_entry(code_id))
        table = build_decoder(code, "combined", t=2, l=registry_entry(code_id).l)
        for p, mu in points:
            ch = ChannelModel(p, mu)
            for w_max in range(5):
                for span in spans:
                    assert channel._truncated(code, table, ch, w_max, span) == \
                        oracle.truncated_every_class(code, table, ch, w_max, span), (w_max, span)


def test_truncated_groups_match_the_symbol_matrix_engine():
    # w_max 0 up to past n, spans below, at and above it
    for code in (FIVE_QUBIT, NO_STABILIZER):
        table = build_decoder(code, "combined", t=1, l=2)
        for p, mu in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.5), (0.03, 0.5)]:
            ch = ChannelModel(p, mu)
            for w_max in range(code.n + 2):
                for span in range(2, code.n + 2):
                    got = channel._truncated(code, table, ch, w_max, span)
                    assert got == oracle.pattern_class_truncated(code, table, ch, w_max, span)
                    assert got == oracle.truncated_every_class(code, table, ch, w_max, span)
                    assert (got.ef_lower, got.residual) == oracle.truncated_ef(
                        code, table.entries, ch, w_max, span), (code.n, p, mu, w_max, span)


@pytest.mark.parametrize("code_id", ["35_7", "41_1"])
def test_truncated_two_word_bursts_match_the_symbol_matrix_engine(code_id):
    # past 32 qubits the heavier bursts' weights and chain products are
    # read from two packed words
    entry = registry_entry(code_id)
    code = _registry_code(entry)
    table = build_decoder(code, "combined", t=1, l=min(entry.l, 6))
    ch = ChannelModel(0.03, 0.5)
    for w_max, span in [(0, 3), (1, 5), (2, 4)]:
        assert channel._truncated(code, table, ch, w_max, span) == \
            oracle.pattern_class_truncated(code, table, ch, w_max, span), (w_max, span)


def _weight_pairs(code, w_max, ch):
    """((label, product) pairs of _weight_groups, the same pairs from the
    ordered enumerator's labels and the symbol matrices' chain products),
    each sorted as a multiset; checks _chain_probs on the packed words on
    the way."""
    n = code.n
    table = channel._word_table(code)
    groups = channel._weight_groups(table[:, :, 0], ch, w_max)
    got = [np.concatenate([part[i] for part in groups]) for i in (1, 0)]
    labels, probs = [], []
    for w in range(min(w_max, n) + 1):
        words = channel._class_words(table, "weight", w)
        prob = oracle.chain_probs(oracle.pattern_class(n, "weight", w), ch)
        assert np.array_equal(channel._chain_probs(words[:, 1:], n, ch), prob), w
        labels.append(words[:, 0])
        probs.append(prob)
    want = [np.concatenate(labels), np.concatenate(probs)]
    return [[pairs[i][np.lexsort(pairs[::-1])] for i in (0, 1)] for pairs in (got, want)]


def _weight_test_codes():
    """Registry rows, and random codes of 31, 32 and 33 qubits (one packed
    word and two), each with the heaviest w_max <= 4 whose patterns number
    at most 2^19."""
    codes = [(e.id, _registry_code(e)) for e in load_registry()]
    rng = random.Random(31)
    codes += [(f"random {n}", _random_code(rng, n, n - 3)) for n in (31, 32, 33)]
    for name, code in codes:
        w_max = max(w for w in range(5) if sum(
            channel._class_size(code.n, "weight", v) for v in range(w + 1)) <= 1 << 19)
        yield name, code, w_max


def test_weight_groups_match_the_ordered_enumerator():
    for name, code, w_max in _weight_test_codes():
        got, want = _weight_pairs(code, w_max, ChannelModel(0.03, 0.5))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (name, w_max)


def test_truncated_builds_no_weight_class_matrix(monkeypatch):
    # the weight classes are grown as prefix groups; only the span classes
    # heavier than w_max are enumerated as word arrays
    table = build_decoder(CODE_13_1, "combined", t=2, l=3)
    calls = _count_class_words(monkeypatch)
    for w_max, span in [(0, 2), (2, 5), (4, 3)]:
        del calls[:]
        got = channel._truncated(CODE_13_1, table, ChannelModel(0.03, 0.5), w_max, span)
        assert calls == [(13, "span", size) for size in range(max(2, w_max + 1), span + 1)]
        assert got == oracle.pattern_class_truncated(CODE_13_1, table, ChannelModel(0.03, 0.5),
                                                     w_max, span)


def test_truncated_peak_is_below_the_symbol_matrix_engine():
    # the symbol-matrix engine peaked at 64 bytes a pattern here (13.6 MB)
    import tracemalloc
    entry = registry_entry("17_1a")
    code = _registry_code(entry)
    table = build_decoder(code, "combined", t=2, l=entry.l)
    patterns = sum(channel._class_size(code.n, kind, size)
                   for kind, size in channel._classes(code.n, 4, entry.l)
                   if kind == "weight" or size > 4)
    tracemalloc.start()
    try:
        channel._truncated(code, table, ChannelModel(0.03, 0.5), 4, entry.l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * patterns


@pytest.mark.parametrize("n, heaviest", [(13, 5), (17, 5), (23, 3)])
def test_weight_classes_match_the_lexsorted_scatter(n, heaviest):
    code = _registry_code(registry_entry({13: "13_1", 17: "17_1a", 23: "23_1"}[n]))
    table, words = channel._word_table(code), oracle.label_words(code)
    for w in range(heaviest + 1):
        got, want = channel._class_words(table, "weight", w), oracle.lexsorted_weight_class(n, w)
        assert np.array_equal(got[:, 0], oracle.fold(words, want)), w
        assert _joined(got) == oracle.packed_ints(want), w


def test_weight_class_peak_is_below_the_lexsort_build():
    # the lexsort build held the unsorted class, its int64 index and the
    # sorted copy at once, 42 bytes a pattern; the words are 16
    import tracemalloc
    count = math.comb(17, 4) * 3 ** 4
    table = channel._word_table(_registry_code(registry_entry("17_1a")))
    tracemalloc.start()
    try:
        channel._class_words(table, "weight", 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= count * 17 + count * 8 + count * 17


def test_truncated_23_1_matches_per_pattern_loop():
    # r = 22 syndrome bits, the smallest registry row past 16
    entry = registry_entry("23_1")
    code = _registry_code(entry)
    table = build_decoder(code, "combined", t=1, l=entry.l)
    ch = ChannelModel(0.03, 0.5)
    got = entanglement_fidelity(code, table, ch, strategy="truncated", w_max=1)
    assert (got.ef_lower, got.residual) == \
        oracle.truncated_ef(code, table.entries, ch, 1, entry.l)


def test_decoder_refuses_labels_over_one_word():
    # [[71,1]]: labels of n + k = 72 bits
    qr = "1^35 1^34 1^31 1^30 1^28 1^27 1^22 1^18 1^11 1^10 1^9 1^8 1^7 1^2 1^0"
    code = CodeLabels(71, *code_labels("css", 71, (qr, qr)))
    with pytest.raises(ResourceLimitError, match="64-bit word"):
        build_decoder(code, "random", t=1)


def _pauli_code(n, *rows):
    """A stabilizer code from Pauli strings such as "ZZII"."""
    return label_record(StabilizerCode(n, [oracle.packed(["IXZY".index(c) for c in row])
                                           for row in rows]))


X0_IN_STABILIZER = _pauli_code(4, "XIII", "IZZI")  # labels of X0 and I0 agree
Z0Z1_X2X3 = _pauli_code(4, "ZZII", "IIXX")  # Z1 has the label of Z0
NO_STABILIZER = label_record(StabilizerCode(3, []))  # k = n: every Pauli its own label


def test_label_mass_matches_gather():
    codes = [CODE_13_1, _registry_code(registry_entry("17_1a")), FIVE_QUBIT]
    # prefixes of 0, 1 and n qubits: the last has no transfer step
    for code, m in [(X0_IN_STABILIZER, 0), (Z0Z1_X2X3, 1), (NO_STABILIZER, 3)]:
        assert channel._independent_prefix(label_contrib(code)) == m
        codes.append(code)
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randrange(2, 9)
        codes.append(_random_code(rng, n, rng.randrange(0, n + 1)))
    for code in codes:
        # each step rounds sums and products of nonnegative terms, about
        # gamma_5 a step in either engine; zeros match the gemv oracle's exactly
        bound = 16 * code.n * 2.0 ** -53
        for p, mu in [(0.03, 0.5), (0.2, 0.0), (0.07, 0.95), (0.01, 0.3)]:
            ch = ChannelModel(p, mu)
            got, want = _original_frame_mass(code, ch), oracle.label_mass(code, ch)
            assert np.array_equal(got == 0, want == 0)
            assert np.all(np.abs(got - want) <= bound * want)
        # (p, mu) = (0, 1): every step is an exact permutation
        ch = ChannelModel(0.0, 1.0)
        assert np.array_equal(_original_frame_mass(code, ch), oracle.label_mass(code, ch))


def _original_frame_mass(code, ch):
    """_label_mass read back in the original labels: entry x is the mass
    of label x."""
    plan = channel._exact_plan(code)
    [mass] = channel._label_mass(plan, ch)
    return mass[channel._to_frame(plan.frame, np.arange(1 << (code.n + code.k)))]


def _suffix_labels_dependent(code):
    contrib = label_contrib(code)
    start = max(1, channel._independent_prefix(contrib))
    suffix = [c for row in contrib[start:] for c in row[1:3]]
    return gf2_rank(suffix) < len(suffix)


def test_frame_mass_is_bit_identical_to_the_permuted_recursion():
    # a relabeling only moves indices, and each label sees the same float
    # operations as in the original frame with its separate permute pass
    codes = [_registry_code(e) for e in load_registry() if e.n + e.k <= 20]
    codes += [X0_IN_STABILIZER, Z0Z1_X2X3, NO_STABILIZER, FIVE_QUBIT]
    rng = random.Random(79)
    codes += [_random_code(rng, n, rng.randrange(0, n + 1))
              for n in [rng.randrange(2, 9) for _ in range(16)]]
    # dependent suffix labels keep multi-bit labels in the frame
    assert sum(map(_suffix_labels_dependent, codes)) >= 3
    for code in codes:
        for p, mu in [(0.03, 0.5), (0.2, 0.0), (0.07, 0.95), (0.0, 1.0), (0.0, 0.0),
                      (1.0, 0.5)]:
            ch = ChannelModel(p, mu)
            assert np.array_equal(_original_frame_mass(code, ch),
                                  oracle.permuted_label_mass(code, ch)), (code.n, p, mu)


@pytest.mark.parametrize("code_id", [e.id for e in load_registry()])
def test_registry_transfer_labels_are_adjacent_high_bits(code_id):
    # every transfer step XORs by 0, e_a, e_(a-1) or both, a = dim - 1 - 2j
    code = _registry_code(registry_entry(code_id))
    contrib, dim = label_contrib(code), code.n + code.k
    start = channel._independent_prefix(contrib)
    frame = channel._label_frame(contrib, start, dim)
    for j, row in enumerate(contrib[start:]):
        images = [0] * 4
        for bit in range(dim):
            for s in range(4):
                images[s] ^= frame[bit] if row[s] >> bit & 1 else 0
        a = dim - 1 - 2 * j
        assert images == [0, 1 << a, 1 << a - 1, 3 << a - 1]


def test_to_frame_is_the_linear_map_of_the_images():
    rng = random.Random(80)
    for n in (1, 2, 5, 8):
        code = _random_code(rng, n, rng.randrange(0, n + 1))
        contrib, dim = label_contrib(code), code.n + code.k
        frame = channel._label_frame(contrib, rng.randrange(0, n + 1), dim)
        labels = np.arange(1 << dim)
        mapped = channel._to_frame(frame, labels)
        assert np.array_equal(np.sort(mapped), labels)  # a bijection
        for x in rng.sample(range(1 << dim), min(40, 1 << dim)):
            want = 0
            for bit in range(dim):
                want ^= frame[bit] if x >> bit & 1 else 0
            assert mapped[x] == want


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_xor_view_reads_the_xor_permutation(dim):
    x = np.random.default_rng(dim).random(1 << dim)
    for c in range(1 << dim):
        shape, flip = channel._xor_view(c, dim)
        want = np.empty_like(x)
        oracle.xor_permute(x, c, dim, want)
        assert np.array_equal(x.reshape(shape)[flip].ravel(), want)


def test_label_mass_holds_six_label_buffers():
    # the four rows of the mass, the row sum and one scratch row; the prefix
    # arrays are freed before the last two are allocated, and the row sum's
    # buffer before the last step is gathered at a table's labels
    import tracemalloc
    code = _registry_code(registry_entry("17_1a"))
    buffer = 8 << (code.n + code.k)
    tracemalloc.start()
    try:
        channel._label_mass(channel._exact_plan(code), ChannelModel(0.03, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * buffer
    # one exact point of 13_1's full table (every syndrome claimed); the
    # plan is built once per code, outside the point
    table = build_decoder(CODE_13_1, "random", t=5)
    plan = channel._exact_plan(CODE_13_1, [table])
    buffer = 8 << (CODE_13_1.n + CODE_13_1.k)
    tracemalloc.start()
    try:
        channel._fidelities([table], ChannelModel(0.03, 0.5), "exact", 4, None, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * buffer


def test_exact_fidelities_sum_the_full_mass():
    # the last step gathered at each table's labels adds the terms of the
    # full step and its row sum in the same order, so each fidelity is the
    # math.fsum of the full mass over the table's labels
    codes = [_registry_code(e) for e in load_registry() if e.n + e.k <= 20]
    codes += [X0_IN_STABILIZER, Z0Z1_X2X3, NO_STABILIZER]  # prefixes of 0, 1 and n
    rng = random.Random(79)
    codes += [_random_code(rng, n, rng.randrange(0, n + 1))
              for n in [rng.randrange(2, 9) for _ in range(16)]]
    assert sum(map(_suffix_labels_dependent, codes)) >= 3
    for code in codes:
        tables = [build_decoder(code, mode, t=1, l=min(3, code.n))
                  for mode in ("random", "burst", "combined")]
        plan = channel._exact_plan(code, tables)
        for p, mu in [(0.03, 0.5), (0.2, 0.0), (0.0, 1.0), (1.0, 0.5)]:
            ch = ChannelModel(p, mu)
            full = _original_frame_mass(code, ch)
            got = channel._fidelities(tables, ch, "exact", 4, None, plan)
            assert [res.ef_lower for res in got] == \
                [min(math.fsum(full[table.labels.astype(np.intp)].tolist()), 1.0)
                 for table in tables], (code.n, p, mu)
            for table, res in zip(tables, got):
                assert res == entanglement_fidelity(code, table, ch, limit=4 ** code.n)


def test_sweep_builds_one_exact_plan_per_code(monkeypatch):
    frames = []
    label_frame = channel._label_frame
    monkeypatch.setattr(channel, "_label_frame",
                        lambda *args: frames.append(args) or label_frame(*args))
    specs = [("five", FIVE_QUBIT, 1, 2), ("13_1", CODE_13_1, 2, 3)]
    grid = ([0.01, 0.03, 0.05], [0.0, 0.45, 0.9])  # nine points a code
    serial = sweep(specs, ["random", "burst", "combined"], *grid)
    assert len(serial) == 54 and len(frames) == 2
    del frames[:]
    parallel = sweep(specs, ["random", "burst", "combined"], *grid, workers=2)
    assert sweep_to_csv(parallel) == sweep_to_csv(serial) and len(frames) == 2


def test_independent_prefix_matches_distinct_labels():
    # m is the longest prefix whose 4^m Pauli strings have distinct labels
    rng = random.Random(78)
    codes = [X0_IN_STABILIZER, Z0Z1_X2X3, NO_STABILIZER, FIVE_QUBIT]
    codes += [_random_code(rng, n, rng.randrange(0, n + 1))
              for n in [rng.randrange(1, 7) for _ in range(40)]]
    for code in codes:
        contrib = label_contrib(code)
        m = channel._independent_prefix(contrib)

        def distinct(j):
            labels = [oracle.vector_label(contrib, sym)
                      for sym in itertools.product(range(4), repeat=j)]
            return len(set(labels)) == len(labels)

        assert distinct(m)
        assert m == code.n or not distinct(m + 1)


@pytest.mark.parametrize("code_id", [e.id for e in load_registry()])
def test_registry_prefix_is_half_the_label_bits(code_id):
    code = _registry_code(registry_entry(code_id))
    assert channel._independent_prefix(label_contrib(code)) == (code.n + code.k) // 2


def _count_class_words(monkeypatch):
    """Record each _class_words call as (n, kind, size)."""
    calls = []
    enumerate_class = channel._class_words

    def counted(table, kind, size):
        calls.append((len(table), kind, size))
        return enumerate_class(table, kind, size)

    monkeypatch.setattr(channel, "_class_words", counted)
    return calls


def test_decoder_refuses_before_enumerating(monkeypatch):
    # 41_1: the classes before span 10 hold 6,553,600 patterns, fewer than
    # 2^40 syndromes, so the walk is bound to reach the over-cap span-10 class
    code = _registry_code(registry_entry("41_1"))
    calls = _count_class_words(monkeypatch)
    with pytest.raises(ResourceLimitError,
                       match="the span-10 class needs 18874368 patterns of 41"):
        build_decoder(code, "combined", t=1, l=10)
    assert calls == []


def test_decoder_claims_every_syndrome_before_an_over_cap_class(monkeypatch):
    # 13_1 claims all 2^12 syndromes within weight 4; weight 5 is over the cap
    calls = _count_class_words(monkeypatch)
    monkeypatch.setattr(channel, "MAX_ARRAY_BYTES", 1 << 20)
    with pytest.raises(ResourceLimitError):
        channel._class_words(channel._word_table(CODE_13_1), "weight", 5)
    table = build_decoder(CODE_13_1, "random", t=5)
    assert table.entries == oracle.decoder_entries(CODE_13_1, 4, 0)
    assert [size for _, _, size in calls[1:]] == [0, 1, 2, 3, 4]
    # weight 3 over the cap: 742 lighter patterns cannot claim 4096 syndromes
    monkeypatch.setattr(channel, "MAX_ARRAY_BYTES", 1 << 16)
    del calls[:]
    with pytest.raises(ResourceLimitError, match="the weight-3 class"):
        build_decoder(CODE_13_1, "random", t=5)
    assert calls == []


def test_byte_cap_refuses_large_sets(monkeypatch):
    table = build_decoder(CODE_13_1, "burst", l=40)
    with pytest.raises(ResourceLimitError):
        entanglement_fidelity(CODE_13_1, table, ChannelModel(0.03, 0.5),
                              strategy="truncated")
    monkeypatch.setattr(channel, "MAX_ARRAY_BYTES", 32 << 13)
    with pytest.raises(ResourceLimitError):  # 2^14 labels; the cap holds 2^13
        entanglement_fidelity(CODE_13_1, table, ChannelModel(0.03, 0.5))
    with pytest.raises(ResourceLimitError):  # weight 4: 57915 patterns of 13
        build_decoder(CODE_13_1, "random", t=4)


def test_sweep_refuses_a_grid_product_over_the_cap(monkeypatch):
    # each grid is small, their product with the codes is not: the sweep
    # refuses it before it builds a table or a task list, so a missing
    # check fails at once on the patched build_decoder
    monkeypatch.setattr(channel, "MAX_ARRAY_BYTES", 4096)  # 512 tasks of 8 bytes

    def no_table(*args, **kwargs):
        raise AssertionError("build_decoder reached")

    monkeypatch.setattr(channel, "build_decoder", no_table)
    specs = [("a", FIVE_QUBIT, 1, 1), ("b", FIVE_QUBIT, 1, 1)]
    grid = [i / 100 for i in range(16)]
    with pytest.raises(ResourceLimitError, match="2 codes x 16 p x 17 mu points are 544 tasks"):
        channel.sweep(specs, ["random"], grid, grid + [0.5])
    with pytest.raises(AssertionError, match="build_decoder reached"):  # 512 tasks fit
        channel.sweep(specs, ["random"], grid, grid)


# ----------------------------------------------------------------------
# The label source: simulate's generator walk against the dual basis
# ----------------------------------------------------------------------
#
# The two sources label the cosets in different bases, so decoder tables
# key their entries differently; everything the channel computes acts per
# coset, so the recoveries, in claim order, and every fidelity and bracket
# agree bit for bit.

MODES = ("random", "burst", "combined")


def _walk_code(entry):
    """A registry row's label record as simulate builds it."""
    return CodeLabels(entry.n, *code_labels(entry.construction, entry.n, entry.genpolys))


def _scores(code, t, l, strategy, w_max, grid):
    """The recoveries of each mode's table in claim order, and the sweep's
    fidelities and brackets as float hex strings."""
    recoveries = [list(build_decoder(code, mode, t=t, l=l).entries.values()) for mode in MODES]
    points = sweep([("code", code, t, l)], MODES, *grid, strategy=strategy, w_max=w_max,
                   limit=4 ** code.n)
    return recoveries, [(pt.ef_lower.hex(), pt.residual.hex()) for pt in points]


@pytest.mark.parametrize("code_id", ["13_1", "15_3", "17_1a", "17_1b"])
def test_walk_labels_score_like_the_dual_basis_labels_exact(code_id):
    entry = registry_entry(code_id)
    stab = build_registry_code(entry)
    walk, dual = _walk_code(entry), label_record(stab)
    assert walk.k == dual.k and walk.columns != dual.columns
    t = (stab.min_distance() - 1) // 2
    grid = ([0.01, 0.03, 0.05], [0.0, 0.45, 0.9])
    assert _scores(walk, t, entry.l, "exact", 4, grid) == \
        _scores(dual, t, entry.l, "exact", 4, grid)


@pytest.mark.parametrize("code_id", [e.id for e in load_registry()
                                     if e.id not in ("13_1", "15_3", "17_1a", "17_1b")])
def test_walk_labels_score_like_the_dual_basis_labels_truncated(code_id):
    entry = registry_entry(code_id)
    walk, dual = _walk_code(entry), label_record(build_registry_code(entry))
    grid = ([0.03], [0.5])
    if channel._class_size(entry.n, "span", entry.l) * entry.n > channel.MAX_ARRAY_BYTES:
        # 41_1: its span-10 class is over the cap, refused alike
        for code in (walk, dual):
            with pytest.raises(ResourceLimitError, match=f"span-{entry.l} class"):
                _scores(code, 1, entry.l, "truncated", 3, grid)
        return
    assert _scores(walk, 1, entry.l, "truncated", 3, grid) == \
        _scores(dual, 1, entry.l, "truncated", 3, grid)


def test_walk_labels_score_like_the_dual_basis_labels_on_search_candidates():
    from qbecc.burst import quantum_burst_capability
    from qbecc.search import _candidates, _construct
    exact = candidates = 0
    for n in range(1, 16, 2):
        for construction in ("hermitian", "css"):
            for gens, k, columns in _candidates(n, construction):
                if not k:
                    continue
                walk = CodeLabels(n, k, columns)
                dual = label_record(_construct(construction,
                                               [cyclic_from_poly(g, n) for g in gens]))
                l = quantum_burst_capability(n, k, columns).l + 1
                at = (n, construction, gens)
                assert _scores(walk, 1, l, "truncated", 2, ([0.03], [0.5])) == \
                    _scores(dual, 1, l, "truncated", 2, ([0.03], [0.5])), at
                if n + k <= 18:
                    grid = ([0.03], [0.0, 0.9])
                    assert _scores(walk, 1, l, "exact", 4, grid) == \
                        _scores(dual, 1, l, "exact", 4, grid), at
                    exact += 1
                candidates += 1
    assert candidates == 181 and exact == 69


# ----------------------------------------------------------------------
# The exactly rounded sum: math.fsum of the values' list is the oracle
# ----------------------------------------------------------------------

def _fsum(parts):
    return math.fsum(itertools.chain.from_iterable(part.tolist() for part in parts))


def _same_float(a, b):
    return type(a) is float and a.hex() == b.hex()


def test_exact_sum_matches_fsum_over_the_float_range():
    rng = np.random.default_rng(11)
    tiny = [5e-324, 1e-323, 2.5e-320, 1e-310, 2.2250738585072014e-308, 2.2250738585072009e-308]
    for size in (2, 3, 17, 1000, 70000, 200000):
        values = 10.0 ** rng.uniform(-300, 0, size)
        values[rng.random(size) < 0.1] = 0.0
        values[:2] = [1.0, np.nextafter(1.0, 0.0)]
        values[2:2 + len(tiny)] = tiny[:max(0, size - 2)]
        rng.shuffle(values)
        assert _same_float(channel._exact_sum([values]), _fsum([values])), size
        pieces = np.split(values, np.sort(rng.integers(0, size, 4)))  # some empty
        assert _same_float(channel._exact_sum(pieces), _fsum([values])), size
    subnormal = rng.integers(0, 1 << 52, 5000).astype(np.uint64).view(np.float64)
    assert _same_float(channel._exact_sum([subnormal]), _fsum([subnormal]))


def test_exact_sum_of_many_copies_carries_across_bins():
    # 2^20 equal mantissas: each bin sum is the largest a chunk can hold,
    # and the total carries far past one value's exponent
    for value in (np.nextafter(1.0, 0.0), 0.7, 3e-17, 5e-324):
        values = np.full(1 << 20, value)
        assert _same_float(channel._exact_sum([values]), _fsum([values])), value
        assert _same_float(channel._exact_sum(np.split(values, 8)), _fsum([values])), value


def test_exact_sum_of_empty_and_single_values():
    assert _same_float(channel._exact_sum([]), 0.0)
    assert _same_float(channel._exact_sum([np.zeros(0)]), 0.0)
    assert _same_float(channel._exact_sum([np.zeros(0), np.zeros(3)]), 0.0)
    for value in (0.0, 5e-324, 1e-300, 0.1, 0.5, np.nextafter(1.0, 0.0), 1.0):
        assert _same_float(channel._exact_sum([np.array([value])]), float(value))


def test_exact_sum_chunk_bound():
    # a chunk's halves are below 2^27 and 2^26, so their bin sums are
    # integers below 2^53, exact in float64; this holds even for a chunk
    # of a whole capped array (2^26 float64)
    assert channel._SUM_CHUNK <= channel.MAX_ARRAY_BYTES // 8
    assert (channel.MAX_ARRAY_BYTES // 8) * ((1 << 27) - 1) < 1 << 53


def test_exact_sum_peak_is_a_few_chunk_buffers():
    # the fsum of a list held a Python float and a list slot a value
    import tracemalloc
    values = np.random.default_rng(3).random(1 << 20)
    tracemalloc.start()
    try:
        channel._exact_sum([values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * channel._SUM_CHUNK


def _fsum_checked(monkeypatch):
    """Patch channel._exact_sum to assert, at every call, that it returns
    math.fsum of each part's list and of all of them; returns the list of
    the summed part lengths."""
    exact_sum, lengths = channel._exact_sum, []

    def checked(parts):
        parts = list(parts)
        for part in parts:
            assert _same_float(exact_sum([part]), _fsum([part])), len(part)
        got = exact_sum(parts)
        assert _same_float(got, _fsum(parts))
        lengths.append([len(part) for part in parts])
        return got

    monkeypatch.setattr(channel, "_exact_sum", checked)
    return lengths


def test_exact_table_masses_sum_like_fsum_on_the_benchmark_grid(monkeypatch):
    lengths = _fsum_checked(monkeypatch)
    specs = []
    for code_id in ("13_1", "15_3", "17_1a", "17_1b"):
        entry = registry_entry(code_id)
        code = build_registry_code(entry)
        specs.append((code_id, label_record(code), (code.min_distance() - 1) // 2, entry.l))
    points = sweep(specs, ["random", "burst", "combined"], [0.01, 0.03, 0.05], [0.0, 0.45, 0.9],
                   limit=4 ** 17)
    assert len(points) == len(lengths) == 4 * 3 * 9
    assert all(len(parts) == 1 for parts in lengths)


@pytest.mark.parametrize("code_id, t", [("13_1", 1), ("17_1a", 1), ("35_7", 1)])
def test_truncated_parts_sum_like_fsum(monkeypatch, code_id, t):
    entry = registry_entry(code_id)
    code = _registry_code(entry)
    table = build_decoder(code, "combined", t=t, l=entry.l)
    lengths = _fsum_checked(monkeypatch)
    channel._truncated(code, table, ChannelModel(0.03, 0.5), 4, entry.l)
    hits, everything = lengths
    assert len(hits) == len(everything) > 1 and sum(hits) <= sum(everything)
