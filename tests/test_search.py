import csv
import functools
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from burst_oracle import capability
from cyclic_oracle import cyclic_from_poly_matrix
from divisibility_oracle import (_css_dual_containing, _hermitian_dual_containing,
                                 filtered_hermitian_divisors)
from label_oracle import label_ints
from qbecc.burst import quantum_burst_capability
from qbecc.classical import (binary_dual_containing, cyclic_from_poly,
                             hermitian_dual_containing)
from qbecc.cli import main
from qbecc.gf import GF2, GF4, Poly, berlekamp_factor, xn_minus_1
from qbecc.registry import load_registry, registry_entry
from qbecc.search import _candidates, _construct, _divisors, _factors, _survivor_masks
from qbecc.search import (GenPolyError, SearchPlan, build_code, build_registry_code,
                          code_labels, cyclic_code, enumerate_cyclic_generators,
                          format_genpoly,
                          parse_genpoly, records_to_csv, reproduce_table1, search)
from qbecc.stabilizer import css_construct, hermitian_construct

W = 2


def test_parse_genpoly_table_row():
    assert parse_genpoly("1^6 2^3 1^0", 15, GF4) == Poly(GF4, (1, 0, 0, W, 0, 0, 1))
    assert parse_genpoly("1^0 2^3 1^6", 15, GF4) == Poly(GF4, (1, 0, 0, W, 0, 0, 1))


def test_parse_genpoly_constant():
    assert parse_genpoly("1^0", 7, GF2) == Poly.one(GF2)


def test_parse_genpoly_errors():
    for text, message in [("1^6 1^6", "duplicate exponent 6"),
                          ("4^2", "malformed token '4^2'"),
                          ("1^15", "exponent 15 not below code length 15"),
                          ("", "empty generator polynomial"),
                          ("1^2 w^1", "malformed token 'w^1'")]:
        with pytest.raises(GenPolyError, match=re.escape(message)):
            parse_genpoly(text, 15, GF4)


def test_parse_genpoly_takes_x_n_minus_1_only_whole():
    # the generator of the zero code, which search writes as a CSS row
    for field in (GF2, GF4):
        assert parse_genpoly("1^15 1^0", 15, field) == xn_minus_1(15, field)
        assert parse_genpoly("1^0 1^15", 15, field) == xn_minus_1(15, field)
    for text in ("1^15", "1^15 1^1", "1^15 2^0", "1^15 1^3 1^0"):
        with pytest.raises(GenPolyError, match="exponent 15 not below code length 15"):
            parse_genpoly(text, 15, GF4)
    with pytest.raises(GenPolyError, match="exponent 16 not below code length 15"):
        parse_genpoly("1^16 1^0", 15, GF2)


def test_every_search_row_re_reads_through_analyze():
    # each row's generator texts go back through analyze's path, the k = 0
    # CSS row of the zero code (genpoly2 "1^n 1^0") included
    records = search(SearchPlan(tuple(range(1, 32, 2)))).records
    zero_codes = 0
    for rec in records:
        k, columns = code_labels(rec.construction, rec.n, (rec.genpoly1, rec.genpoly2))
        analysis = quantum_burst_capability(rec.n, k, columns)
        assert (k, analysis.l, analysis.degenerate) == (rec.k, rec.l, rec.degenerate), rec
        zero_codes += rec.genpoly2 == f"1^{rec.n} 1^0"
    assert zero_codes == 16


def test_parse_genpoly_roundtrip():
    for text, n in [("1^6 2^3 1^0", 15), ("1^8 3^7 3^5 3^4 3^3 3^1 1^0", 17)]:
        assert format_genpoly(parse_genpoly(text, n, GF4)) == text


def test_binary_genpoly_rejects_nonbinary_coefficients():
    assert parse_genpoly("2^1 1^0", 7, GF4) == Poly(GF4, (1, W))
    with pytest.raises(GenPolyError, match="binary generator polynomial must have "
                                           "all coefficients 1"):
        parse_genpoly("2^1 1^0", 7, GF2)


def test_enumerate_cyclic_generators_counts():
    assert len(enumerate_cyclic_generators(3, GF2)) == 4
    assert len(enumerate_cyclic_generators(5, GF4)) == 8
    divisors = enumerate_cyclic_generators(15, GF4)
    assert len(divisors) == 512  # 9 irreducible factors
    assert Poly(GF4, (1, 0, 0, W, 0, 0, 1)) in divisors


def test_enumerate_cyclic_generators_rejects_even():
    with pytest.raises(ValueError):
        enumerate_cyclic_generators(4, GF2)


def test_search_n13_hermitian_contains_table_row():
    outcome = search(SearchPlan((13,), ("hermitian",)))
    assert outcome.complete
    hits = [r for r in outcome.records if (r.n, r.k, r.l) == (13, 1, 3)]
    assert hits and all(r.saturates for r in hits)


def test_search_n7_css_contains_steane():
    outcome = search(SearchPlan((7,), ("css",)))
    assert outcome.complete
    hits = [r for r in outcome.records if (r.n, r.k) == (7, 1) and r.l >= 1]
    assert hits


def test_search_empty_plan():
    outcome = search(SearchPlan((), ("hermitian", "css")))
    assert outcome.records == () and outcome.complete


def test_search_budget_marks_incomplete():
    outcome = search(SearchPlan((13, 15), ("hermitian",), max_candidates=3))
    assert not outcome.complete
    assert len(outcome.records) == 3


def test_search_deterministic_csv():
    a = records_to_csv(search(SearchPlan((7,), ("hermitian", "css"))).records)
    b = records_to_csv(search(SearchPlan((7,), ("hermitian", "css"))).records)
    assert a == b
    assert a.splitlines()[0] == "n,k,l,qrb,saturates,degenerate,construction,genpoly1,genpoly2"


def test_search_records_revalidate():
    outcome = search(SearchPlan((7,), ("hermitian",)))
    for record in outcome.records[:6]:
        entry_like = type("E", (), {
            "construction": record.construction, "n": record.n,
            "genpolys": (record.genpoly1, record.genpoly2)})
        stab = build_registry_code(entry_like)
        analysis = capability(stab)
        assert (stab.k, analysis.l, analysis.degenerate) == \
            (record.k, record.l, record.degenerate)


@pytest.mark.parametrize("n", [25, 29, 35, 41])
def test_search_contains_registry_rows(n):
    # cross-checks the search against the registry, not just a rebuild
    rows = [e for e in load_registry() if e.n == n]
    assert rows
    outcome = search(SearchPlan((n,), tuple({e.construction for e in rows})))
    assert outcome.complete
    found = {(r.construction, r.genpoly1, r.genpoly2): (r.k, r.l, r.degenerate)
             for r in outcome.records}
    for entry in rows:
        g1, g2 = (*entry.genpolys, "")[:2]
        assert found[(entry.construction, g1, g2)] == \
            (entry.k, entry.l, entry.degenerate), entry.id


def test_plan_validation():
    with pytest.raises(ValueError):
        SearchPlan((7,), ("hermitian",), max_seconds=0)
    with pytest.raises(ValueError):
        SearchPlan((7,), ("weird",))


def test_plan_rejects_nan_budget_and_accepts_inf():
    # nan <= 0 is False, so a NaN budget used to pass and never fire
    with pytest.raises(ValueError, match="time budget must be positive"):
        SearchPlan((7,), ("hermitian",), max_seconds=float("nan"))
    outcome = search(SearchPlan((7,), ("hermitian",), max_seconds=float("inf")))
    assert outcome.complete
    assert outcome.records == search(SearchPlan((7,), ("hermitian",))).records


def test_plan_rejects_even_lengths_before_any_analysis(monkeypatch):
    import qbecc.search as search_module

    def analyze(*args):
        raise AssertionError("no code is analyzed for a plan with an even length")

    monkeypatch.setattr(search_module, "quantum_burst_capability", analyze)
    for n_values in [(21, 4), (2,), (7, 9, 10)]:
        with pytest.raises(ValueError, match="even length"):
            search(SearchPlan(n_values))
    with pytest.raises(AssertionError):
        search(SearchPlan((7,)))


def test_plan_checks_an_even_step_range_from_its_ends():
    # a plan over 10^11 lengths is built at once; bad ends are refused
    plan = SearchPlan(range(13, 2 * 10 ** 11, 2))
    assert plan.n_values == range(13, 2 * 10 ** 11, 2)
    for n_values, message in [(range(12, 20, 2), "even length"),
                              (range(-3, 99, 2), "at least 1, got -3"),
                              (range(15, -7, -2), "at least 1, got -5"),
                              (range(14, 15), "even length"),
                              (range(13, 20, 3), "even length")]:  # odd step: every length
        with pytest.raises(ValueError, match=message):
            SearchPlan(n_values)
    assert {r.n for r in search(SearchPlan(range(15, 4, -4))).records} == {7, 11, 15}
    assert SearchPlan(range(21, 21)).n_values == range(21, 21)


def test_registry_loads_15_rows():
    entries = load_registry()
    assert len(entries) == 15
    assert [e.id for e in entries][:2] == ["13_1", "15_3"]
    entry = registry_entry("35_25")
    assert entry.note  # carries the printed-typo correction note


def test_registry_unknown_id():
    with pytest.raises(KeyError):
        registry_entry("99_9")


def test_build_code_matches_hand_built_codes():
    herm = build_code("hermitian", 15, ["1^6 2^3 1^0"])
    assert herm.basis == hermitian_construct(
        cyclic_from_poly(Poly(GF4, (1, 0, 0, W, 0, 0, 1)), 15)).basis
    assert cyclic_code("1^6 2^3 1^0", 15, GF4) == cyclic_from_poly(
        Poly(GF4, (1, 0, 0, W, 0, 0, 1)), 15)
    css = build_code("css", 21, ["1^6 1^4 1^1 1^0", "1^6 1^4 1^2 1^1 1^0"])
    assert css.params == (21, 9)


def test_build_code_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown construction"):
        build_code("steane", 7, ["1^0"])
    with pytest.raises(ValueError, match="takes 2 generator"):
        build_code("css", 7, ["1^3 1^1 1^0", ""])
    with pytest.raises(ValueError, match="takes 1 generator"):
        build_code("hermitian", 7, ["1^3 1^1 1^0", "1^1 1^0"])
    with pytest.raises(GenPolyError):
        build_code("css", 7, ["1^3 1^1 1^0", "2^3 1^0"])


def test_reproduce_quick_rows():
    entries = [e for e in load_registry() if e.n <= 17]
    report = reproduce_table1(entries)
    assert len(report) == 4
    assert all(r.match for r in report)


def test_registry_parsed_once():
    assert load_registry() is load_registry()
    assert registry_entry("13_1") is load_registry()[0]


# ----------------------------------------------------------------------
# Divisibility filters against the matrix predicates
# ----------------------------------------------------------------------

def _generators_of(n, construction):
    """The search candidates' generator tuples, in search order."""
    return [gens for gens, _, _ in _candidates(n, construction)]


def _constructs(construct, *codes) -> bool:
    """False iff the constructor rejects its input with ValueError."""
    try:
        construct(*codes)
    except ValueError:
        return False
    return True


def test_divisibility_filters_match_matrix_predicates():
    # every odd n <= 31 with at most 64 binary divisors (so not n = 31); the
    # constructors, gated only by the commutation check, must agree too
    cases = passed = 0
    for n in range(3, 32, 2):
        binary = _divisors(n, GF2)
        if len(binary) > 64:
            continue
        hermitian = []
        for g, s, m in _divisors(n, GF4):
            code = cyclic_from_poly(g, n)
            want = hermitian_dual_containing(code)
            assert (not s & m) == want, (n, g)
            assert _hermitian_dual_containing(g, n) == want, (n, g)
            assert _constructs(hermitian_construct, code) == want, (n, g)
            hermitian += [(g,)] * want
            cases += 1
            passed += want
        codes = [cyclic_from_poly(g, n) for g, _, _ in binary]
        css = []
        for i, (g1, s1, _) in enumerate(binary):
            for j, (g2, _, m2) in enumerate(binary):
                want = binary_dual_containing(codes[j], codes[i])
                assert (not s1 & m2) == want, (n, g1, g2)
                assert _css_dual_containing(g1, g2, n) == want, (n, g1, g2)
                assert _constructs(css_construct, codes[i], codes[j]) == want, (n, g1, g2)
                css += [(g1, g2)] * (want and i <= j)
                cases += 1
                passed += want
        assert _generators_of(n, "hermitian") == hermitian, n
        assert _generators_of(n, "css") == css, n
    assert cases > 6000 and 0 < passed < cases


@pytest.mark.parametrize("field", [GF2, GF4])
def test_mirror_mask_is_the_reciprocal_factor_mask(field):
    for n in range(1, 42, 2):
        divisors = _divisors(n, field)
        assert [g for g, _, _ in divisors] == enumerate_cyclic_generators(n, field)
        mask = {g: s for g, s, _ in divisors}
        factors = {s: g for g, s, _ in divisors if s.bit_count() == 1}
        mirror = {s: m for _, s, m in divisors if s in factors}
        # the mirror permutes the factors and is its own inverse
        assert sorted(mirror.values()) == sorted(factors)
        assert all(mirror[mirror[s]] == s for s in mirror), n
        for g, s, m in divisors:
            assert all((g % factors[b]).is_zero == bool(s & b) for b in factors), (n, g)
            reciprocal = Poly(field, [field.conj(c) for c in reversed(g.coeffs)])
            assert mask[reciprocal.monic()] == m, (n, g)


def test_hermitian_survivors_have_room_for_their_dual():
    # disjoint masks imply deg g + deg g' <= n, so the dual's dimension
    # deg g never exceeds the code's n - deg g
    survivors = 0
    for n in range(1, 42, 2):
        for (g,), _, _ in _candidates(n, "hermitian"):
            assert 2 * g.degree <= n, (n, g)
            survivors += 1
    assert survivors == 241


def _mirror_mask(s, mirror):
    return sum(1 << mirror[i] for i in range(len(mirror)) if s >> i & 1)


def test_hermitian_survivors_number_3_to_the_mirror_pairs():
    # counted on factor masks, with no code built: one of neither, f or f'
    # per mirror pair, and no factor that is its own mirror
    pinned = {45: 243, 51: 729, 63: 19683, 85: 177147, 93: 19683}
    brute = 0
    for n in range(1, 100, 2):
        _, mirror = _factors(n, GF4)
        pairs = sum(i < j for i, j in enumerate(mirror))
        pairs_of_masks = _survivor_masks(mirror)
        # every survivor carries the mask of its mirror
        assert all(m == _mirror_mask(s, mirror) for s, m in pairs_of_masks), n
        masks = [s for s, _ in pairs_of_masks]
        assert len(masks) == len(set(masks)) == 3 ** pairs, n
        assert pinned.get(n, len(masks)) == len(masks), n
        fixed = sum(1 << i for i, j in enumerate(mirror) if i == j)
        assert not any(s & fixed for s in masks), n
        if len(mirror) <= 16:  # every subset of the factors
            assert sorted(masks) == [s for s in range(1 << len(mirror))
                                     if not s & _mirror_mask(s, mirror)], n
            brute += 1
        else:
            assert all(not s & _mirror_mask(s, mirror) for s in masks[::97]), n
    assert brute > 40


def test_hermitian_candidates_match_the_filtered_divisor_list():
    for n in range(1, 42, 2):
        expected = filtered_hermitian_divisors(n)
        assert expected == [(g,) for g in enumerate_cyclic_generators(n, GF4)
                            if _hermitian_dual_containing(g, n)], n
        assert _generators_of(n, "hermitian") == expected, n


def _constructed(construction, codes):
    """The stabilizer code's (basis, labels), or None when the constructor
    rejects the codes."""
    try:
        stab = _construct(construction, codes)
    except ValueError:
        return None
    return stab.basis, label_ints(stab)


def test_direct_builds_construct_like_the_matrix_oracle():
    # every GF(4) divisor, every CSS candidate, and every ordered pair of
    # binary divisors for n <= 15, built from the direct and the matrix rows
    built = rejected = 0
    for n in range(1, 32, 2):
        cases = [("hermitian", (g,)) for g in enumerate_cyclic_generators(n, GF4)]
        binary = enumerate_cyclic_generators(n, GF2)
        if n <= 15:
            cases += [("css", (g1, g2)) for g1 in binary for g2 in binary]
        else:
            cases += [("css", gens) for gens in _generators_of(n, "css")]
        direct_code = functools.cache(cyclic_from_poly)
        oracle_code = functools.cache(cyclic_from_poly_matrix)
        for construction, gens in cases:
            direct = _constructed(construction, [direct_code(g, n) for g in gens])
            oracle = _constructed(construction, [oracle_code(g, n) for g in gens])
            assert direct == oracle, (n, construction, gens)
            built += direct is not None
            rejected += direct is None
    assert built > 1500 and rejected > 1000


def _oracle_divisors(n, field):
    """Every product of a subset of the irreducible factors of x^n - 1,
    multiplied here and sorted by (degree, coefficients)."""
    factors = berlekamp_factor(xn_minus_1(n, field))
    divisors = []
    for subset in range(1 << len(factors)):
        g = Poly.one(field)
        for i, f in enumerate(factors):
            if subset >> i & 1:
                g = g * f
        divisors.append(g)
    return sorted(divisors, key=lambda g: (g.degree, g.coeffs))


def _oracle_candidates(n, constructions):
    """Generator texts of the dual-containing candidates in search order,
    from the divisibility oracle."""
    out = []
    if "hermitian" in constructions:
        out += [(format_genpoly(g), "") for g in _oracle_divisors(n, GF4)
                if _hermitian_dual_containing(g, n)]
    if "css" in constructions:
        binary = _oracle_divisors(n, GF2)
        out += [(format_genpoly(g1), format_genpoly(g2)) for i, g1 in enumerate(binary)
                for g2 in binary[i:] if _css_dual_containing(g1, g2, n)]
    return out


@pytest.mark.parametrize("n", [15, 21, 35])
@pytest.mark.parametrize("constructions", [("hermitian",), ("css",), ("hermitian", "css")])
def test_search_budget_takes_candidates_in_oracle_order(n, constructions):
    expected = _oracle_candidates(n, constructions)
    if n == 35:  # 4 mirror pairs
        assert sum(not g2 for _, g2 in expected) == 81 * ("hermitian" in constructions)
    for budget in (1, 5, 27, 40):
        outcome = search(SearchPlan((n,), constructions, max_candidates=budget))
        assert sorted((r.genpoly1, r.genpoly2) for r in outcome.records) == \
            sorted(expected[:budget]), budget
        assert outcome.complete == (budget >= len(expected)), budget


@pytest.mark.parametrize("n", [15, 21])
def test_search_budget_complete_iff_every_survivor_analyzed(n):
    survivors = len(_oracle_candidates(n, ("hermitian",)))
    assert survivors == 27
    exact = search(SearchPlan((n,), ("hermitian",), max_candidates=survivors))
    assert exact.complete and len(exact.records) == survivors
    short = search(SearchPlan((n,), ("hermitian",), max_candidates=survivors - 1))
    assert not short.complete and len(short.records) == survivors - 1


# ----------------------------------------------------------------------
# Search output against the benchmark reference
# ----------------------------------------------------------------------

def test_search_csv_matches_benchmark_reference():
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json")
                           .read_text())["search"]["lengths"]
    for n in (13, 15, 17, 19):
        lines = records_to_csv(search(SearchPlan((n,))).records).splitlines()[1:]
        assert len(lines) == reference[str(n)]["records"], n
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == reference[str(n)]["sha256"], n


def test_simulate_csv_matches_benchmark_reference(capsys):
    # the seed-0 exact and truncated calls of perfbench/workloads.py, whose
    # reference file is read, never written
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json")
                           .read_text())["simulate"]
    common = ("simulate", "--code", "13_1,17_1a", "--workers", "1")
    assert main([*common, "--decoder", "random,burst,combined", "--p", "0.01:0.02:0.05",
                 "--mu", "0:0.45:0.9", "--limit", str(4 ** 17)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {",".join((r["code"], r["decoder"], r["p"], r["mu"])): float(r["ef_lower"])
            for r in rows} == reference["exact"]
    assert len(rows) == 54 and {(r["ef_residual"], r["exact"]) for r in rows} == {("0", "true")}
    assert main([*common, "--strategy", "truncated", "--decoder", "combined",
                 "--p", "0.03", "--mu", "0.5"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {",".join((r["code"], r["p"], r["mu"])): [float(r["ef_lower"]), float(r["ef_residual"])]
            for r in rows} == reference["truncated"]


def test_search_n45_digest():
    # the n = 45 search pinned in ROADMAP: 243 Hermitian and 3285 CSS records
    csv_text = records_to_csv(search(SearchPlan((45,))).records)
    assert csv_text.count("\n") - 1 == 3528
    assert hashlib.sha256(csv_text.encode()).hexdigest()[:16] == "459b220ecf5c776f"


def test_search_module_not_shadowed():
    # the package re-exports must leave qbecc.search bound to the module
    import types

    import qbecc
    import qbecc.search as search_module
    assert isinstance(search_module, types.ModuleType)
    assert qbecc.search is search_module
    assert callable(search_module.search)


def test_products_leave_no_cyclic_garbage():
    # the product cache refers to no one who refers back to it, so dropping
    # it frees every product at once, with nothing left for the collector
    import gc
    from qbecc.search import _Products
    factors, _ = _factors(21, GF4)
    gc.collect()
    gc.disable()
    try:
        products = _Products(factors)
        full = products[(1 << len(factors)) - 1]
        assert full == xn_minus_1(21, GF4)
        assert len(products) == len(factors) + 1  # each mask on the way, once
        del products, full
        assert gc.collect() == 0
    finally:
        gc.enable()
