"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy artifacts
(full table reproduction, figure sweeps) are computed once in module-scoped
fixtures and shared across criteria.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import pytest

from burst_oracle import capability, located_burst_check, oracle_capability
from channel_oracle import error_prob
from conftest import random_self_orthogonal_code
from qbecc.burst import no_cloning_check, qrb
from qbecc.channel import ChannelModel, CodeLabels, build_decoder, entanglement_fidelity, sweep
from qbecc.classical import cyclic_from_poly, rs_mds
from qbecc.cli import _parse_grid
from qbecc.gf import GF4, ExtField
from qbecc.linalg import mat_row_reduce
from qbecc.qtpc import (InterleaverMap, deinterleave, dispersal_report, qtpc_construct,
                        tensor_check_matrix)
from qbecc.registry import load_registry, registry_entry
from qbecc.search import build_registry_code, code_labels, parse_genpoly

MU_GRID = [round(0.05 * i, 2) for i in range(21)]
P_GRID_LOG = _parse_grid("1e-5:log:1e-1")
P_FIG1 = 3e-2


@pytest.fixture(scope="module")
def reproduction():
    """Full `search --reproduce-table1` run through the real CLI."""
    proc = subprocess.run(
        [sys.executable, "-m", "qbecc.cli", "search", "--reproduce-table1"],
        capture_output=True, text=True, timeout=3600)
    payload = json.loads(proc.stdout)
    return proc.returncode, payload


@pytest.fixture(scope="module")
def random_code_analyses():
    rng = random.Random(20260810)
    out = []
    while len(out) < 200:
        n = rng.randrange(2, 9)
        code = random_self_orthogonal_code(rng, n, rng.randrange(1, min(n + 1, 8)))
        fast = capability(code)
        slow = oracle_capability(code)
        out.append((code, fast, slow))
    return out


@pytest.fixture(scope="module")
def distances():
    d = {}
    for code_id in ("13_1", "17_1a", "17_1b"):
        stab = build_registry_code(registry_entry(code_id))
        t0 = time.monotonic()
        d[code_id] = (stab.min_distance(), time.monotonic() - t0, stab)
    return d


@pytest.fixture(scope="module")
def sim_codes(distances):
    """Codes for the figure sweeps, as simulate reads them: label records
    from the generators, decoder radii derived from the computed distances
    (t = (d-1)/2) and spans from the registry."""
    specs = []
    for code_id in ("13_1", "17_1a"):
        entry = registry_entry(code_id)
        code = CodeLabels(entry.n, *code_labels(entry.construction, entry.n, entry.genpolys))
        specs.append((code_id, code, (distances[code_id][0] - 1) // 2, entry.l))
    return specs


@pytest.fixture(scope="module")
def figure_data(sim_codes):
    t0 = time.monotonic()
    fig1 = sweep(sim_codes, ["random", "combined"], [P_FIG1], MU_GRID,
                 strategy="exact", limit=4 ** 17)
    fig2 = sweep(sim_codes, ["random", "combined"], P_GRID_LOG, [0.5],
                 strategy="exact", limit=4 ** 17)
    fig3 = sweep(sim_codes, ["random", "combined"], P_GRID_LOG, [0.0],
                 strategy="exact", limit=4 ** 17)
    seconds = time.monotonic() - t0
    index = {}
    for point in itertools.chain(fig1, fig2, fig3):
        index[(point.code_id, point.decoder, point.p, point.mu)] = point
    return index, seconds


@pytest.fixture(scope="module")
def bracket_data(sim_codes):
    spec13 = [s for s in sim_codes if s[0] == "13_1"]
    fig1 = sweep(spec13, ["random", "combined"], [P_FIG1], MU_GRID,
                 strategy="truncated", w_max=4)
    fig2 = sweep(spec13, ["random", "combined"], P_GRID_LOG, [0.5],
                 strategy="truncated", w_max=4)
    fig3 = sweep(spec13, ["random", "combined"], P_GRID_LOG, [0.0],
                 strategy="truncated", w_max=4)
    return {(p.code_id, p.decoder, p.p, p.mu): p
            for p in itertools.chain(fig1, fig2, fig3)}


def test_criterion_1_table1_reproduction(reproduction):
    returncode, payload = reproduction
    assert payload["total"] == 15
    mismatches = [row for row in payload["rows"] if not row["match"]]
    assert not mismatches, f"rows off: {mismatches}"
    assert payload["matched"] == 15
    assert returncode == 0
    for row in payload["rows"]:
        n = row["expected"]["n"]
        budget = 60 if n <= 25 else (600 if n == 35 else 3600)
        assert row["seconds"] < budget, f"{row['id']} took {row['seconds']}s"
    slowest = max(payload["rows"], key=lambda r: r["seconds"])
    print(f"\nACCEPTANCE 1 (table reproduction): PASS - 15/15 rows match "
          f"(n, k, l, degenerate); slowest {slowest['id']} at {slowest['seconds']}s")


def test_criterion_2_qrb_column(reproduction):
    _, payload = reproduction
    for entry in load_registry():
        assert qrb(entry.n, entry.k) == entry.qrb, entry.id
    for row in payload["rows"]:
        assert row["observed"]["l"] <= row["observed"]["qrb"], row["id"]
    print("\nACCEPTANCE 2 (QRB column): PASS - floor((n-k)/4) matches all 15 "
          "rows and no analyzed l exceeds it")


def test_criterion_3_distances(distances):
    d13, sec13, _ = distances["13_1"]
    assert d13 == 5
    assert sec13 < 60
    d17s = {cid: distances[cid][0] for cid in ("17_1a", "17_1b")}
    assert 7 in d17s.values()
    assert all(distances[cid][1] < 60 for cid in d17s)
    print(f"\nACCEPTANCE 3 (distances): PASS - d(13_1)={d13}, "
          f"d(17_1a)={d17s['17_1a']}, d(17_1b)={d17s['17_1b']} "
          f"(both 17-qubit rows computed; at least one equals 7)")


def test_criterion_4_oracle_equivalence(random_code_analyses):
    assert len(random_code_analyses) >= 200
    for code, fast, slow in random_code_analyses:
        assert (fast.l, fast.degenerate) == (slow.l, slow.degenerate), code.params
    print(f"\nACCEPTANCE 4 (oracle equivalence): PASS - window-rank == "
          f"all-pairs oracle on (l, degenerate) for {len(random_code_analyses)} "
          f"random self-orthogonal codes with n <= 8")


def test_criterion_5_bounds_as_laws(reproduction, random_code_analyses):
    _, payload = reproduction
    for row in payload["rows"]:
        obs = row["observed"]
        assert obs["n"] - obs["k"] >= 4 * obs["l"], row["id"]
        if obs["k"] >= 1:
            assert no_cloning_check(obs["n"], obs["l"]), row["id"]
    for code, fast, _ in random_code_analyses:
        assert code.n - code.k >= 4 * fast.l
        if code.k >= 1:
            assert no_cloning_check(code.n, fast.l)
    windows = 0
    for entry in load_registry():
        if entry.n > 17:
            continue
        stab = build_registry_code(entry)
        span = 2 * entry.l
        for start in range(stab.n - span + 1):
            assert located_burst_check(stab, start, span), (entry.id, start)
            windows += 1
    print(f"\nACCEPTANCE 5 (bounds as laws): PASS - Reiger and no-cloning hold "
          f"on all table rows and 200 random codes; located-burst check passed "
          f"{windows} span-2l windows on rows with n <= 17")


def test_criterion_6_channel_sanity():
    rng = random.Random(606)
    samples = 0
    for n in (4, 6, 8):
        for _ in range(7):
            ch = ChannelModel(rng.random(), rng.random())
            total = math.fsum(
                error_prob(sym, ch)
                for sym in itertools.product(range(4), repeat=n))
            assert abs(total - 1.0) < 1e-12, (n, ch)
            samples += 1
    assert samples >= 20
    for n in range(1, 7):
        ch = ChannelModel(0.06, 0.0)
        for sym in itertools.product(range(4), repeat=n):
            product = 1.0
            for s in sym:
                product *= ch.marginals[s]
            assert error_prob(sym, ch) == product
    print(f"\nACCEPTANCE 6 (channel sanity): PASS - normalization within 1e-12 "
          f"for {samples} random (p, mu) at n in (4, 6, 8); mu=0 factorization "
          f"exact and exhaustive for n <= 6")


def test_criterion_7_figure_regimes(figure_data, sim_codes):
    index, seconds = figure_data
    assert seconds < 1800, f"sweep took {seconds}s"

    # (a) correlation degrades fidelity under random-only decoding
    for code_id in ("13_1", "17_1a"):
        lo = index[(code_id, "random", P_FIG1, 0.1)].ef_lower
        hi = index[(code_id, "random", P_FIG1, 0.9)].ef_lower
        assert hi < lo, (code_id, lo, hi)

    # (b) combined decoding never loses to random-only, zero tolerance
    checked = 0
    for (code_id, decoder, p, mu), point in index.items():
        if decoder != "random":
            continue
        other = index[(code_id, "combined", p, mu)]
        assert other.ef_lower >= point.ef_lower, (code_id, p, mu)
        checked += 1

    # (c) burst-aware short code beats random-only longer code at the
    # published operating point, with a tight bracket on the longer code
    ef13 = index[("13_1", "combined", P_FIG1, 0.5)]
    ef17 = index[("17_1a", "random", P_FIG1, 0.5)]
    assert ef13.ef_lower > ef17.ef_lower
    assert ef17.residual < 1e-4  # exact run: residual is exactly zero
    # the weight-4 truncated bracket is also exercised and must contain the
    # exact value; its residual under correlation is reported, not hidden
    code17 = sim_codes[1][1]
    table17 = build_decoder(code17, "random", t=sim_codes[1][2])
    bracket17 = entanglement_fidelity(code17, table17, ChannelModel(P_FIG1, 0.5),
                                      strategy="truncated", w_max=4)
    assert bracket17.ef_lower - 1e-9 <= ef17.ef_lower <= \
        bracket17.ef_lower + bracket17.residual + 1e-9

    # (d) with independent errors the extra burst entries barely matter
    for p in [x for x in P_GRID_LOG if x <= 1e-2]:
        delta = abs(index[("13_1", "combined", p, 0.0)].ef_lower
                    - index[("13_1", "random", p, 0.0)].ef_lower)
        assert delta < 1e-3, (p, delta)

    print(f"\nACCEPTANCE 7 (figure regimes): PASS - (a) EF(mu=0.9) < EF(mu=0.1) "
          f"for both codes; (b) combined >= random at {checked} grid points; "
          f"(c) EF(13_1 combined)={ef13.ef_lower:.6f} > "
          f"EF(17_1a random)={ef17.ef_lower:.6f} at p=0.03, mu=0.5 with exact "
          f"residual {ef17.residual:.1e} (weight-4 bracket residual "
          f"{bracket17.residual:.2e}, contains exact); (d) |combined-random| < "
          f"1e-3 at mu=0 for p <= 1e-2; sweeps in {seconds:.0f}s")


def test_criterion_8_bracket_consistency(figure_data, bracket_data):
    index, _ = figure_data
    crossings = 0
    for (code_id, decoder, p, mu), bracket in bracket_data.items():
        exact = index[(code_id, decoder, p, mu)]
        assert bracket.ef_lower - 1e-9 <= exact.ef_lower, (p, mu, decoder)
        assert exact.ef_lower <= bracket.ef_lower + bracket.residual + 1e-9, \
            (p, mu, decoder)
        crossings += 1
    print(f"\nACCEPTANCE 8 (bracket consistency): PASS - truncated bracket "
          f"contains the exact fidelity at all {crossings} 13_1 grid points")


def test_criterion_9_qtpc_example():
    t0 = time.monotonic()
    c1 = cyclic_from_poly(parse_genpoly("1^6 2^3 1^0", 15, GF4), 15)
    c2 = rs_mds(6, 2, ExtField(GF4, 6))
    stab = qtpc_construct(c1, c2)
    assert stab.params == (90, 42)
    expanded = tensor_check_matrix(c1, c2)
    assert len(expanded) == 24
    assert len(mat_row_reduce(GF4, expanded)[0]) == 24
    imap = InterleaverMap(15, 6, 3)
    cells = [deinterleave(imap, t) for t in range(imap.size)]
    assert sorted(cells) == [(row, col) for row in range(15) for col in range(6)]
    report = dispersal_report(imap, 6, aligned_only=True)
    assert report.max_affected_subblocks <= 2
    assert report.max_inner_burst <= 3
    seconds = time.monotonic() - t0
    assert seconds < 120
    print(f"\nACCEPTANCE 9 (tensor-product example): PASS - [[90,42]] built, "
          f"check rank 24, stabilizer self-orthogonality verified, interleaver "
          f"bijective on all 90 cells, aligned length-6 bursts disperse into "
          f"<= {report.max_affected_subblocks} subblocks with inner span <= "
          f"{report.max_inner_burst}; {seconds:.1f}s")
