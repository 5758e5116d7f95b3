"""The benchmark's workloads: the CLI calls of one pass, and their checks.

A workload is made from a seed.  Seed 0 runs the fixed figure grids;
another seed shuffles the order of the calls and, in ``simulate``, places
the p/mu grid elsewhere in the same figure range.  The program only ever
sees the CLI arguments built here.

A pass attempts ``ops`` operations: a registry row or the tensor report
in ``table1``, a CSV record in ``search``, an EF grid point in
``simulate``.  A check gets the ``(returncode, stdout)`` of every call of
the pass and returns how many of them failed; a mismatch is counted, never
raised.  The reference outputs in ``reference.json`` were recorded from
the CLI at the commit that added this benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text("utf-8"))

Call = Tuple[str, ...]
Outputs = Dict[Call, Tuple[int, str]]


@dataclass(frozen=True)
class Workload:
    calls: Tuple[Call, ...]
    ops: int
    check: Callable[[Outputs], int]


def _csv_rows(rc: int, text: str):
    return list(csv.DictReader(io.StringIO(text))) if rc == 0 else []


def _shuffled(calls, seed: int) -> Tuple[Call, ...]:
    calls = list(calls)
    if seed:
        random.Random(seed).shuffle(calls)
    return tuple(calls)


# ----------------------------------------------------------------------
# table1: every registry row rebuilt, plus the [[90,42]] tensor report
# ----------------------------------------------------------------------

REPRODUCE: Call = ("search", "--reproduce-table1")
TENSOR: Call = ("tensor", "--c1-poly", "1^6 2^3 1^0", "--c1-n", "15",
                "--rs", "6,2", "--dispersal", "6")


def _check_table1(outputs: Outputs) -> int:
    expected = REFERENCE["table1"]["rows"]
    rc, text = outputs[REPRODUCE]
    observed = {}
    if rc == 0:
        try:
            for row in json.loads(text)["rows"]:
                obs = row["observed"]
                if row["match"]:
                    observed[row["id"]] = [obs[k] for k in ("n", "k", "l", "degenerate", "qrb")]
        except (ValueError, KeyError, TypeError):
            observed = {}
    failed = sum(observed.get(entry_id) != value for entry_id, value in expected.items())

    rc, text = outputs[TENSOR]
    want = REFERENCE["table1"]["tensor"]
    try:
        report = json.loads(text) if rc == 0 else {}
        tensor_ok = {key: report.get(key) for key in want} == want
    except (ValueError, AttributeError):
        tensor_ok = False
    return failed + (not tensor_ok)


def table1(seed: int) -> Workload:
    return Workload(_shuffled([REPRODUCE, TENSOR], seed),
                    len(REFERENCE["table1"]["rows"]) + 1, _check_table1)


# ----------------------------------------------------------------------
# search: every odd length 13..23, one call per length
# ----------------------------------------------------------------------

SEARCH_LENGTHS = tuple(range(13, 24, 2))


def _search_call(n: int) -> Call:
    return ("search", "--min-n", str(n), "--max-n", str(n))


def _check_search(outputs: Outputs) -> int:
    failed = 0
    for n in SEARCH_LENGTHS:
        want = REFERENCE["search"]["lengths"][str(n)]
        rc, text = outputs[_search_call(n)]
        records = text.splitlines()[1:] if rc == 0 else []
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        found = {(r["construction"], r["genpoly1"], r["genpoly2"]): (int(r["k"]), int(r["l"]), r["degenerate"])
                 for r in _csv_rows(rc, text)}
        registry_ok = all(
            found.get((construction, g1, g2)) == (k, l, str(degenerate).lower())
            for _, rn, construction, g1, g2, k, l, degenerate in REFERENCE["search"]["registry_rows"]
            if rn == n)
        if digest != want["sha256"] or not registry_ok:
            failed += want["records"]
    return failed


def search(seed: int) -> Workload:
    ops = sum(REFERENCE["search"]["lengths"][str(n)]["records"] for n in SEARCH_LENGTHS)
    return Workload(_shuffled([_search_call(n) for n in SEARCH_LENGTHS], seed), ops, _check_search)


# ----------------------------------------------------------------------
# simulate: EF grids of 13_1 and 17_1a, exact and truncated
# ----------------------------------------------------------------------

SIM_CODES = "13_1,17_1a"
EXACT_POINTS = 2 * 3 * 3 * 3   # codes x decoders x p x mu
TRUNCATED_POINTS = 2           # codes, at the middle p of the grid and one mu
TOLERANCE = 1e-9


def _grids(seed: int) -> Tuple[str, str, str, str]:
    """(p grid, exact mu grid, truncated p, truncated mu).  Past seed 0 the
    truncated point is the middle point of the exact grid, so the run's
    own exact values check its brackets; the CLI computes that point as
    start + 1 * step, and so does this function."""
    if seed == 0:
        return "0.01:0.02:0.05", "0:0.45:0.9", "0.03", "0.5"
    rng = random.Random(seed)
    p0 = round(rng.uniform(0.01, 0.02), 4)
    step = round(rng.uniform(0.01, (0.05 - p0) / 2), 4)
    m0 = round(rng.uniform(0.0, 0.09), 3)
    return (f"{p0}:{step}:{p0 + 2 * step:.4f}", f"{m0}:0.45:{m0 + 0.9:.3f}",
            repr(p0 + step), repr(m0 + 0.45))


def _close(value: float, want: float) -> bool:
    return abs(value - want) <= TOLERANCE * max(1.0, abs(want))


def _simulate_check(seed: int, exact_call: Call, truncated_call: Call):
    def check(outputs: Outputs) -> int:
        ref = REFERENCE["simulate"] if seed == 0 else None
        exact = {}
        for r in _csv_rows(*outputs[exact_call]):
            value = float(r["ef_lower"])
            if r["exact"] == "true" and float(r["ef_residual"]) == 0.0 and 0.0 <= value <= 1.0:
                exact[",".join((r["code"], r["decoder"], r["p"], r["mu"]))] = value
        if ref is not None:
            exact_ok = sum(key in exact and _close(exact[key], want)
                           for key, want in ref["exact"].items())
            inside = ref["exact_at_truncated"]
        else:
            exact_ok = len(exact)
            inside = {key.replace(",combined,", ",", 1): value
                      for key, value in exact.items() if ",combined," in key}
        truncated_ok = 0
        for r in _csv_rows(*outputs[truncated_call]):
            key = ",".join((r["code"], r["p"], r["mu"]))
            lower, residual = float(r["ef_lower"]), float(r["ef_residual"])
            ok = (key in inside
                  and lower - TOLERANCE <= inside[key] <= lower + residual + TOLERANCE)
            if ref is not None:
                ok = ok and all(map(_close, (lower, residual), ref["truncated"][key]))
            truncated_ok += ok
        return (EXACT_POINTS + TRUNCATED_POINTS
                - min(exact_ok, EXACT_POINTS) - min(truncated_ok, TRUNCATED_POINTS))
    return check


def simulate(seed: int) -> Workload:
    p, mu, truncated_p, truncated_mu = _grids(seed)
    exact_call = ("simulate", "--code", SIM_CODES, "--decoder", "random,burst,combined",
                  "--p", p, "--mu", mu, "--limit", str(4 ** 17), "--workers", "1")
    truncated_call = ("simulate", "--code", SIM_CODES, "--strategy", "truncated",
                      "--decoder", "combined", "--p", truncated_p, "--mu", truncated_mu,
                      "--workers", "1")
    return Workload(_shuffled([exact_call, truncated_call], seed),
                    EXACT_POINTS + TRUNCATED_POINTS,
                    _simulate_check(seed, exact_call, truncated_call))


WORKLOADS = {"table1": table1, "search": search, "simulate": simulate}
