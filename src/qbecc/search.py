"""Cyclic-code search for quantum burst codes and the table reproduction.

Candidates are built from monic divisors of x^n - 1: single GF(4)
generators through the Hermitian construction, and pairs of binary
generators through the CSS construction.  Every candidate that passes its
dual-containment precondition, decided by polynomial divisibility, is
analyzed and recorded.
"""

from __future__ import annotations

import csv
import functools
import io
import re
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .burst import BurstAnalysis, qrb, quantum_burst_capability
from .classical import cyclic_from_poly
from .gf import GF2, GF4, Poly, berlekamp_factor, f4_conj, xn_minus_1
from .registry import RegistryEntry, load_registry
from .stabilizer import StabilizerCode, css_construct, hermitian_construct


class GenPolyError(ValueError):
    """Malformed generator polynomial text."""


@dataclass(frozen=True)
class GenPolySpec:
    n: int
    terms: Tuple[Tuple[int, int], ...]  # (coefficient code, exponent), decreasing exponent


_TOKEN = re.compile(r"^([123])\^(\d+)$")


def parse_genpoly(text: str, n: int) -> GenPolySpec:
    """Parse whitespace-separated C^E tokens (C in 1..3, exponents unique < n)."""
    tokens = text.split()
    if not tokens:
        raise GenPolyError("empty generator polynomial")
    terms = []
    seen = set()
    for tok in tokens:
        m = _TOKEN.match(tok)
        if not m:
            raise GenPolyError(f"malformed token {tok!r} (expected C^E with C in 1..3)")
        coef, exp = int(m.group(1)), int(m.group(2))
        if exp in seen:
            raise GenPolyError(f"duplicate exponent {exp}")
        if exp >= n:
            raise GenPolyError(f"exponent {exp} not below code length {n}")
        seen.add(exp)
        terms.append((coef, exp))
    terms.sort(key=lambda t: -t[1])
    return GenPolySpec(n, tuple(terms))


def format_genpoly(spec: GenPolySpec) -> str:
    return " ".join(f"{c}^{e}" for c, e in spec.terms)


def genpoly_to_poly(spec: GenPolySpec, field_obj) -> Poly:
    if field_obj is GF2 and any(c != 1 for c, _ in spec.terms):
        raise GenPolyError("binary generator polynomial must have all coefficients 1")
    deg = spec.terms[0][1]
    coeffs = [0] * (deg + 1)
    for c, e in spec.terms:
        coeffs[e] = c
    return Poly(field_obj, coeffs)


def poly_to_genpoly(p: Poly, n: int) -> GenPolySpec:
    terms = tuple((c, e) for e in range(p.degree, -1, -1)
                  if (c := p.coeffs[e]) != 0)
    return GenPolySpec(n, terms)


def enumerate_cyclic_generators(n: int, field_obj) -> List[Poly]:
    """Every monic divisor of x^n - 1, from the irreducible factorization,
    sorted by (degree, coefficients)."""
    if n % 2 == 0:
        raise ValueError(f"length {n} shares a factor with the field characteristic")
    factors = berlekamp_factor(xn_minus_1(n, field_obj))
    divisors = []
    for mask in range(1 << len(factors)):
        prod = Poly.one(field_obj)
        for i, f in enumerate(factors):
            if (mask >> i) & 1:
                prod = prod * f
        divisors.append(prod)
    divisors.sort(key=lambda p: (p.degree, p.coeffs))
    return divisors


# Dual containment of cyclic codes read off their generators (Calderbank,
# Rains, Shor and Sloane, IEEE T-IT 1998; Aly, Klappenecker and Sarvepalli,
# IEEE T-IT 2007).  Divisors of x^n - 1 have a nonzero constant term, so
# reversing the coefficients keeps the degree.

def _divides_xn_minus_1(p: Poly, n: int) -> bool:
    return (xn_minus_1(n, p.field) % p).is_zero


def _hermitian_dual_containing(g: Poly, n: int) -> bool:
    """The Hermitian dual of <g> lies in <g> iff g times its conjugate
    reciprocal divides x^n - 1."""
    conj_reciprocal = Poly(GF4, [f4_conj(c) for c in reversed(g.coeffs)])
    return _divides_xn_minus_1(g * conj_reciprocal, n)


def _css_dual_containing(g1: Poly, g2: Poly, n: int) -> bool:
    """The dual of <g2> lies in <g1> iff g1 times the reciprocal of g2
    divides x^n - 1."""
    return _divides_xn_minus_1(g1 * Poly(g2.field, reversed(g2.coeffs)), n)


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SearchPlan:
    n_values: Tuple[int, ...]
    constructions: Tuple[str, ...] = ("hermitian", "css")
    max_seconds: Optional[float] = None
    max_candidates: Optional[int] = None

    def __post_init__(self):
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("time budget must be positive")
        if self.max_candidates is not None and self.max_candidates <= 0:
            raise ValueError("candidate budget must be positive")
        for c in self.constructions:
            if c not in ("hermitian", "css"):
                raise ValueError(f"unknown construction {c!r}")


@dataclass(frozen=True)
class SearchRecord:
    n: int
    k: int
    l: int
    qrb: int
    saturates: bool
    degenerate: bool
    construction: str
    genpoly1: str
    genpoly2: str = ""


@dataclass(frozen=True)
class SearchOutcome:
    records: Tuple[SearchRecord, ...]
    complete: bool


def _record(analysis: BurstAnalysis, construction: str, g1: str, g2: str = "") -> SearchRecord:
    return SearchRecord(
        n=analysis.n, k=analysis.k, l=analysis.l, qrb=qrb(analysis.n, analysis.k),
        saturates=analysis.saturates, degenerate=analysis.degenerate,
        construction=construction, genpoly1=g1, genpoly2=g2)


def search(plan: SearchPlan) -> SearchOutcome:
    """Analyze every dual-containment-passing cyclic candidate in the plan.

    Dual containment is decided on the generator polynomials by
    divisibility of x^n - 1, so no matrix is built for a rejected
    candidate; the cyclic codes of the survivors are built on demand (once
    per binary divisor), and the constructors re-check containment on the
    matrices.  Deterministic for a fixed plan; budget exhaustion stops
    early and marks the outcome incomplete.
    """
    started = time.monotonic()
    analyzed = 0
    records: List[SearchRecord] = []
    complete = True

    def budget_left() -> bool:
        if plan.max_seconds is not None and time.monotonic() - started > plan.max_seconds:
            return False
        if plan.max_candidates is not None and analyzed >= plan.max_candidates:
            return False
        return True

    for n in plan.n_values:
        if "hermitian" in plan.constructions:
            for g in enumerate_cyclic_generators(n, GF4):
                if 2 * (n - g.degree) < n:
                    continue  # dimension too small to contain the dual
                if not budget_left():
                    complete = False
                    break
                if not _hermitian_dual_containing(g, n):
                    continue
                code = cyclic_from_poly(g, n).base
                analysis = quantum_burst_capability(hermitian_construct(code))
                analyzed += 1
                records.append(_record(analysis, "hermitian",
                                       format_genpoly(poly_to_genpoly(g, n))))
            if not complete:
                break
        if "css" in plan.constructions:
            divisors = enumerate_cyclic_generators(n, GF2)
            binary_code = functools.cache(lambda i: cyclic_from_poly(divisors[i], n).base)
            for i in range(len(divisors)):
                if not complete:
                    break
                for j in range(i, len(divisors)):
                    if not budget_left():
                        complete = False
                        break
                    if not _css_dual_containing(divisors[i], divisors[j], n):
                        continue
                    analysis = quantum_burst_capability(
                        css_construct(binary_code(i), binary_code(j)))
                    analyzed += 1
                    records.append(_record(
                        analysis, "css",
                        format_genpoly(poly_to_genpoly(divisors[i], n)),
                        format_genpoly(poly_to_genpoly(divisors[j], n))))
            if not complete:
                break

    records.sort(key=lambda r: (r.n, -r.k, -r.l, r.construction, r.genpoly1, r.genpoly2))
    return SearchOutcome(tuple(records), complete)


CSV_HEADER = ["n", "k", "l", "qrb", "saturates", "degenerate",
              "construction", "genpoly1", "genpoly2"]


def records_to_csv(records: Sequence[SearchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([r.n, r.k, r.l, r.qrb,
                         str(r.saturates).lower(), str(r.degenerate).lower(),
                         r.construction, r.genpoly1, r.genpoly2])
    return buf.getvalue()


# ----------------------------------------------------------------------
# Registry reconstruction
# ----------------------------------------------------------------------

def build_registry_code(entry: RegistryEntry) -> StabilizerCode:
    """Stabilizer code reconstructed from a registry entry's generators."""
    if entry.construction == "hermitian":
        spec = parse_genpoly(entry.genpolys[0], entry.n)
        code = cyclic_from_poly(genpoly_to_poly(spec, GF4), entry.n).base
        return hermitian_construct(code)
    if entry.construction == "css":
        s1 = parse_genpoly(entry.genpolys[0], entry.n)
        s2 = parse_genpoly(entry.genpolys[1], entry.n)
        c1 = cyclic_from_poly(genpoly_to_poly(s1, GF2), entry.n).base
        c2 = cyclic_from_poly(genpoly_to_poly(s2, GF2), entry.n).base
        return css_construct(c1, c2)
    raise ValueError(f"unknown construction {entry.construction!r}")


@dataclass(frozen=True)
class RowReport:
    entry_id: str
    expected: Tuple[int, int, int, bool, int]  # n, k, l, degenerate, qrb
    observed: Tuple[int, int, int, bool, int]
    match: bool
    seconds: float
    note: str = ""


@dataclass(frozen=True)
class Table1Report:
    rows: Tuple[RowReport, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)


def reproduce_table1(entries: Optional[Sequence[RegistryEntry]] = None) -> Table1Report:
    """Rebuild each registry row from its generators, re-analyze, compare."""
    if entries is None:
        entries = load_registry()
    rows = []
    for entry in entries:
        t0 = time.monotonic()
        stab = build_registry_code(entry)
        analysis = quantum_burst_capability(stab)
        observed = (stab.n, stab.k, analysis.l, analysis.degenerate,
                    qrb(stab.n, stab.k))
        expected = (entry.n, entry.k, entry.l, entry.degenerate, entry.qrb)
        rows.append(RowReport(entry.id, expected, observed,
                              expected == observed, time.monotonic() - t0,
                              entry.note))
    return Table1Report(tuple(rows))


__all__ = [
    "GenPolyError", "GenPolySpec", "parse_genpoly", "format_genpoly",
    "genpoly_to_poly", "poly_to_genpoly", "enumerate_cyclic_generators",
    "SearchPlan", "SearchRecord", "SearchOutcome", "search",
    "records_to_csv", "CSV_HEADER",
    "build_registry_code", "RowReport", "Table1Report", "reproduce_table1",
]
