"""Cyclic-code search for quantum burst codes and the table reproduction.

Candidates are built from monic divisors of x^n - 1: single GF(4)
generators through the Hermitian construction, and pairs of binary
generators through the CSS construction.  A divisor is a subset of the
irreducible factors of x^n - 1, kept as a bitmask, so dual containment is
decided by one AND of two masks.  The Hermitian survivors of that test are
enumerated directly, one choice per pair of mirror factors, so no other
GF(4) divisor is built.  Every candidate is analyzed from label columns
written straight from its generators (burst.hermitian_columns,
css_columns), with no matrix and no stabilizer code, and recorded;
registry rows, analyze and simulate take the same columns from generator
text (code_labels).  build_code still builds the stabilizer code of a
text, only for distances.
"""

from __future__ import annotations

import functools
import re
import time
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .burst import BurstAnalysis, css_columns, hermitian_columns, qrb, quantum_burst_capability
from .classical import LinearCode, cyclic_from_poly, remainder_walk
from .gf import GF2, GF4, Poly, berlekamp_factor, xn_minus_1
from .registry import RegistryEntry, load_registry
from .stabilizer import StabilizerCode, css_construct, hermitian_construct


class GenPolyError(ValueError):
    """Malformed generator polynomial text."""


_TOKEN = re.compile(r"^([123])\^(\d+)$")


def parse_genpoly(text: str, n: int, field_obj) -> Poly:
    """Parse whitespace-separated C^E tokens (C in 1..3, exponents unique
    < n) into a polynomial over field_obj; over GF(2) every C must be 1.
    Exponent n is accepted only in x^n - 1 itself, "1^n 1^0", the
    generator of the zero code that search writes as its k = 0 CSS row."""
    tokens = text.split()
    if not tokens:
        raise GenPolyError("empty generator polynomial")
    coeffs = {}
    for tok in tokens:
        m = _TOKEN.match(tok)
        if not m:
            raise GenPolyError(f"malformed token {tok!r} (expected C^E with C in 1..3)")
        coef, exp = int(m.group(1)), int(m.group(2))
        if exp in coeffs:
            raise GenPolyError(f"duplicate exponent {exp}")
        if exp > n:
            raise GenPolyError(f"exponent {exp} not below code length {n}")
        coeffs[exp] = coef
    if n in coeffs and coeffs != {n: 1, 0: 1}:
        raise GenPolyError(f"exponent {n} not below code length {n}")
    if field_obj is GF2 and any(c != 1 for c in coeffs.values()):
        raise GenPolyError("binary generator polynomial must have all coefficients 1")
    return Poly(field_obj, [coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


def format_genpoly(p: Poly) -> str:
    """The C^E text of a polynomial, by decreasing exponent."""
    coeffs = p.coeffs
    return " ".join(f"{c}^{e}" for e in range(p.degree, -1, -1) if (c := coeffs[e]))


def cyclic_code(text: str, n: int, field_obj) -> LinearCode:
    """The length-n cyclic code over field_obj generated by generator text."""
    return cyclic_from_poly(parse_genpoly(text, n, field_obj), n)


_CONSTRUCTION_FIELDS = {"hermitian": (GF4,), "css": (GF2, GF2)}


def _generators(construction: str, n: int, genpolys: Sequence[Optional[str]]) -> List[Poly]:
    """The monic generators of generator texts: one GF(4) generator for the
    Hermitian construction, two binary generators (C1, C2) for CSS.  Empty
    texts are skipped, so a record's (genpoly1, "") pair reads as is."""
    fields = _CONSTRUCTION_FIELDS.get(construction)
    if fields is None:
        raise ValueError(f"unknown construction {construction!r}")
    genpolys = [text for text in genpolys if text]
    if len(genpolys) != len(fields):
        raise ValueError(f"{construction} construction takes {len(fields)} "
                         f"generator(s), got {len(genpolys)}")
    return [parse_genpoly(text, n, f).monic() for text, f in zip(genpolys, fields)]


def build_code(construction: str, n: int,
               genpolys: Sequence[Optional[str]]) -> StabilizerCode:
    """Stabilizer code from generator texts (see _generators)."""
    return _construct(construction,
                      [cyclic_from_poly(g, n) for g in _generators(construction, n, genpolys)])


def code_labels(construction: str, n: int,
                genpolys: Sequence[Optional[str]]) -> Tuple[int, List[int]]:
    """(k, label columns) of the code build_code builds from the same
    texts, straight from the generators, with no matrix.  It refuses what
    build_code refuses, with the same errors: a generator that does not
    divide x^n - 1 (its remainder walk does not return), then a code that
    is not dual containing (the generator of a dual leaves a remainder by
    the other code's generator)."""
    gens = _generators(construction, n, genpolys)
    walks = [remainder_walk(g, n) for g in gens]
    duals = [_mirror(divmod(xn_minus_1(n, g.field), g)[0]) for g in gens]
    if construction == "hermitian":
        m, rem = divmod(duals[0], gens[0])
        if not rem.is_zero:
            raise ValueError("code is not Hermitian dual containing")
        return hermitian_columns(n, walks[0], m.packed)
    m1, rem = divmod(duals[0], gens[1])
    if not rem.is_zero:
        raise ValueError("CSS precondition failed: dual of C2 is not inside C1")
    m2 = divmod(duals[1], gens[0])[0]  # exact: g2 | g1perp iff g1 | g2perp
    return css_columns(n, walks[0], m2.packed, walks[1], m1.packed)


def _construct(construction: str, codes: Sequence[LinearCode]) -> StabilizerCode:
    # constructors are looked up as module globals at call time (not stored
    # in a table), so a wrapper installed on this module sees every call
    if construction == "hermitian":
        return hermitian_construct(*codes)
    return css_construct(*codes)


def _factors(n: int, field_obj) -> Tuple[List[Poly], List[int]]:
    """The irreducible factors of x^n - 1 in (degree, coefficients) order,
    and for each one the index of its mirror: the conjugate reciprocal over
    GF(4), the reciprocal over GF(2) (conjugation is the identity there).
    Divisors of x^n - 1 have a nonzero constant term, so mirroring a factor
    keeps its degree and gives another factor; mirroring twice gives it back."""
    factors = berlekamp_factor(xn_minus_1(n, field_obj))
    index = {f: i for i, f in enumerate(factors)}
    return factors, [index[_mirror(f)] for f in factors]


def _mirror(p: Poly) -> Poly:
    """The monic conjugate reciprocal of p (the reciprocal over GF(2))."""
    field = p.field
    return Poly(field, map(field.conj, reversed(p.coeffs))).monic()


def _divisors(n: int, field_obj) -> List[Tuple[Poly, int, int]]:
    """Every monic divisor g of x^n - 1 as (g, S, S'), sorted by (degree,
    coefficients).  S is the mask of g's irreducible factors and S' the mask
    of its mirror."""
    factors, mirror = _factors(n, field_obj)
    products = _Products(factors)
    masks = [(0, 0)]
    for i, j in enumerate(mirror):
        masks += [(s | 1 << i, m | 1 << j) for s, m in masks]
    return sorted(((products[s], s, m) for s, m in masks), key=lambda d: _order(d[0]))


def enumerate_cyclic_generators(n: int, field_obj) -> List[Poly]:
    """Every monic divisor of x^n - 1, from the irreducible factorization,
    sorted by (degree, coefficients)."""
    return [g for g, _, _ in _divisors(n, field_obj)]


def _survivor_masks(mirror: Sequence[int]) -> List[Tuple[int, int]]:
    """Every factor mask S with S & S' == 0, for the mirror map of _factors,
    as the pair (S, S') of it and the mask of its mirror.

    A factor that is its own mirror can never be in S, and each pair
    {i, mirror[i]} of distinct factors contributes neither, i or mirror[i],
    so there are 3^pairs masks."""
    masks = [(0, 0)]
    for i, j in enumerate(mirror):
        if i < j:
            masks += [(s | 1 << a, m | 1 << b) for a, b in ((i, j), (j, i)) for s, m in masks]
    return masks


def _candidates(n: int, construction: str) -> Iterator[Tuple[Tuple[Poly, ...], int, List[int]]]:
    """The generators, k and label columns of every dual-containing
    candidate of length n, in (degree, coefficients) order of the generators.

    x^n - 1 is squarefree for odd n, so a product of divisors divides it iff
    they share no factor (Calderbank, Rains, Shor and Sloane, IEEE T-IT 1998;
    Aly, Klappenecker and Sarvepalli, IEEE T-IT 2007).  The Hermitian dual of
    <g> lies in <g> iff g times its conjugate reciprocal divides x^n - 1:
    S & S' == 0, so only those survivors are built.  The dual of <g2> lies
    in <g1> iff g1 times the reciprocal of g2 divides it: S1 & S2' == 0,
    taken for g1 <= g2 in divisor order.

    The quotient m of a label walk (burst.hermitian_columns, css_columns) is
    the product of the factors outside S and S' (outside S1' and S2 for the
    X part of a CSS pair, outside S2' and S1 for its Z part), as the dual's
    generator is the mirror of (x^n - 1)/g, with mask ~S'.  So no
    polynomial is divided: every generator and every m is a product of
    factors cached by mask (_Products), and a binary generator's walk is
    taken once.
    """
    if construction == "hermitian":
        factors, mirror = _factors(n, GF4)
        products, outside = _Products(factors), (1 << len(factors)) - 1
        survivors = sorted(_survivor_masks(mirror), key=lambda pair: _order(products[pair[0]]))
        for s, s_mirror in survivors:
            g, m = products[s], products[outside & ~(s | s_mirror)]
            k, columns = hermitian_columns(n, remainder_walk(g, n), m.packed)
            yield (g,), k, columns
        return
    divisors = _divisors(n, GF2)
    by_mask = {s: g for g, s, _ in divisors}
    outside = len(divisors) - 1  # the mask of x^n - 1
    walk = functools.cache(lambda s: remainder_walk(by_mask[s], n))
    for i, (g1, s1, m1) in enumerate(divisors):
        for g2, s2, m2 in divisors[i:]:
            if not s1 & m2:
                k, columns = css_columns(n, walk(s1), by_mask[outside & ~(m2 | s1)].packed,
                                         walk(s2), by_mask[outside & ~(m1 | s2)].packed)
                yield (g1, g2), k, columns


class _Products(dict):
    """products[mask] is the product of the factors in the mask, each mask
    built once, from the mask without its lowest factor.  A dict that fills
    itself holds no reference cycle, so its products go with it."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[Poly]):
        super().__init__({0: Poly.one(factors[0].field)})
        self.factors = factors

    def __missing__(self, mask: int) -> Poly:
        low = mask & -mask
        product = self[mask] = self[mask ^ low] * self.factors[low.bit_length() - 1]
        return product


def _order(p: Poly) -> Tuple[int, bytes]:
    """The (degree, coefficients) order of generators; as bytes, the
    coefficients compare like their tuple and take a fraction of its
    memory while a sort holds every key."""
    return p.degree, bytes(p.coeffs)


# ----------------------------------------------------------------------
# Search
# ----------------------------------------------------------------------

class _SearchPlan(NamedTuple):
    n_values: Sequence[int]  # a tuple, or a range
    constructions: Tuple[str, ...] = ("hermitian", "css")
    max_seconds: Optional[float] = None
    max_candidates: Optional[int] = None


class SearchPlan(_SearchPlan):
    """The lengths, constructions and budgets of a search; construction
    raises ValueError for a length, budget or construction it cannot run."""

    __slots__ = ()
    _make = _replace = None  # refused: NamedTuple builds both by tuple.__new__, past __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lengths = self.n_values
        if isinstance(lengths, range) and lengths.step % 2 == 0:
            lengths = (*lengths[:1], *lengths[-1:])  # its ends bound it; all share their parity
        if any(n < 1 for n in lengths):
            raise ValueError(f"code lengths must be at least 1, got {min(lengths)}")
        if any(n % 2 == 0 for n in lengths):
            raise ValueError("even lengths share a factor with the field characteristic")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError("time budget must be positive")  # also rejects NaN
        if self.max_candidates is not None and self.max_candidates <= 0:
            raise ValueError("candidate budget must be positive")
        for c in self.constructions:
            if c not in _CONSTRUCTION_FIELDS:
                raise ValueError(f"unknown construction {c!r}")
        return self


class SearchRecord(NamedTuple):
    n: int
    k: int
    l: int
    qrb: int
    saturates: bool
    degenerate: bool
    construction: str
    genpoly1: str
    genpoly2: str = ""


class SearchOutcome(NamedTuple):
    records: Tuple[SearchRecord, ...]
    complete: bool


def _record(analysis: BurstAnalysis, construction: str, g1: str, g2: str = "") -> SearchRecord:
    return SearchRecord(
        n=analysis.n, k=analysis.k, l=analysis.l, qrb=qrb(analysis.n, analysis.k),
        saturates=analysis.saturates, degenerate=analysis.degenerate,
        construction=construction, genpoly1=g1, genpoly2=g2)


def search(plan: SearchPlan) -> SearchOutcome:
    """Analyze every dual-containing cyclic candidate in the plan.

    For each length, the Hermitian candidates come first, then the CSS
    pairs, each in divisor order (see _candidates).  Dual containment is
    decided on factor masks, and a candidate is analyzed from its label
    columns, so no code is built as a matrix.
    Deterministic for a fixed plan; a budget that runs out before a
    candidate stops the search and marks the outcome incomplete.
    """
    started = time.monotonic()
    records: List[SearchRecord] = []

    def outcome(complete: bool) -> SearchOutcome:
        records.sort(key=lambda r: (r.n, -r.k, -r.l, r.construction, r.genpoly1, r.genpoly2))
        return SearchOutcome(tuple(records), complete)

    for n in plan.n_values:
        for construction in _CONSTRUCTION_FIELDS:
            if construction not in plan.constructions:
                continue
            for gens, k, columns in _candidates(n, construction):
                if ((plan.max_candidates is not None and len(records) >= plan.max_candidates)
                        or (plan.max_seconds is not None
                            and time.monotonic() - started > plan.max_seconds)):
                    return outcome(False)
                analysis = quantum_burst_capability(n, k, columns)
                records.append(_record(analysis, construction, *(
                    format_genpoly(g) for g in gens)))
    return outcome(True)


CSV_HEADER = ["n", "k", "l", "qrb", "saturates", "degenerate",
              "construction", "genpoly1", "genpoly2"]


def records_to_csv(records: Sequence[SearchRecord]) -> str:
    """The records as CSV lines, fields joined by commas.  No field ever
    needs quoting: format_genpoly writes only digits, ^ and spaces, and the
    other fields are ints, construction names and true/false."""
    lines = [",".join(CSV_HEADER)]
    lines += [f"{r.n},{r.k},{r.l},{r.qrb},{str(r.saturates).lower()},"
              f"{str(r.degenerate).lower()},{r.construction},{r.genpoly1},{r.genpoly2}"
              for r in records]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Registry reconstruction
# ----------------------------------------------------------------------

def build_registry_code(entry: RegistryEntry) -> StabilizerCode:
    """Stabilizer code reconstructed from a registry entry's generators."""
    return build_code(entry.construction, entry.n, entry.genpolys)


class RowReport(NamedTuple):
    entry_id: str
    expected: Tuple[int, int, int, bool, int]  # n, k, l, degenerate, qrb
    observed: Tuple[int, int, int, bool, int]
    match: bool
    seconds: float
    note: str = ""


def reproduce_table1(entries: Optional[Sequence[RegistryEntry]] = None) -> Tuple[RowReport, ...]:
    """Rebuild each registry row from its generators, re-analyze, compare."""
    if entries is None:
        entries = load_registry()
    rows = []
    for entry in entries:
        t0 = time.monotonic()
        n = entry.n
        k, columns = code_labels(entry.construction, n, entry.genpolys)
        analysis = quantum_burst_capability(n, k, columns)
        observed = (n, k, analysis.l, analysis.degenerate, qrb(n, k))
        expected = (entry.n, entry.k, entry.l, entry.degenerate, entry.qrb)
        rows.append(RowReport(entry.id, expected, observed,
                              expected == observed, time.monotonic() - t0,
                              entry.note))
    return tuple(rows)


__all__ = [
    "GenPolyError", "parse_genpoly", "format_genpoly", "cyclic_code", "build_code",
    "code_labels",
    "enumerate_cyclic_generators",
    "SearchPlan", "SearchRecord", "SearchOutcome", "search",
    "records_to_csv", "CSV_HEADER",
    "build_registry_code", "RowReport", "reproduce_table1",
]
