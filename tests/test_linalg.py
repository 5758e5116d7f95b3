import random

from conftest import gf2_in_span, gf2_nullspace
from cyclic_oracle import mat_nullspace
from qbecc.gf import GF2, GF4
from qbecc.linalg import gf2_rank, gf2_row_reduce, mat_row_reduce


def brute_rank_gf2(rows, ncols):
    """Span size counting, the dumbest possible rank."""
    span = {0}
    for r in rows:
        span |= {r ^ s for s in span}
    size = len(span)
    return size.bit_length() - 1


def test_gf2_rank_matches_span_counting():
    rng = random.Random(11)
    for _ in range(100):
        ncols = rng.randrange(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 8))]
        assert gf2_rank(rows) == brute_rank_gf2(rows, ncols)


def test_gf2_nullspace_is_the_kernel():
    rng = random.Random(12)
    for _ in range(50):
        ncols = rng.randrange(1, 9)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 6))]
        basis = gf2_nullspace(rows, ncols)
        kernel = {v for v in range(1 << ncols)
                  if all((r & v).bit_count() % 2 == 0 for r in rows)}
        span = {0}
        for b in basis:
            span |= {b ^ s for s in span}
        assert span == kernel


def test_gf2_in_span():
    rows = [0b1010, 0b0110]
    reduced, pivots = gf2_row_reduce(rows)
    assert gf2_in_span(0b1100, reduced, pivots)
    assert not gf2_in_span(0b0001, reduced, pivots)


def _mat_brute_rowspan(field, rows, ncols):
    span = {(0,) * ncols}
    for r in rows:
        extra = set()
        for c in range(1, field.order):
            scaled = tuple(field.mul(c, x) for x in r)
            for s in span:
                extra.add(tuple(a ^ b for a, b in zip(scaled, s)))
        span |= extra
        # close under addition by repeated absorption
        changed = True
        while changed:
            changed = False
            for a in list(span):
                for b in list(span):
                    s = tuple(x ^ y for x, y in zip(a, b))
                    if s not in span:
                        span.add(s)
                        changed = True
    return span


def test_mat_rank_gf4_matches_span_counting():
    rng = random.Random(13)
    for _ in range(20):
        ncols = rng.randrange(1, 5)
        rows = [[rng.randrange(4) for _ in range(ncols)]
                for _ in range(rng.randrange(0, 4))]
        span = _mat_brute_rowspan(GF4, rows, ncols)
        assert 4 ** len(mat_row_reduce(GF4, rows)[0]) == len(span)


def test_mat_nullspace_gf4():
    rng = random.Random(14)
    for _ in range(40):
        ncols = rng.randrange(1, 6)
        rows = [[rng.randrange(4) for _ in range(ncols)]
                for _ in range(rng.randrange(0, 4))]
        basis = mat_nullspace(GF4, rows, ncols)
        assert len(basis) == ncols - len(mat_row_reduce(GF4, rows)[0])
        for vec in basis:
            for row in rows:
                acc = 0
                for a, b in zip(row, vec):
                    acc ^= GF4.mul(a, b)
                assert acc == 0


def test_packed_and_generic_gf2_engines_agree():
    rng = random.Random(15)
    for _ in range(50):
        ncols = rng.randrange(1, 9)
        raw = [[rng.randrange(2) for _ in range(ncols)]
               for _ in range(rng.randrange(0, 6))]
        packed = [sum(bit << i for i, bit in enumerate(row)) for row in raw]
        assert gf2_rank(packed) == len(mat_row_reduce(GF2, raw)[0])
