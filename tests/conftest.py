"""Shared test helpers: random self-orthogonal codes and small oracles."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from qbecc.gf import GF4
from qbecc.linalg import gf2_row_reduce
from qbecc.stabilizer import F4Vector, StabilizerCode


def from_symbols(symbols: Sequence[int]) -> F4Vector:
    """The vector of GF(4) symbols, symbol i at bits 2i and 2i+1."""
    packed = 0
    for i, c in enumerate(symbols):
        packed |= (c & 3) << (2 * i)
    return F4Vector(len(symbols), packed)


def symbols_of(v: F4Vector) -> Tuple[int, ...]:
    return tuple((v.packed >> (2 * i)) & 3 for i in range(v.n))


def burst_length(v: F4Vector) -> int:
    """Span from first to last non-identity coordinate; 0 for the zero vector."""
    p = v.packed
    if p == 0:
        return 0
    first = ((p & -p).bit_length() - 1) // 2
    last = (p.bit_length() - 1) // 2
    return last - first + 1


def gf2_nullspace(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : popcount(row & x) even for every row}."""
    reduced, pivots = gf2_row_reduce(rows)
    pivot_set = set(pivots)
    basis: List[int] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        # back-substitute: pivot column value = row coefficient at free column
        for r, p in zip(reduced, pivots):
            if (r >> free) & 1:
                vec |= 1 << p
        basis.append(vec)
    return basis


def gf2_reduce_vector(vec: int, reduced: Sequence[int], pivots: Sequence[int]) -> int:
    """Residual of vec after elimination against an echelon basis."""
    for r, p in zip(reduced, pivots):
        if (vec >> p) & 1:
            vec ^= r
    return vec


def gf2_in_span(vec: int, reduced: Sequence[int], pivots: Sequence[int]) -> bool:
    return gf2_reduce_vector(vec, reduced, pivots) == 0


def pivots_of(code: StabilizerCode) -> List[int]:
    """The pivot of each basis row, its lowest set bit."""
    return [(row & -row).bit_length() - 1 for row in code.basis]


def contains(code: StabilizerCode, packed: int) -> bool:
    """packed lies in the stabilizer."""
    return gf2_in_span(packed, code.basis, pivots_of(code))


def syndrome(code: StabilizerCode, packed: int) -> int:
    """Bit j: the symplectic inner product of packed with basis row j, the
    parity of row & packed with the X and Z bit of every symbol of packed
    swapped."""
    x_bits = (4 ** code.n - 1) // 3  # the X bit of every symbol
    swapped = ((packed & x_bits) << 1) | ((packed >> 1) & x_bits)
    syn = 0
    for j, row in enumerate(code.basis):
        syn |= ((row & swapped).bit_count() & 1) << j
    return syn


def in_dual(code: StabilizerCode, packed: int) -> bool:
    """packed commutes with every stabilizer."""
    return syndrome(code, packed) == 0


def trace_ip(u: F4Vector, v: F4Vector) -> int:
    """Oracle: the trace inner product sum of u_i v_i^2 + u_i^2 v_i over GF(2),
    zero iff the Paulis commute."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} != {v.n}")
    acc = 0
    for x, y in zip(symbols_of(u), symbols_of(v)):
        acc ^= GF4.mul(x, GF4.conj(y)) ^ GF4.mul(GF4.conj(x), y)
    return acc


def swap_halves(packed: int, n: int) -> int:
    mask = (1 << n) - 1
    return (packed >> n) | ((packed & mask) << n)


def interleave_halves(split: int, n: int) -> int:
    """A split-halves row (X bits in [0, n), Z bits in [n, 2n)) in the
    packing of StabilizerCode: X of position i at bit 2i, Z at bit 2i+1."""
    packed = 0
    for i in range(n):
        packed |= ((split >> i) & 1) << (2 * i) | ((split >> (n + i)) & 1) << (2 * i + 1)
    return packed


def swap_xz(packed: int, n: int) -> int:
    """The X and Z bit of every position exchanged, in the packing of
    StabilizerCode: the symplectic inner product of u and v is the parity
    of swap_xz(u) & v."""
    out = 0
    for i in range(n):
        out |= ((packed >> (2 * i + 1)) & 1) << (2 * i) | ((packed >> (2 * i)) & 1) << (2 * i + 1)
    return out


def random_self_orthogonal_code(rng: random.Random, n: int, target_rank: int) -> StabilizerCode:
    """Greedy sampling of pairwise-commuting rows, drawn as split halves
    and interleaved, so a seed draws the same code in either packing."""
    rows = []
    attempts = 0
    while len(rows) < target_rank and attempts < 200 * (target_rank + 1):
        attempts += 1
        cand = rng.getrandbits(2 * n)
        if cand == 0:
            continue
        if any((swap_halves(r, n) & cand).bit_count() & 1 for r in rows):
            continue
        rows.append(cand)
    return StabilizerCode(n, [interleave_halves(r, n) for r in rows])


def random_css_code(rng, n, rx, rz, short):
    """CSS code with rx random X rows and rz Z rows from their kernel;
    with short, the first X row acts on two neighbours only, which makes
    degenerate collisions."""
    xs = [rng.getrandbits(n) for _ in range(rx)]
    if short:
        xs[0] = 3 << rng.randrange(n - 1)
    kernel = gf2_nullspace(xs, n)
    zs = []
    for _ in range(rz):
        z = 0
        for v in kernel:
            if rng.random() < 0.5:
                z ^= v
        zs.append(z << n)
    return StabilizerCode(n, [interleave_halves(r, n) for r in xs + zs if r])
