"""Shared test helpers: random self-orthogonal codes and small oracles."""

from __future__ import annotations

import random

from qbecc.linalg import gf2_nullspace
from qbecc.stabilizer import StabilizerCode


def swap_halves(packed: int, n: int) -> int:
    mask = (1 << n) - 1
    return (packed >> n) | ((packed & mask) << n)


def random_self_orthogonal_code(rng: random.Random, n: int, target_rank: int) -> StabilizerCode:
    """Greedy sampling of pairwise-commuting symplectic rows."""
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
    code = StabilizerCode(n, rows)
    return code


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
    return StabilizerCode(n, [r for r in xs + zs if r])
