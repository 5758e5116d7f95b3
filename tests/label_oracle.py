"""Reference coset labels: the numpy label table that StabilizerCode built
before label_ints transposed the dual rows on Python ints.

label_table(code) holds read-only uint64 arrays indexed [position, symbol,
word]: bit j of syndrome is the symplectic inner product with
dual_basis()[j] (the r stabilizer rows), bit j of logical that with
dual_basis()[r + j] (the 2k logical rows), packed little-endian into
ceil(bits/64) words (at least one).  label_ints(code) joins the two halves
the way StabilizerCode.label_ints lays them out: syndrome above logical.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from qbecc.stabilizer import StabilizerCode


class LabelTable(NamedTuple):
    syndrome: np.ndarray
    logical: np.ndarray


_TABLES = weakref.WeakKeyDictionary()  # code -> LabelTable


def _contribution_words(vectors: Sequence[int], n: int) -> np.ndarray:
    """uint64 [n, 4, words]: bit j of entry [i, c] is the symplectic inner
    product of symbol c at position i with vectors[j]."""
    m = len(vectors)
    nbytes = (2 * n + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in vectors),
                        dtype=np.uint8).reshape(m, nbytes)
    bits = np.unpackbits(raw, axis=1, count=2 * n, bitorder="little")
    a, b = bits[:, 0::2], bits[:, 1::2]  # X and Z bit of each position
    words = max(1, -(-m // 64))
    # <e, v> = e_a v_b + e_b v_a, where symbol c has e_a = c & 1, e_b = c >> 1
    per_symbol = np.zeros((64 * words, n, 4), dtype=np.uint8)
    per_symbol[:m, :, 1] = b
    per_symbol[:m, :, 2] = a
    per_symbol[:m, :, 3] = a ^ b
    packed = np.packbits(per_symbol, axis=0, bitorder="little")
    table = np.ascontiguousarray(packed.transpose(1, 2, 0)).view("<u8")
    table.flags.writeable = False
    return table


def label_table(code: StabilizerCode) -> LabelTable:
    """The code's label table, built once per code."""
    table = _TABLES.get(code)
    if table is None:
        dual = code.dual_basis()
        table = _TABLES[code] = LabelTable(_contribution_words(dual[:code.r], code.n),
                                           _contribution_words(dual[code.r:], code.n))
    return table


def _word_ints(words: np.ndarray) -> List[int]:
    """Each [position, symbol] entry of a label-table half as one int, in
    row-major order."""
    raw, size = words.tobytes(), 8 * words.shape[2]
    return [int.from_bytes(raw[o:o + size], "little") for o in range(0, len(raw), size)]


def label_ints(code: StabilizerCode) -> Tuple[Tuple[int, ...], ...]:
    """The table joined into one int per [position][symbol]."""
    tab = label_table(code)
    flat = [(s << 2 * code.k) | g for s, g in
            zip(_word_ints(tab.syndrome), _word_ints(tab.logical))]
    return tuple(tuple(flat[i:i + 4]) for i in range(0, len(flat), 4))
