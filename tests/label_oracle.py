"""Reference coset labels from a StabilizerCode's symplectic dual: the
numpy label table that StabilizerCode once built, and label_ints, the
table the channel read from StabilizerCode.label_ints until the channel
took the generator walk's label columns.

label_table(code) holds read-only uint64 arrays indexed [position, symbol,
word]: bit j of syndrome is the symplectic inner product with
dual_basis()[j] (the r stabilizer rows), bit j of logical that with
dual_basis()[r + j] (the 2k logical rows), packed little-endian into
ceil(bits/64) words (at least one).  label_ints(code) joins the two halves
into one int per position and symbol: syndrome above logical.  The channel
reads labels in the basis of search.code_labels' generator walk;
label_record(code) gives it a StabilizerCode's labels in this basis instead,
so that its results can be checked against oracles that take syndromes
against the code's basis rows.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from qbecc.channel import CodeLabels
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


def label_record(code: StabilizerCode) -> CodeLabels:
    """The channel's label record of code in the label_ints basis: the X
    and Z labels of qubit i above the tracking bits 1 << 2i and 2 << 2i."""
    columns = []
    for i, (_, x, z, _) in enumerate(label_ints(code)):
        columns += (x << 2 * code.n | 1 << 2 * i, z << 2 * code.n | 2 << 2 * i)
    return CodeLabels(code.n, code.k, columns)
