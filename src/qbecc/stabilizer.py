"""Pauli errors and stabilizer codes, packed as GF(4) symbols.

A Pauli error on n qubits, phases aside, is a GF(4)^n vector under the
fixed bijection

    X <-> 1,   Z <-> w,   Y <-> w^2

and is packed into one int with symbol i at bits 2i (X part) and 2i+1
(Z part), the F4Vector.packed layout.  It is the only packing here: a
window of qubits is a contiguous bit range, and stabilizer rows, syndromes
and burst witnesses are all such ints.  Two Paulis commute iff their
symplectic inner product, the parity of u & v with the X and Z bit of
every symbol of one swapped, is zero.

Stabilizer codes are GF(2)-linear self-orthogonal subspaces under that
form.  The coset labels of single-qubit errors, which the burst analyzer,
the decoder and both fidelity engines read, come from a cyclic code's
generators (search.code_labels), with no stabilizer code built.  A code
is built here for its construction checks and its minimum distance:
min_distance walks the symplectic dual (dual_basis), and is the only part
that imports numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .classical import LinearCode
from .gf import GF2, GF4
from .linalg import _CONJ, _SYMBOL, _W_CONJ, _packed_row, gf2_row_reduce

if TYPE_CHECKING:
    import numpy as np


class CommutationError(ValueError):
    """Input rows do not span a self-orthogonal (commuting) set."""


class ResourceLimitError(RuntimeError):
    """Requested enumeration exceeds the configured limit."""


class F4Vector(NamedTuple):
    n: int
    packed: int  # 2 bits per symbol, low bit = X part, high bit = Z part


class StabilizerCode:
    """Self-orthogonal GF(2)-linear code C of packed Pauli rows.

    basis holds the canonical (reduced row-echelon) packed rows, each with
    its pivot at its lowest set bit.  A row with a bit at or above 2n raises
    ValueError.
    """

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        if any(row >> 2 * n for row in rows):
            raise ValueError(f"row bits exceed the {2 * n} bits of length {n}")
        self._x_bits = (4 ** n - 1) // 3  # 0b0101...: the X bit of every symbol
        _check_self_orthogonal(rows, self._x_bits)
        self.basis: Tuple[int, ...] = tuple(gf2_row_reduce(rows)[0])
        self.r = len(self.basis)
        self.k = n - self.r
        self._dual_basis: Optional[Tuple[int, ...]] = None

    @property
    def params(self) -> Tuple[int, int]:
        return (self.n, self.k)

    def dual_basis(self) -> Tuple[int, ...]:
        """Basis of the symplectic dual: the r stabilizer rows first, then
        2k completion vectors (logical representatives), the first nullspace
        vectors independent of the rows before them.

        The nullspace vector of free column f is the one vector of the dual
        that is 1 at f and 0 at every other free column, so projecting onto
        the free columns F maps the dual isomorphically onto GF(2)^F.  The
        vector of f is then spanned by the stabilizer and the vectors of
        smaller free columns iff some stabilizer row, projected, has its
        highest bit at f: the completions are the vectors of the other f,
        built by back-substitution without any reduction against the rows.
        """
        if self._dual_basis is None:
            # the dual is the nullspace of the rows with X and Z swapped,
            # as <u,v>_s = parity(swap(u) & v)
            reduced, pivots = gf2_row_reduce([_swap_xz(row, self._x_bits)
                                              for row in self.basis])
            free = ((1 << 2 * self.n) - 1) ^ sum(1 << p for p in pivots)
            tops: List[Tuple[int, int]] = []  # projected rows, by highest bit
            for row in self.basis:
                row &= free
                for top, bit in tops:
                    if row & bit:
                        row ^= top
                if row:
                    tops.append((row, 1 << row.bit_length() - 1))
            for _, bit in tops:
                free ^= bit
            chosen = list(self.basis)
            rows = [(row, 1 << p) for row, p in zip(reduced, pivots)]
            while free:
                low = free & -free
                free ^= low
                vec = low
                for row, bit in rows:
                    if row & low:
                        vec |= bit
                chosen.append(vec)
            if len(chosen) != self.n + self.k:
                raise AssertionError("symplectic dual has wrong dimension")
            self._dual_basis = tuple(chosen)
        return self._dual_basis

    def min_distance(self, limit: int = 1 << 28) -> int:
        """Minimum symplectic weight over the dual, excluding stabilizer
        elements.

        dual_basis() lists the r stabilizer rows first, so an element lies
        in the stabilizer iff its coefficients on the 2k logical rows are
        all zero.  The span of the first rows is built once as an array and
        offset by the span of the others, a block of offsets at a time.
        For k = 0 no element is logical and it returns its start value 2n,
        which is no distance: analyze prints none for such a code.
        """
        import numpy as np
        dual = self.dual_basis()
        dim, n, r = len(dual), self.n, self.r
        if 1 << dim > limit or 2 * n > 64:
            raise ResourceLimitError(f"dual enumeration needs 2^{dim} = {1 << dim} "
                                     f"elements of {2 * n} bits, limit {limit} of 64 bits")
        low = min(dim, _SPAN_BITS)
        block = _xor_span(dual[:low])
        offsets = _xor_span(dual[low:])
        # logical coefficients nonzero, from the index bits of each span
        block_logical = (np.arange(block.size) >> min(r, low)) != 0
        offset_logical = (np.arange(offsets.size) >> max(0, r - low)) != 0
        x_bits, one = np.uint64(self._x_bits), np.uint64(1)
        best = 2 * n
        step = max(1, _SPAN_ELEMENTS // block.size)
        for lo in range(0, offsets.size, step):
            elems = offsets[lo:lo + step, None] ^ block[None, :]
            keep = offset_logical[lo:lo + step, None] | block_logical[None, :]
            if keep.any():
                weights = np.bitwise_count((elems | elems >> one) & x_bits)
                best = min(best, int(weights[keep].min()))
        return best


# min_distance's spans have at most 2^_SPAN_BITS elements; it scores
# _SPAN_ELEMENTS elements at a time
_SPAN_BITS, _SPAN_ELEMENTS = 16, 1 << 20


def _xor_span(vectors: Sequence[int]) -> np.ndarray:
    """uint64 array of all 2^len(vectors) XOR combinations; bit j of the
    index selects vectors[j]."""
    import numpy as np
    span = np.zeros(1, dtype=np.uint64)
    for v in vectors:
        span = np.concatenate((span, span ^ np.uint64(v)))
    return span


def _swap_xz(packed: int, x_bits: int) -> int:
    """The X and Z bit of every symbol exchanged; x_bits is 0b0101..."""
    return ((packed & x_bits) << 1) | ((packed >> 1) & x_bits)


def _check_self_orthogonal(rows: Sequence[int], x_bits: int) -> None:
    swapped = [_swap_xz(r, x_bits) for r in rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if (swapped[i] & rows[j]).bit_count() & 1:
                raise CommutationError(
                    f"rows {i} and {j} anticommute (symplectic inner product 1)")


def hermitian_construct(code: LinearCode) -> StabilizerCode:
    """[[n, 2k-n]] stabilizer code from a Hermitian-dual-containing GF(4) code.

    The stabilizer is the additive span of {conj(h), w*conj(h)} over the
    check rows h, the generators of the Hermitian dual, as packed rows.  For
    a GF(4)-linear code, trace-symplectic and Hermitian self-orthogonality
    agree (Calderbank, Rains, Shor and Sloane, IEEE T-IT 1998, Thm. 3), so
    the rows commute exactly when the code contains its Hermitian dual:
    StabilizerCode's commutation check decides it (ValueError otherwise).
    """
    if code.field is not GF4:
        raise ValueError("Hermitian dual containment is defined over GF(4)")
    rows = [_packed_row(h, table) for h in code.check_rows for table in (_CONJ, _W_CONJ)]
    try:
        stab = StabilizerCode(code.n, rows)
    except CommutationError as exc:
        raise ValueError("code is not Hermitian dual containing") from exc
    if stab.k != 2 * code.k - code.n:
        raise AssertionError("Hermitian construction produced wrong dimension")
    return stab


def css_construct(c1: LinearCode, c2: LinearCode) -> StabilizerCode:
    """[[n, k1+k2-n]] CSS stabilizer code from binary codes with C2-dual in C1.

    X-type rows come from the check rows H_x of c1, Z-type rows from the
    check rows H_z of c2.  They commute exactly when H_x H_z^T = 0, that is
    when the dual of c2 lies in c1: StabilizerCode's commutation check
    decides it (ValueError otherwise).
    """
    if c1.field is not GF2 or c2.field is not GF2:
        raise ValueError("dual containment check requires binary codes")
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} != {c2.n}")
    rows = [_packed_row(h, _SYMBOL) for h in c1.check_rows]  # X on the support of h
    rows += [_packed_row(h, _SYMBOL) << 1 for h in c2.check_rows]  # Z on the support of h
    try:
        stab = StabilizerCode(c1.n, rows)
    except CommutationError as exc:
        raise ValueError("CSS precondition failed: dual of C2 is not inside C1") from exc
    if stab.k != c1.k + c2.k - c1.n:
        raise AssertionError("CSS construction produced wrong dimension")
    return stab


__all__ = [
    "F4Vector", "StabilizerCode", "CommutationError", "ResourceLimitError",
    "hermitian_construct", "css_construct",
]
