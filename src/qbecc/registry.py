"""Embedded registry of searched burst-correction codes.

The registry is a versioned JSON asset transcribed from its source table.
Reconstruction MUST reproduce the stored (k, l, degenerate) values;
mismatches fail loudly rather than auto-correcting, so the table stays the
ground truth under investigation.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from typing import NamedTuple, Tuple


class RegistryEntry(NamedTuple):
    id: str
    n: int
    k: int
    l: int
    qrb: int
    degenerate: bool
    construction: str  # "hermitian" | "css"
    genpolys: Tuple[str, ...]
    note: str = ""


@functools.cache
def load_registry() -> Tuple[RegistryEntry, ...]:
    """The registry rows in table order, parsed once per process."""
    payload = json.loads(
        resources.files("qbecc.data").joinpath("table1.json").read_text("utf-8"))
    entries = []
    for row in payload["rows"]:
        entries.append(RegistryEntry(
            id=row["id"], n=row["n"], k=row["k"], l=row["l"], qrb=row["qrb"],
            degenerate=row["degenerate"], construction=row["construction"],
            genpolys=tuple(row["genpolys"]), note=row.get("note", "")))
    return tuple(entries)


def registry_entry(entry_id: str) -> RegistryEntry:
    index = {e.id: e for e in load_registry()}
    if entry_id not in index:
        raise KeyError(f"unknown registry code {entry_id!r}; "
                       f"known: {', '.join(sorted(index))}")
    return index[entry_id]


__all__ = ["RegistryEntry", "load_registry", "registry_entry"]
