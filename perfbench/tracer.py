"""Spans around the public functions of each qbecc module, from outside the program.

Run as a script, it executes one qbecc CLI call with the wrappers installed
and writes the spans to a JSON file when the call ends:

    python3 perfbench/tracer.py SPANS.json search --min-n 13 --max-n 13

A span is ``[name, start, end, parent, counters]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``counters`` holds exact work
counts taken from the arguments and the result, or null.  The wrappers
replace each function wherever a qbecc module imported it, so a call from
inside the package is seen too.  Hot leaves (field ``mul``,
``StabilizerCode.contains``, ``_burst_vector``) stay unwrapped.

Imported by the harness, ``summarize`` turns span lists into per-layer
metrics: self time and call count per span name, plus the counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from math import comb


def _truncated_patterns(n: int, w_max: int, span: int) -> int:
    """Distinct error patterns of weight <= w_max or burst length in
    [2, span] on n qubits: what the truncated engine enumerates."""
    light = sum(comb(n, w) * 3 ** w for w in range(w_max + 1))
    # A burst of length s has nonzero ends; j nonzero symbols inside make
    # its weight j + 2, and only weights above w_max are new.
    heavy = sum(max(0, n - s + 1) * 9 * comb(s - 2, j) * 3 ** j
                for s in range(2, span + 1)
                for j in range(max(0, w_max - 1), s - 1))
    return light + heavy


def _ef_name(fn, args, kwargs) -> str:
    strategy = inspect.signature(fn).bind(*args, **kwargs).arguments.get("strategy", "exact")
    return f"channel.entanglement_fidelity.{strategy}"


def _ef_counts(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    code = a["code"]
    if a["strategy"] == "exact":
        return {"channel.label_states": 1 << (code.n + code.k)}
    span = a["table"].l if a["burst_span"] is None else a["burst_span"]
    return {"channel.truncated.patterns": _truncated_patterns(code.n, a["w_max"], span)}


def _dispersal_windows(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    imap = bound.arguments["imap"]
    step = imap.l1 if bound.arguments["aligned_only"] else 1
    return {"qtpc.dispersal_windows": -(-imap.size // step)}


def _passed(metric):
    return lambda fn, args, kwargs, result: {metric: int(bool(result))}


# (module, attribute, counters(fn, args, kwargs, result) or None).  The span
# is named "<module>.<function>"; entanglement_fidelity adds its strategy.
WRAPPED = [
    ("cli", "main", None),
    ("registry", "load_registry", None),
    ("gf", "berlekamp_factor", lambda fn, a, k, r: {"gf.factors": len(r)}),
    ("linalg", "mat_row_reduce", None),
    ("classical", "cyclic_from_poly", None),
    ("classical", "hermitian_dual_containing", _passed("classical.hermitian_dual_containing.passed")),
    ("classical", "binary_dual_containing", _passed("classical.binary_dual_containing.passed")),
    ("stabilizer", "hermitian_construct", None),
    ("stabilizer", "css_construct", None),
    ("stabilizer", "StabilizerCode.min_distance",
     lambda fn, a, k, r: {"stabilizer.dual_elements": 1 << (a[0].n + a[0].k)}),
    ("burst", "burst_count", lambda fn, a, k, r: {"burst.levels": 1, "burst.bursts": r}),
    ("burst", "quantum_burst_capability",
     lambda fn, a, k, r: {"burst.checked_pairs": r.checked_pairs}),
    ("search", "enumerate_cyclic_generators", lambda fn, a, k, r: {"search.divisors": len(r)}),
    ("search", "search", lambda fn, a, k, r: {"search.records": len(r.records)}),
    ("search", "reproduce_table1", None),
    ("search", "build_registry_code", None),
    ("channel", "sweep", None),
    ("channel", "build_decoder", lambda fn, a, k, r: {"channel.decoder_entries": len(r.entries)}),
    ("channel", "label_contrib", None),
    ("channel", "entanglement_fidelity", _ef_counts),
    ("qtpc", "qtpc_construct", None),
    ("qtpc", "tensor_check_matrix", None),
    ("qtpc", "dispersal_report", _dispersal_windows),
]


class Recorder:
    """Holds the spans of one process in memory."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, counters, limit_error):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(fn, args, kwargs) if callable(name) else name
            span = [span_name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except limit_error:
                span[4] = {span_name.split(".")[0] + ".limit_errors": 1}
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counters is not None:
                span[4] = counters(fn, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Replace every function in WRAPPED, wherever qbecc imported it."""
        owners = {module: importlib.import_module(f"qbecc.{module}")
                  for module, _, _ in WRAPPED}
        from qbecc.stabilizer import ResourceLimitError
        modules = [m for key, m in sys.modules.items()
                   if key == "qbecc" or key.startswith("qbecc.")]
        for module, attr, counters in WRAPPED:
            owner = owners[module]
            cls_name, _, fn_name = attr.rpartition(".")
            span_name = _ef_name if fn_name == "entanglement_fidelity" else f"{module}.{fn_name}"
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, fn_name, self.wrap(span_name, getattr(cls, fn_name),
                                                counters, ResourceLimitError))
                continue
            original = getattr(owner, fn_name)
            wrapper = self.wrap(span_name, original, counters, ResourceLimitError)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def summarize(span_lists):
    """Per-layer totals over several processes' spans.

    Returns (self_s, total_s, calls, counters), each a dict keyed by span or
    counter name.  Self time is a span's duration minus its children's.
    """
    self_s, total_s, calls, counters = {}, {}, {}, {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            for key, value in (counts or {}).items():
                counters[key] = counters.get(key, 0) + value
    return self_s, total_s, calls, counters


def divisor_mismatches(spans) -> int:
    """enumerate_cyclic_generators spans whose divisor count is not
    2^(factor count) of the factorization made inside them."""
    factors = {}
    for name, _, _, parent, counts in spans:
        if name == "gf.berlekamp_factor" and parent >= 0:
            factors[parent] = factors.get(parent, 0) + counts["gf.factors"]
    return sum(1 for i, (name, _, _, _, counts) in enumerate(spans)
               if name == "search.enumerate_cyclic_generators"
               and counts is not None
               and counts["search.divisors"] != 1 << factors.get(i, 0))


def _main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import qbecc.cli
    try:
        return qbecc.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
