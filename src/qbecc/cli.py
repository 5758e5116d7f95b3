"""Command-line surface.

Commands: analyze, search, tensor, simulate, bounds.  Exit codes: 0 on
success, 1 when a reproduction command finds a mismatch, 2 for usage or
parse errors and for output that cannot be written, 3 when a resource
limit refuses the computation.  Errors are reported as one
machine-readable JSON object on stdout, or on stderr when writing stdout
is what failed.

A command computes its whole output before ``main`` writes it, and
``main`` flushes stdout and stderr before it returns.  Run as
``python -m qbecc.cli``, the process then ends with ``os._exit``: no
interpreter finalization runs after the last byte is out, unless a
profiler or tracer is active and still has to write its report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .burst import (classical_burst_capability, no_cloning_check, qrb,
                    quantum_burst_capability, rs_burst_capability)
from .classical import rs_mds
from .gf import GF4, ExtField
from .registry import registry_entry
from .search import (GenPolyError, SearchPlan, build_code, build_registry_code,
                     code_labels, cyclic_code, records_to_csv, reproduce_table1, search)
from .stabilizer import ResourceLimitError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class UsageError(ValueError):
    pass


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _error(kind: str, message: str) -> str:
    return _json({"error": {"type": kind, "message": message}})


def _output(text: str, path: Optional[str]) -> str:
    """What goes to stdout: text itself, or nothing once it is written to path."""
    if not path:
        return text
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output {path}: {exc.strerror or exc}") from None
    return ""


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def _cmd_analyze(args) -> Tuple[int, str]:
    construction = args.construction
    if construction == "css" and not args.poly2:
        raise UsageError("css construction needs --poly2")
    if construction == "hermitian" and args.poly2:
        raise UsageError("--poly2 is only meaningful with --construction css")
    n, genpolys = args.n, (args.poly, args.poly2)
    if n < 1:
        raise UsageError(f"analyze needs n >= 1, got n={n}")
    if args.distance_limit < 0:
        raise UsageError(f"--distance-limit must be non-negative, got {args.distance_limit}")
    k, columns = code_labels(construction, n, genpolys)
    analysis = quantum_burst_capability(n, k, columns)
    out = {
        "n": n, "k": k, "l": analysis.l,
        "qrb": qrb(n, k), "saturates": analysis.saturates,
        "degenerate": analysis.degenerate,
    }
    # a k = 0 code has no logical operator and so no minimum distance; the
    # dual walk takes 2^(n+k) elements of 2n bits, within the limit and 64
    if k and args.distance_limit and (1 << (n + k)) <= args.distance_limit and 2 * n <= 64:
        stab = build_code(construction, n, genpolys)
        out["distance"] = stab.min_distance(limit=args.distance_limit)
    return EXIT_OK, _json(out)


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def _cmd_search(args) -> Tuple[int, str]:
    if args.reproduce_table1:
        report = reproduce_table1()
        rows = []
        for r in report:
            exp, obs = r.expected, r.observed
            rows.append({
                "id": r.entry_id,
                "expected": {"n": exp[0], "k": exp[1], "l": exp[2],
                             "degenerate": exp[3], "qrb": exp[4]},
                "observed": {"n": obs[0], "k": obs[1], "l": obs[2],
                             "degenerate": obs[3], "qrb": obs[4]},
                "match": r.match,
                "seconds": round(r.seconds, 3),
                **({"note": r.note} if r.note else {}),
            })
        code = EXIT_OK if all(r.match for r in report) else EXIT_MISMATCH
        return code, _json({"rows": rows,
                            "matched": sum(r.match for r in report),
                            "total": len(report)})
    if args.min_n is None or args.max_n is None:
        raise UsageError("search needs --min-n and --max-n (or --reproduce-table1)")
    n_values = range(args.min_n | 1, args.max_n + 1, 2)  # the odd lengths, never listed
    if not n_values:
        raise UsageError(f"no odd lengths in [{args.min_n}, {args.max_n}]; "
                         "even-length cyclic codes are outside the default plan")
    constructions = tuple(args.construction.split(","))
    plan = SearchPlan(n_values, constructions,
                      max_seconds=args.max_seconds,
                      max_candidates=args.max_candidates)
    outcome = search(plan)
    csv_text = records_to_csv(outcome.records)
    if not outcome.complete:
        sys.stderr.write("warning: budget exhausted, results are incomplete\n")
    return EXIT_OK, _output(csv_text, args.output)


# ----------------------------------------------------------------------
# tensor
# ----------------------------------------------------------------------

def _cmd_tensor(args) -> Tuple[int, str]:
    from .qtpc import InterleaverMap, dispersal_report, qtpc_construct  # only tensor uses it
    try:
        n2_s, l2_s = args.rs.split(",")
        n2, l2 = int(n2_s), int(l2_s)
    except ValueError:
        raise UsageError(f"--rs expects 'n2,l2', got {args.rs!r}") from None
    if args.c1_n < 1:
        raise UsageError(f"tensor needs --c1-n >= 1, got {args.c1_n}")
    c1 = cyclic_code(args.c1_poly, args.c1_n, GF4)
    rho1 = c1.n - c1.k
    c2 = rs_mds(n2, l2, ExtField(GF4, rho1))
    stab, qspec = qtpc_construct(c1, c2)
    out = {
        "n1": qspec.n1, "k1": qspec.k1, "n2": qspec.n2, "k2": qspec.k2,
        "rho1": qspec.rho1, "rho2": qspec.rho2,
        "params": list(qspec.params),
        "rank": qspec.rho1 * qspec.rho2,
        "self_orthogonal": True,  # verified during construction
    }
    if args.dispersal is not None:  # 0 reaches dispersal_report's range check
        l1 = classical_burst_capability(c1).l if args.l1 is None else args.l1
        if l1 <= 0 or qspec.n1 % l1 != 0:
            raise UsageError(f"subblock height {l1} must divide n1={qspec.n1}")
        imap = InterleaverMap(qspec.n1, qspec.n2, l1)
        full = dispersal_report(imap, args.dispersal)
        aligned = dispersal_report(imap, args.dispersal, aligned_only=True)
        out["dispersal"] = {
            "L": full.burst_len,
            "max_subblocks": full.max_affected_subblocks,
            "max_inner_burst": full.max_inner_burst,
            "aligned": {
                "max_subblocks": aligned.max_affected_subblocks,
                "max_inner_burst": aligned.max_inner_burst,
            },
            "l1": l1,
            "l2": rs_burst_capability(c2).l,
        }
    return EXIT_OK, _json(out)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _parse_grid(text: str) -> List[float]:
    from .channel import MAX_ARRAY_BYTES  # numpy: only simulate parses grids
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise UsageError(f"range {text!r} must be VALUE, start:step:end, or start:log:end")
    lo, hi = float(parts[0]), float(parts[2])
    step = None if parts[1] == "log" else float(parts[1])
    if not all(map(math.isfinite, (lo, hi) if step is None else (lo, step, hi))):
        raise UsageError(f"range {text!r} has a non-finite start, step or end")
    if step is None:
        if lo <= 0 or hi <= lo:
            raise UsageError(f"log range {text!r} needs 0 < start < end")
        try:
            decades = math.log10(hi / lo)
            # five points per decade, and at least both ends
            count = max(2, int(round(4 * decades)) + 1)
            step = decades / (count - 1)
            return [lo * 10 ** (i * step) for i in range(count)]
        except OverflowError:
            raise UsageError(f"log range {text!r} spans more than a float's range") from None
    if step <= 0:
        raise UsageError("step must be positive")
    if hi < lo:
        raise UsageError(f"range {text!r} ends below its start")
    # finite bounds far apart overflow hi - lo: count and place the points
    # by halves then, which is exact at that size
    halve = not math.isfinite(hi - lo)
    steps = (hi / step - lo / step if halve else (hi - lo) / step) + 1e-9  # no point beyond end
    if steps >= MAX_ARRAY_BYTES // 8:  # floor(steps) + 1 points, 8 bytes each
        raise ResourceLimitError(
            f"range {text!r} needs over {MAX_ARRAY_BYTES // 8} points of 8 bytes, "
            f"over the {MAX_ARRAY_BYTES}-byte cap")
    if halve:
        return [2 * (lo / 2 + i * (step / 2)) for i in range(math.floor(steps) + 1)]
    return [lo + i * step for i in range(math.floor(steps) + 1)]


def _cmd_simulate(args) -> Tuple[int, str]:
    from .channel import CodeLabels, sweep, sweep_to_csv  # numpy, loaded only here
    for flag, value in (("--w-max", args.w_max), ("--t", args.t), ("--l", args.l)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be non-negative, got {value}")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    specs = []
    for code_id in args.code.split(","):
        entry = registry_entry(code_id)
        code = CodeLabels(entry.n, *code_labels(entry.construction, entry.n, entry.genpolys))
        t = args.t
        if t is None:  # only the distance needs the stabilizer code
            try:
                t = (build_registry_code(entry).min_distance() - 1) // 2
            except ResourceLimitError:
                raise UsageError(f"{code_id}: distance enumeration too large to "
                                 "derive t; pass --t") from None
        l = args.l if args.l is not None else entry.l
        specs.append((code_id, code, t, l))
    modes = args.decoder.split(",")
    p_grid = _parse_grid(args.p)
    mu_grid = _parse_grid(args.mu)
    points = sweep(specs, modes, p_grid, mu_grid,
                   strategy=args.strategy, w_max=args.w_max,
                   limit=args.limit, workers=args.workers)
    return EXIT_OK, _output(sweep_to_csv(points), args.output)


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def _cmd_bounds(args) -> Tuple[int, str]:
    if args.n < 1 or not 0 <= args.k <= args.n or args.l < 0:
        raise UsageError(f"bounds needs n >= 1, 0 <= k <= n and l >= 0, "
                         f"got n={args.n}, k={args.k}, l={args.l}")
    q = qrb(args.n, args.k)
    return EXIT_OK, _json({
        "qrb": q,
        "qrb_ok": args.l <= q,
        "no_cloning_ok": no_cloning_check(args.n, args.l) if args.k >= 1 else True,
    })


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbecc",
        description="Quantum burst-error-correcting code workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one cyclic-code construction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", required=True, help="generator, e.g. '1^6 2^3 1^0'")
    p.add_argument("--poly2", help="second binary generator (css only)")
    p.add_argument("--construction", choices=["hermitian", "css"], default="hermitian")
    p.add_argument("--distance-limit", type=int, default=1 << 28,
                   help="dual-enumeration cap for the distance field; 0 disables")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("search", help="enumerate and analyze cyclic candidates")
    p.add_argument("--min-n", type=int)
    p.add_argument("--max-n", type=int)
    p.add_argument("--construction", default="hermitian,css")
    p.add_argument("--max-seconds", type=float)
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--reproduce-table1", action="store_true",
                   help="rebuild every registry row and compare")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("tensor", help="build a tensor-product quantum code")
    p.add_argument("--c1-poly", required=True)
    p.add_argument("--c1-n", type=int, required=True)
    p.add_argument("--rs", required=True, help="outer MDS code as 'n2,l2'")
    p.add_argument("--l1", type=int, help="subblock height (default: measured burst capability of C1)")
    p.add_argument("--dispersal", type=int, help="report dispersal for this stream burst length")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("simulate", help="entanglement fidelity over the memory channel")
    p.add_argument("--code", required=True, help="registry id(s), comma separated")
    p.add_argument("--decoder", default="combined", help="random|burst|combined, comma separated")
    p.add_argument("--p", required=True, help="error probability grid")
    p.add_argument("--mu", required=True, help="correlation degree grid")
    p.add_argument("--strategy", choices=["exact", "truncated"], default="exact")
    p.add_argument("--w-max", type=int, default=4)
    p.add_argument("--t", type=int, help="random-error radius (default from distance)")
    p.add_argument("--l", type=int, help="burst span (default from registry)")
    p.add_argument("--limit", type=int, default=4 ** 13,
                   help="exact-strategy cap on 4^n")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="burst-length bound predicates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; its output is written and flushed before this returns."""
    # no qbecc code calls BLAS, so numpy (imported by simulate and distances)
    # need not start OpenBLAS's spinning thread pool; a value set by the
    # user wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        code, text = (EXIT_USAGE if exc.code not in (0, None) else EXIT_OK), ""
    else:
        try:
            code, text = args.func(args)
        except ResourceLimitError as exc:
            code, text = EXIT_LIMIT, _error("resource-limit", str(exc))
        except (UsageError, GenPolyError, ValueError) as exc:
            code, text = EXIT_USAGE, _error(type(exc).__name__, str(exc))
        except KeyError as exc:  # str() of a KeyError is the repr of its key
            code, text = EXIT_USAGE, _error(type(exc).__name__, exc.args[0])
    # the process may end without finalization, so nothing flushes later
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:  # stdout is what failed: report on stderr
        code = EXIT_USAGE
        sys.stderr.write(_error(type(exc).__name__,
                                f"cannot write standard output: {exc.strerror or exc}"))
        # what stdout still buffers would fail again, with exit status 120,
        # when a process that ends through sys.exit flushes it at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    code = main()
    # with the output flushed, skip interpreter finalization (module
    # teardown, the last GC sweep, numpy's deallocation) unless a profiler
    # or tracer still has a report to write; from Python 3.12 cProfile and
    # coverage may hook in through sys.monitoring instead
    monitoring = getattr(sys, "monitoring", None)
    if sys.getprofile() is None and sys.gettrace() is None and not (
            monitoring and any(map(monitoring.get_tool, range(6)))):
        os._exit(code)
    sys.exit(code)
