"""qbecc benchmark: CLI workloads end to end, and a traced pass per layer.

Run from the root of a qbecc checkout:

    python3 perfbench/run.py --workload search --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --compare BASE.json NEW.json

A run makes the workload's CLI calls one after another, each in a fresh
child process (a closed loop with one client), and checks every output
against the reference.  With ``--trace 0`` it repeats rounds of five
set-up probes and one whole pass while the next round is expected to end
within ``--seconds`` (at least one round), and reports the end-to-end
metrics of BENCHMARK.json as medians over probes and passes.
With ``--trace 1`` it makes one plain pass and one traced pass, whatever
``--seconds`` says, and reports the per-layer metrics of BENCHMARK.json
from the traced pass.

Every child is bracketed by two readings of a fixed host-speed probe (an
interpreter loop and a 16 MB sort, run in this process), and its wall and
CPU times are scaled by ``NOMINAL_PROBE_S`` over the mean of those two
readings.  On a shared host whose speed drifts by tens of percent over
minutes, the scaled times are the times the child would have taken on a
host where the probe takes ``NOMINAL_PROBE_S``; the raw times are kept in
the run record.

Every run also writes a record with its environment to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``; ``--compare``
prints the ratio of each metric between two such records and flags any
change of an exact counter as a semantic change.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

import tracer
import workloads

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
SETUP_PROBES_PER_PASS = 5
RUN_LIMIT_S = 170.0  # children still running past this are killed
SETUP_CODE = "import qbecc.cli, qbecc.registry; qbecc.registry.load_registry()"
EXACT_UNITS = ("count", "bytes")
NOMINAL_PROBE_S = 0.035  # the probe's median on the 2-CPU VM the benchmark was defined on
PROBE_LOOP = 600_000
PROBE_ARRAY = np.random.default_rng(0).integers(0, 2 ** 62, size=2_000_000, dtype=np.uint64)


def host_probe() -> float:
    """Geometric mean of the times of an interpreter-bound loop and a
    memory-bound sort: the two kinds of work the workloads are made of."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    loop = time.perf_counter() - start
    start = time.perf_counter()
    np.sort(PROBE_ARRAY)
    return (loop * (time.perf_counter() - start)) ** 0.5


@dataclass
class Child:
    returncode: int
    stdout: str
    wall: float
    cpu: float
    rss_mb: float
    scale: float = 1.0  # NOMINAL_PROBE_S over the host probe around this child


class Clock:
    """Runs children one after another with a host probe between each two,
    and gives each child the scale of the probes on either side of it."""

    def __init__(self):
        self.last = host_probe()

    def run(self, cmd: List[str], env: dict, deadline: float) -> Child:
        child = run_child(cmd, env, deadline)
        probe = host_probe()
        child.scale = NOMINAL_PROBE_S / ((self.last + probe) / 2)
        self.last = probe
        return child


@dataclass
class Pass:
    wall: float = 0.0  # scaled, like cpu
    cpu: float = 0.0
    rss_mb: float = 0.0
    failed: int = 0
    calls: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def run_child(cmd: List[str], env: dict, deadline: float) -> Child:
    """Run one child to its end; wall time is launch to exit, CPU time and
    peak RSS are the child's own from wait4."""
    start = time.perf_counter()
    with open(OUT / "stderr.log", "ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode("utf-8", "replace"), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_pass(workload, clock: Clock, env: dict, deadline: float, trace_dir: Path = None) -> Pass:
    result = Pass()
    outputs = {}
    for i, call in enumerate(workload.calls):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "qbecc.cli", *call]
        else:
            spans_path = trace_dir / f"call{i}.json"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *call]
        child = clock.run(cmd, env, deadline)
        outputs[call] = (child.returncode, child.stdout)
        result.wall += child.wall * child.scale
        result.cpu += child.cpu * child.scale
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.calls.append({"argv": list(call), "returncode": child.returncode,
                             "raw_wall_s": child.wall, "raw_cpu_s": child.cpu,
                             "scale": child.scale})
        if trace_dir is not None:
            result.spans.append(json.loads(spans_path.read_text("utf-8"))
                                if spans_path.exists() else [])
    try:
        result.failed = workload.check(outputs)
    except (ValueError, KeyError, TypeError):  # output too malformed to compare
        result.failed = workload.ops
    return result


def setup_probes(clock: Clock, env: dict, deadline: float) -> List[float]:
    """Scaled launch-to-exit times of fresh interpreters that import the CLI
    and load the registry."""
    times = []
    for _ in range(SETUP_PROBES_PER_PASS):
        child = clock.run([sys.executable, "-c", SETUP_CODE], env, deadline)
        if child.returncode != 0:
            raise SystemExit("error: the setup probe failed; see .perfbench_out/stderr.log")
        times.append(child.wall * child.scale)
    return times


def per_call_median(passes: List[Pass], key: str) -> float:
    """Sum over the calls of a pass of each call's median scaled time."""
    samples = {}
    for p in passes:
        for call in p.calls:
            samples.setdefault(tuple(call["argv"]), []).append(call[key] * call["scale"])
    return sum(statistics.median(v) for v in samples.values())


def environment(env: dict, deadline: float) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    probe = run_child([sys.executable, str(HERE / "probe.py")], env, deadline)
    info = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": info.get("numpy"), "blas_threads": info.get("blas_threads"),
            "loadavg_1m": os.getloadavg()[0]}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(plain: Pass, traced: Pass) -> dict:
    self_s, total_s, calls, counters = tracer.summarize(traced.spans)
    values = dict(counters)
    for name in self_s:
        values[name + ".s"] = self_s[name]
        values[name + ".calls"] = calls[name]
    bursts = counters.get("burst.bursts", 0)
    values["burst.syndrome_bytes"] = 8 * bursts
    values["burst.bursts_per_s"] = _rate(bursts, total_s.get("burst.quantum_burst_capability", 0.0))
    filters = ("classical.hermitian_dual_containing", "classical.binary_dual_containing")
    values["classical.filter_pass_ratio"] = _rate(
        sum(counters.get(f + ".passed", 0) for f in filters),
        sum(calls.get(f, 0) for f in filters))
    values["channel.exact.states_per_s"] = _rate(
        counters.get("channel.label_states", 0),
        total_s.get("channel.entanglement_fidelity.exact", 0.0))
    values["channel.truncated.patterns_per_s"] = _rate(
        counters.get("channel.truncated.patterns", 0),
        total_s.get("channel.entanglement_fidelity.truncated", 0.0))
    values["trace.overhead_s"] = traced.wall - plain.wall
    return values


def measure(args, spec: dict) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run_child([sys.executable, "-c", SETUP_CODE], env, deadline)  # compiles bytecode once
    info = environment(env, deadline)
    if info["loadavg_1m"] > info["nproc"]:
        print(f"warning: load average {info['loadavg_1m']:.2f} is above nproc={info['nproc']}; "
              "timings will be noisy", file=sys.stderr)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    clock = Clock()

    if args.trace:
        trace_dir = OUT / f"spans-{args.workload}"
        trace_dir.mkdir(exist_ok=True)
        passes = [run_pass(workload, clock, env, deadline),
                  run_pass(workload, clock, env, deadline, trace_dir)]
        values = layer_metrics(*passes)
        listed = spec["per_layer"]
        broken_invariants = sum(map(tracer.divisor_mismatches, passes[1].spans))
    else:
        setup, passes = [], []
        begin = time.monotonic()
        while True:
            round_start = time.monotonic()
            setup += setup_probes(clock, env, deadline)
            passes.append(run_pass(workload, clock, env, deadline))
            now = time.monotonic()
            next_end = now + (now - round_start)
            if next_end - begin > args.seconds or next_end > deadline:
                break
        wall = per_call_median(passes, "raw_wall_s")
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "cpu_s": per_call_median(passes, "raw_cpu_s"),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "ops_per_s": _rate(workload.ops - statistics.median(p.failed for p in passes), wall),
            "ops": workload.ops,
        }
        listed = spec["end_to_end"]
        broken_invariants = 0

    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0 and broken_invariants == 0,
        "attempted": workload.ops * len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in listed},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": info,
              "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "peak_rss_mb": p.rss_mb,
                          "failed": p.failed, "calls": p.calls} for p in passes],
              "broken_invariants": broken_invariants, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), "utf-8")
    print(f"env: {json.dumps(info)}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"ops attempted {result['attempted']}, failed {failed}, "
          f"broken invariants {broken_invariants}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    return result


def compare(base_path: str, new_path: str) -> int:
    base, new = (json.loads(Path(p).read_text("utf-8")) for p in (base_path, new_path))
    print(f"base {base['env']['git_sha']} {base['workload']} seed {base['seed']} trace {base['trace']}"
          f" -> new {new['env']['git_sha']} {new['workload']} seed {new['seed']} trace {new['trace']}")
    print(f"  {'metric':42s} {'base':>14s} {'new':>14s} {'unit':8s} {'new/base':>9s} {'base/new':>9s}")
    semantic = 0
    base_metrics, new_metrics = base["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(base_metrics) | set(new_metrics)):
        b, n = base_metrics.get(name), new_metrics.get(name)
        if b is None or n is None:
            print(f"  {name:42s} only in {'new' if b is None else 'base'}")
            continue
        ratios = [f"{x / y:.3f}" if y else "-" for x, y in ((n["value"], b["value"]), (b["value"], n["value"]))]
        flag = ""
        if n["unit"] in EXACT_UNITS and n["value"] != b["value"]:
            flag = "  SEMANTIC CHANGE (exact counter moved)"
            semantic += 1
        print(f"  {name:42s} {b['value']:>14.6g} {n['value']:>14.6g} {n['unit']:8s} {ratios[0]:>9s} {ratios[1]:>9s}{flag}")
    print(f"{semantic} exact counter(s) changed")
    return 1 if semantic else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two saved run records instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qbecc" / "cli.py").is_file():
        print("error: run from the root of a qbecc checkout (src/qbecc is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    result = measure(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
