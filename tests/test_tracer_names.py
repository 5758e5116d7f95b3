"""The traced benchmark pass wraps qbecc functions by name; every name it
lists must still resolve, or that pass breaks when a function is removed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wrapped = _load_tracer().WRAPPED
    assert wrapped
    missing = []
    for module, attr, _ in wrapped:
        target = importlib.import_module(f"qbecc.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_burst_counter_reads_a_real_analysis():
    from qbecc.burst import quantum_burst_capability
    from qbecc.registry import registry_entry
    from qbecc.search import code_labels
    counters = {(module, attr): fn for module, attr, fn in _load_tracer().WRAPPED}
    count = counters[("burst", "quantum_burst_capability")]
    entry = registry_entry("21_9")
    args = (entry.n, *code_labels(entry.construction, entry.n, entry.genpolys))
    analysis = quantum_burst_capability(*args)
    assert count(quantum_burst_capability, args, {}, analysis) == \
        {"burst.checked_pairs": analysis.checked_pairs}
    assert analysis.checked_pairs > 0
