"""Import surface: the package's lazy re-exports, which commands start
without numpy or a process pool, and the OpenBLAS thread count numpy
starts with."""

import importlib
import json
import subprocess
import sys

import pytest

import qbecc

TENSOR = ["tensor", "--c1-poly", "1^6 2^3 1^0", "--c1-n", "15",
          "--rs", "6,2", "--dispersal", "6"]

SEARCH = ["search", "--min-n", "13", "--max-n", "13"]
TABLE1 = ["search", "--reproduce-table1"]
BOUNDS = ["bounds", "--n", "13", "--k", "1", "--l", "3"]
ANALYZE = ["analyze", "--n", "15", "--poly", "1^6 2^3 1^0", "--distance-limit", "0"]
SIMULATE = ["simulate", "--code", "13_1", "--p", "0.01", "--mu", "0.5", "--workers", "1"]

# (argv, a module the call must not load).  Records are NamedTuples, so no
# command loads dataclasses, nor inspect unless numpy brings it.
COLD_START = [
    (SEARCH, "numpy"),
    (SEARCH, "qbecc.qtpc"),
    (TABLE1, "numpy"),
    (TENSOR, "numpy"),
    (BOUNDS, "numpy"),
    (ANALYZE, "numpy"),
    (SIMULATE, "concurrent.futures.process"),
    (["simulate", "--workers", "2", "--code", "13_1", "--p", "0.01", "--mu", "0:0.5:0.5"],
     "concurrent.futures.process"),
    *[(argv, module) for argv in (SEARCH, TABLE1, TENSOR, BOUNDS, ANALYZE)
      for module in ("dataclasses", "inspect")],
    (SIMULATE, "dataclasses"),
]

CHILD = """
import contextlib, io, json, sys
import qbecc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qbecc.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv, module", COLD_START,
                         ids=lambda v: v if isinstance(v, str) else "_".join(v[:2]))
def test_command_leaves_module_unloaded(argv, module):
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          capture_output=True, text=True, timeout=600, check=True)
    code, modules = json.loads(proc.stdout)
    assert code == 0
    assert module not in modules


BLAS_CHILD = """
import contextlib, io, json, os, sys
seen = []

class Watch:  # the environment when numpy is first imported
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Watch())
import qbecc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qbecc.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, seen]))
"""


@pytest.mark.parametrize("value, seen", [(None, "1"), ("2", "2")])
def test_simulate_starts_numpy_with_one_blas_thread_unless_set(monkeypatch, value, seen):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if value is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
    argv = ["simulate", "--code", "13_1", "--t", "1", "--p", "0.01", "--mu", "0.5"]
    proc = subprocess.run([sys.executable, "-c", BLAS_CHILD, json.dumps(argv)],
                          capture_output=True, text=True, timeout=600, check=True)
    assert json.loads(proc.stdout) == [0, [seen]]


def test_every_export_is_its_module_object():
    assert len(set(qbecc.__all__)) == len(qbecc.__all__)
    for module_name, names in qbecc._EXPORTS.items():
        module = importlib.import_module(f"qbecc.{module_name}")
        for name in names:
            assert getattr(qbecc, name) is getattr(module, name), name
    star = {}
    exec("from qbecc import *", star)
    assert set(star) - {"__builtins__"} == set(qbecc.__all__)
    with pytest.raises(AttributeError):
        qbecc.no_such_name
