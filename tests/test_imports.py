"""Import surface: the package's lazy re-exports, and which commands start
without numpy or a process pool."""

import importlib
import json
import subprocess
import sys

import pytest

import qbecc

TENSOR = ["tensor", "--c1-poly", "1^6 2^3 1^0", "--c1-n", "15",
          "--rs", "6,2", "--dispersal", "6"]

# (argv, a module the call must not load)
COLD_START = [
    (["search", "--min-n", "13", "--max-n", "13"], "numpy"),
    (["search", "--min-n", "13", "--max-n", "13"], "qbecc.qtpc"),
    (["search", "--reproduce-table1"], "numpy"),
    (TENSOR, "numpy"),
    (["bounds", "--n", "13", "--k", "1", "--l", "3"], "numpy"),
    (["analyze", "--n", "15", "--poly", "1^6 2^3 1^0", "--distance-limit", "0"], "numpy"),
    (["simulate", "--code", "13_1", "--p", "0.01", "--mu", "0.5", "--workers", "1"],
     "concurrent.futures.process"),
    (["simulate", "--workers", "2", "--code", "13_1", "--p", "0.01", "--mu", "0:0.5:0.5"],
     "concurrent.futures.process"),
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
