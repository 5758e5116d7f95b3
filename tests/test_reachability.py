"""src/qbecc holds what the CLI reaches.

A small set of CLI calls (each subcommand, the README examples at small
sizes, and the error paths that print a generator polynomial and its
field) runs through main in a child interpreter under sys.setprofile,
installed before qbecc is imported, which records every Python frame
entered, module import included.  Every module-level function, method and
property defined in a qbecc module must be among them: a helper that no
CLI path enters belongs in the tests that use it, or nowhere.

Exempt are the names perfbench/tracer.py wraps (its WRAPPED list, which
must keep resolving), LinearCode.syndrome, which only two of them call,
nested closures, and qbecc/__init__.py.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import qbecc
from test_tracer_names import _load_tracer

C1 = ("--c1-poly", "1^6 2^3 1^0", "--c1-n", "15")

# (argv, exit code)
CALLS = [
    (("analyze", "--n", "15", "--poly", "1^6 2^3 1^0"), 0),
    (("analyze", "--n", "21", "--construction", "css", "--poly", "1^6 1^4 1^1 1^0",
      "--poly2", "1^6 1^4 1^2 1^1 1^0", "--distance-limit", "0"), 0),
    # a CSS code small enough for its distance builds the stabilizer code
    (("analyze", "--n", "7", "--construction", "css", "--poly", "1^3 1^1 1^0",
      "--poly2", "1^3 1^1 1^0"), 0),
    (("search", "--min-n", "13", "--max-n", "17"), 0),
    (("search", "--reproduce-table1"), 0),
    (("tensor", *C1, "--rs", "6,2", "--dispersal", "6"), 0),
    (("simulate", "--code", "13_1", "--decoder", "combined", "--p", "3e-2",
      "--mu", "0:0.5:1"), 0),
    (("simulate", "--code", "13_1", "--decoder", "random,burst", "--strategy", "truncated",
      "--p", "1e-2:log:1e-1", "--mu", "0.5"), 0),
    # a weight cap below the burst span: span classes heavier than the cap
    (("simulate", "--code", "13_1", "--decoder", "burst", "--strategy", "truncated",
      "--w-max", "2", "--p", "3e-2", "--mu", "0.5"), 0),
    (("bounds", "--n", "13", "--k", "1", "--l", "3"), 0),
    # non-divisors over GF(4) and GF(2): the message prints Poly and field
    (("analyze", "--n", "15", "--poly", "1^7 1^0"), 2),
    (("analyze", "--n", "15", "--construction", "css", "--poly", "1^7 1^0",
      "--poly2", "1^7 1^0"), 2),
]

EXEMPT = {f"{module}.{attr}" for module, attr, _ in _load_tracer().WRAPPED}
EXEMPT.add("classical.LinearCode.syndrome")


def _defined_functions():
    """(name, code object) of every module-level function, and every
    method and property of a module-level class, written in a qbecc
    module's own file."""
    for info in pkgutil.iter_modules(qbecc.__path__):
        module = importlib.import_module(f"qbecc.{info.name}")
        for name, obj in vars(module).items():
            members = ([(f"{name}.{attr}", value) for attr, value in vars(obj).items()]
                       if inspect.isclass(obj) else [(name, obj)])
            for qualname, value in members:
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                code = getattr(inspect.unwrap(value) if callable(value) else value,
                               "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    yield f"{info.name}.{qualname}", code


# Runs in a fresh interpreter, the profile hook installed before qbecc is
# first imported, so what the modules run while they load (such as GF4's
# table build) counts too.  Prints the exit codes and the (file, first
# line, qualified name) of every code object entered.
_CHILD = """
import contextlib, io, json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno,
                     getattr(code, "co_qualname", code.co_name)))  # co_qualname from 3.11

sys.setprofile(profile)
from qbecc.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _key(code):
    return code.co_filename, code.co_firstlineno, getattr(code, "co_qualname", code.co_name)


def _entered_by_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps([argv for argv, _ in CALLS])],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [code for _, code in CALLS]
    return {tuple(key) for key in report["entered"]}


def test_every_function_in_src_is_reached_by_the_cli():
    defined = dict(_defined_functions())
    assert "cli.main" in defined and "gf.Poly.__repr__" in defined
    assert EXEMPT <= set(defined)  # every exemption names a real function
    entered = _entered_by_cli()
    unreached = sorted(name for name, code in defined.items()
                       if _key(code) not in entered and name not in EXEMPT)
    assert not unreached, f"entered by no CLI call: {', '.join(unreached)}"
