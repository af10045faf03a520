"""Cold start: ``import qhist`` loads no submodule and not numpy until a name
is used, each CLI verb imports only the modules it needs, and the ``qhist``
entry point gives numpy one BLAS thread unless the user chose a count."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qhist

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_python(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports qhist from src/."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def without_thread_variables() -> dict:
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}


# ---------------------------------------------------------------------------
# the lazy package


def test_every_exported_name_is_the_object_its_module_defines():
    for name in qhist.__all__:
        value = getattr(qhist, name)
        module = importlib.import_module(f"qhist.{qhist._MODULE_OF[name]}")
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            home = importlib.import_module(value.__module__)
            assert getattr(home, value.__qualname__) is value, name


def test_dir_lists_every_exported_name():
    assert set(qhist.__all__) <= set(dir(qhist))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'event'"):
        qhist.event  # noqa: B018
    assert not hasattr(qhist, "no_such_name")


def test_star_import_binds_every_name_in_a_fresh_interpreter():
    code = ("import json, qhist; from qhist import *; "
            "print(json.dumps([n for n in qhist.__all__ "
            "if globals().get(n) is not getattr(qhist, n)]))")
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_importing_qhist_loads_no_submodule_and_not_numpy():
    code = ("import json, sys, qhist; print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('qhist.') or m.partition('.')[0] == 'numpy')))")
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_a_submodule_is_an_attribute_of_the_package():
    code = "import qhist; print(qhist.bell.lhv_classical_bound())"
    result = fresh_python("-c", code)
    assert (result.returncode, result.stdout) == (0, "2\n"), result.stderr


# ---------------------------------------------------------------------------
# the cold CLI path


# Runs ``python -m qhist *sys.argv[1:]`` as ``-m`` does (runpy) and writes the
# qhist modules the process loaded to stderr when it exits.
RUN_MODULE = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules
                                                if m.startswith("qhist."))), file=sys.stderr))
sys.argv = ["qhist", *sys.argv[1:]]
runpy.run_module("qhist", run_name="__main__", alter_sys=True)
"""


def test_run_builtin_loads_neither_bell_nor_frameworks():
    result = fresh_python("-c", RUN_MODULE, "run-builtin", "eq23", "--format", "machine")
    assert result.returncode == 3
    assert result.stdout == (ROOT / "tests" / "golden" / "eq23.machine.json").read_text(
        encoding="utf-8")
    modules = json.loads(result.stderr)
    assert {"qhist.cli", "qhist.report"} <= set(modules)
    assert not {"qhist.bell", "qhist.frameworks"} & set(modules)


def test_chsh_loads_bell():
    result = fresh_python("-c", RUN_MODULE, "chsh")
    assert result.returncode == 0
    assert "qhist.bell" in json.loads(result.stderr)


# Records the thread variables at the moment numpy is first imported, then
# runs the entry point the way the console script does.
SPY = """
import json, os, sys

class Spy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            Spy.seen.append({v: os.environ.get(v) for v in %r})

sys.meta_path.insert(0, Spy())
from qhist.__main__ import main
assert "numpy" not in sys.modules
code = main(["list-builtin"])
print(json.dumps(Spy.seen), file=sys.stderr)
sys.exit(code)
""" % (THREAD_VARIABLES,)


@pytest.mark.parametrize("user, expected", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}),
], ids=["unset", "user-set"])
def test_entry_point_sets_one_thread_before_numpy_loads(user, expected):
    result = fresh_python("-c", SPY, env={**without_thread_variables(), **user})
    assert result.returncode == 0, result.stderr
    assert "eq23" in result.stdout.split()
    assert json.loads(result.stderr) == [expected]


def test_importing_the_library_and_cli_sets_no_variable():
    code = ("import os; before = dict(os.environ); import qhist, qhist.cli; "
            "print(dict(os.environ) == before, 'numpy' in __import__('sys').modules)")
    result = fresh_python("-c", code, env=without_thread_variables())
    assert (result.returncode, result.stdout) == (0, "True True\n"), result.stderr
