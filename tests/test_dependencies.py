"""numpy is qhist's only runtime dependency: the package, every name it
exports and its CLI load no scipy, and pyproject.toml declares numpy alone."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_importing_qhist_and_its_cli_loads_no_scipy():
    # the package imports its modules lazily, so resolve every name first
    code = ("import sys, qhist, qhist.cli; [getattr(qhist, n) for n in qhist.__all__]; "
            "print(qhist.__file__); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    module, scipy = result.stdout.splitlines()
    assert Path(module).is_relative_to(ROOT / "src")
    assert scipy == "[]"


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies] == ["numpy"]
