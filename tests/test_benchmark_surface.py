"""The benchmark under perfbench/ calls qhist through module attributes and
wraps some of them while tracing; a rename or deletion in qhist that it still
relies on should fail here, not half-way through a benchmark run."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_targets_and_calls_are_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    for module, attr, _ in tracing.TARGETS:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"

    # every <qhist module>.<name> the benchmark's files look up at run time
    looked_up = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "qhist"
            for alias in node.names
        }
        looked_up |= {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    assert looked_up
    for module, attr in sorted(looked_up):
        assert hasattr(importlib.import_module(f"qhist.{module}"), attr), f"{module}.{attr}"
