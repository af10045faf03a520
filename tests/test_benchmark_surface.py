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


def test_tracer_reads_events_pairs_and_report_bytes(monkeypatch):
    # the objects a --trace 1 run reads: h.events, ev.time_index, ev.label,
    # len(result.violating_pairs) and the rendered report
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from qhist import frameworks, report, scenario

    tracer = tracing.Tracer()
    with tracer.patched():
        built = scenario.build_scenario(scenario.builtin_scenario("eq28-sixteen"))
        text = report.render_report_machine(report.run_scenario(built))
        cat = scenario.build_scenario(scenario.builtin_scenario("cat-analogue"))
        prop = frameworks.Proposition(*scenario.proposition_projector(cat, "x1+"))
        frameworks.query(cat.family("z-frame"), prop)
    assert tracer.distinct_events() == 12  # 8 in eq28-sixteen, 4 in cat-analogue
    assert tracer.violating_pairs == 24
    assert tracer.report_bytes == len(text.encode())
