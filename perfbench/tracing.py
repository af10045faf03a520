"""In-memory span tracing around qhist's public functions.

A span is (name, start ns, end ns, parent index). :meth:`Tracer.patched`
swaps module attributes for wrappers that record one span per call and
restores the originals on exit, so only the traced run pays for tracing.
A layer that is only reached from inside another is caught at the name its
caller looks up: ``report.run_scenario`` calls ``check_consistency`` through
the ``qhist.report`` namespace, so that is the attribute to wrap.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from qhist import bell, cli, dynamics, frameworks, histories, report, scenario

# (module, attribute the caller looks up, span name). Span names are
# <module>.<function> of the function's defining module.
TARGETS = [
    (cli, "main", "cli.main"),
    (scenario, "parse_scenario", "scenario.parse_scenario"),
    (scenario, "build_scenario", "scenario.build_scenario"),
    (report, "build_scenario", "scenario.build_scenario"),
    (scenario, "as_projector", "linalg.as_projector"),
    (frameworks, "as_projector", "linalg.as_projector"),
    (dynamics, "propagator", "dynamics.propagator"),
    (histories, "propagator", "dynamics.propagator"),
    (dynamics, "unitary_exp", "linalg.unitary_exp"),
    (histories, "check_consistency", "histories.check_consistency"),
    (report, "check_consistency", "histories.check_consistency"),
    (frameworks, "check_consistency", "histories.check_consistency"),
    (histories, "history_probability", "histories.history_probability"),
    (frameworks, "query", "frameworks.query"),
    (frameworks, "refine", "frameworks.refine"),
    (report, "run_scenario", "report.run_scenario"),
    (cli, "run_scenario", "report.run_scenario"),
    (report, "render_report_machine", "report.render_report_machine"),
    (cli, "render_report_machine", "report.render_report_machine"),
    (bell, "chsh", "bell.chsh"),
    (bell, "correlation", "bell.correlation"),
    (bell, "angle_between", "spin.angle_between"),
    (bell, "check_factorization", "bell.check_factorization"),
]


class Tracer:
    """Collects spans and, through per-name observers, the facts the
    per-layer metrics need (families checked, report sizes, built scenarios)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.families: dict[int, object] = {}   # id -> family, kept alive
        self.pairs = 0
        self.violating_pairs = 0
        self.report_bytes = 0
        self.built: list = []

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter_ns()
        self._stack.pop()

    def _observe(self, name: str, args, result) -> None:
        if name == "histories.check_consistency":
            family = args[0]
            self.families[id(family)] = family
            n = len(family.histories)
            self.pairs += n * (n - 1) // 2
            self.violating_pairs += len(result.violating_pairs)
        elif name == "report.render_report_machine":
            self.report_bytes += len(result.encode())
        elif name == "scenario.build_scenario":
            self.built.append(result)

    def wrap(self, fn, name: str):
        observed = name in ("histories.check_consistency",
                            "report.render_report_machine", "scenario.build_scenario")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observed:
                self._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, name), (_, _, original) in zip(TARGETS, saved):
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns); self time is a span's duration minus
        the durations of its direct children."""
        children = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(lambda: [0, 0])
        for (name, start, end, _), covered in zip(self.spans, children):
            totals[name][0] += 1
            totals[name][1] += end - start - covered
        return {name: (calls, self_ns) for name, (calls, self_ns) in totals.items()}

    def child_calls(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly from a ``parent_name`` span."""
        return sum(
            1 for n, _, _, p in self.spans
            if n == name and p >= 0 and self.spans[p][0] == parent_name
        )

    def distinct_events(self) -> int:
        """Distinct (time, label) events over every family built while traced."""
        return sum(
            len({(ev.time_index, ev.label) for h in fam.histories for ev in h.events})
            for built in self.built
            for _, fam in built.families
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
