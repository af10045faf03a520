"""Consistency reports for scenarios, in human and machine form.

The machine form is a single JSON document::

    {"scenario": ..., "families": [
        {"name": ..., "consistent": ..., "exhaustive": ...,
         "violating_pairs": [{"i": ..., "j": ..., "re": ..., "im": ...}],
         "probabilities": [...]}]}

All numbers are rounded to 12 significant digits before serialization (and
magnitudes below 1e-12 snapped to zero), so rendering is deterministic and
``report_from_dict(json.loads(render_report_machine(r))) == r``.
Probabilities are listed only for families that pass the consistency check;
for the rest they would carry no meaning.

Both renderers write their text straight from the report, one format
template per violating pair, so a report of 10^5 pairs costs no tree of
dicts and no pass of :mod:`json`'s pure-Python indenting encoder; the
machine form stays byte for byte ``json.dumps(report_to_dict(r), indent=2)``
plus a newline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .histories import check_consistency
from .linalg import EPS_CONS
from .scenario import BuiltScenario, ScenarioDoc, build_scenario


_ZERO_BELOW = 1e-12  # printed magnitudes below this are exact zeros


def round12(x: float) -> float:
    """Round to 12 significant digits; snap noise below 1e-12 to exact zero."""
    x = float(x)
    if abs(x) < _ZERO_BELOW:
        return 0.0
    return float(f"{x:.12g}")


def _round12_all(values) -> list[float]:
    """round12 of every value in one batch (NaN and infinities pass through)."""
    a = np.asarray(values, dtype=float)
    a = np.where(np.abs(a) < _ZERO_BELOW, 0.0, a)  # also turns -0.0 into +0.0
    return list(map(float, ("%.12g " * a.size % tuple(a.tolist())).split()))


@dataclass(frozen=True)
class FamilyResult:
    name: str
    consistent: bool
    exhaustive: bool
    violating_pairs: tuple[tuple[int, int, float, float], ...]
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class Report:
    scenario: str
    families: tuple[FamilyResult, ...]

    @property
    def all_consistent(self) -> bool:
        return all(f.consistent for f in self.families)


def run_scenario(doc: ScenarioDoc | BuiltScenario, tol: float = EPS_CONS) -> Report:
    """Check every family of a scenario and collect the results in file order."""
    built = doc if isinstance(doc, BuiltScenario) else build_scenario(doc)
    results = []
    for name, family in built.families:
        verdict = check_consistency(family, tol)
        n = len(verdict.violating_pairs)
        i, j, overlaps = zip(*verdict.violating_pairs) if n else ((), (), ())
        overlaps = np.array(overlaps, dtype=complex)
        probs = verdict.probabilities if verdict.consistent else ()
        rounded = _round12_all(np.concatenate((overlaps.real, overlaps.imag, probs)))
        results.append(
            FamilyResult(
                name=name,
                consistent=verdict.consistent,
                exhaustive=verdict.exhaustive,
                violating_pairs=tuple(zip(i, j, rounded[:n], rounded[n:2 * n])),
                probabilities=tuple(rounded[2 * n:]),
            )
        )
    return Report(built.doc.name, tuple(results))


def report_to_dict(report: Report) -> dict:
    return {
        "scenario": report.scenario,
        "families": [
            {
                "name": f.name,
                "consistent": f.consistent,
                "exhaustive": f.exhaustive,
                "violating_pairs": [
                    {"i": i, "j": j, "re": re, "im": im}
                    for i, j, re, im in f.violating_pairs
                ],
                "probabilities": list(f.probabilities),
            }
            for f in report.families
        ],
    }


def report_from_dict(data: dict) -> Report:
    families = tuple(
        FamilyResult(
            name=f["name"],
            consistent=bool(f["consistent"]),
            exhaustive=bool(f["exhaustive"]),
            violating_pairs=tuple(
                (int(p["i"]), int(p["j"]), float(p["re"]), float(p["im"]))
                for p in f["violating_pairs"]
            ),
            probabilities=tuple(float(p) for p in f["probabilities"]),
        )
        for f in data["families"]
    )
    return Report(data["scenario"], families)


# Templates of the indent=2 layout; every %s takes a value that prints as
# json prints it (see _json_values).
_PAIR_JSON = ('{\n          "i": %s,\n          "j": %s,\n'
              '          "re": %s,\n          "im": %s\n        }')
_FAMILY_JSON = ('{\n      "name": %s,\n      "consistent": %s,\n'
                '      "exhaustive": %s,\n      "violating_pairs": %s,\n'
                '      "probabilities": %s\n    }')


def _json_values(values: tuple) -> tuple:
    """The numbers, each printing under %s as json.dumps prints it: ints and
    finite floats already do; NaN and the infinities become its spellings."""
    if math.isfinite(sum(values)):
        return values
    return tuple(
        v if math.isfinite(v) else "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"
        for v in values
    )


def _json_array(template: str, values: tuple, n: int, depth: int) -> str:
    """A JSON array of n elements, each ``template`` filled from ``values`` in
    turn, laid out the way json.dumps(indent=2) lays out an array that sits
    at nesting ``depth``."""
    if not n:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}" + f",{inner}".join([template] * n) % values + "\n" + "  " * depth + "]"


def _json_bool(b: bool) -> str:
    return "true" if b else "false"


def render_report_machine(report: Report) -> str:
    """``json.dumps(report_to_dict(report), indent=2) + "\n"``, written directly."""
    families = tuple(
        _FAMILY_JSON % (
            json.dumps(f.name), _json_bool(f.consistent), _json_bool(f.exhaustive),
            _json_array(_PAIR_JSON, _json_values(tuple(chain.from_iterable(f.violating_pairs))),
                        len(f.violating_pairs), 3),
            _json_array("%s", _json_values(tuple(f.probabilities)), len(f.probabilities), 3),
        )
        for f in report.families
    )
    return ('{\n  "scenario": ' + json.dumps(report.scenario) + ',\n  "families": '
            + _json_array("%s", families, len(families), 1) + "\n}\n")


# one violating pair of the text report
_PAIR_TEXT = "    (%d, %d): overlap re=%.12g im=%.12g"


def render_report_text(report: Report) -> str:
    lines = [f"scenario: {report.scenario}"]
    for f in report.families:
        verdict = "consistent" if f.consistent else "inconsistent"
        lines.append(f"family {f.name}: {verdict} (exhaustive: {'yes' if f.exhaustive else 'no'})")
        if f.consistent:
            probs = ", ".join(["%.12g"] * len(f.probabilities)) % tuple(f.probabilities)
            lines.append(f"  probabilities: {probs}")
            lines.append(f"  probability sum: {sum(f.probabilities):.12g}")
        else:
            lines.append(f"  violating pairs ({len(f.violating_pairs)}):")
            if f.violating_pairs:
                lines.append("\n".join([_PAIR_TEXT] * len(f.violating_pairs))
                             % tuple(chain.from_iterable(f.violating_pairs)))
    return "\n".join(lines) + "\n"
