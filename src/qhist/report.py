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
plus a newline. A report from :func:`run_scenario` also carries the 12-digit
text it rounded every number through, which the machine form prints in
:mod:`json`'s spelling (see :func:`_json_numbers`) instead of formatting each
float again; any other report is written from its floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def _round12_all(values) -> str:
    """The "%.12g" text of round12 of every value, each followed by a space
    (NaN and infinities pass through); float() of a text is that value."""
    a = np.asarray(values, dtype=float)
    a = np.where(np.abs(a) < _ZERO_BELOW, 0.0, a)  # also turns -0.0 into +0.0
    return "%.12g " * a.size % tuple(a.tolist())


@dataclass(frozen=True)
class FamilyResult:
    name: str
    consistent: bool
    exhaustive: bool
    violating_pairs: tuple[tuple[int, int, float, float], ...]
    probabilities: tuple[float, ...]
    # set by run_scenario: the _round12_all text of every pair's re, then
    # every pair's im, then every probability
    _texts: str | None = field(default=None, init=False, compare=False, repr=False)


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
        texts = _round12_all(np.concatenate((overlaps.real, overlaps.imag, probs)))
        rounded = list(map(float, texts.split()))
        result = FamilyResult(
            name=name,
            consistent=verdict.consistent,
            exhaustive=verdict.exhaustive,
            violating_pairs=tuple(zip(i, j, rounded[:n], rounded[n:2 * n])),
            probabilities=tuple(rounded[2 * n:]),
        )
        object.__setattr__(result, "_texts", texts)
        results.append(result)
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


# Pieces of the indent=2 layout; every %s takes an int or json's text of a
# value (see _json_numbers). A family is written as _FAMILY_HEAD, its pairs
# array, _FAMILY_MID, its probabilities array and _FAMILY_TAIL, and the
# document is joined from such pieces once, so the text of a large pairs
# array is copied into the report once.
_PAIR_JSON = ('{\n          "i": %s,\n          "j": %s,\n'
              '          "re": %s,\n          "im": %s\n        }')
_FAMILY_HEAD = ('{\n      "name": %s,\n      "consistent": %s,\n'
                '      "exhaustive": %s,\n      "violating_pairs": ')
_FAMILY_MID = ',\n      "probabilities": '
_FAMILY_TAIL = '\n    }'


def _json_numbers(texts: list[str]) -> list[str]:
    """For each "%.12g" text t, what json.dumps prints for float(t).

    Twelve digits survive the round trip through a float, so json's repr
    has t's digits; only the layout can differ. It does for integral values
    (repr adds ".0"), for 1e12 <= |x| < 1e16 (repr is positional there) and
    for NaN and the infinities (json's own spellings). A text with a "." and
    no "e+1" exponent is none of these, and is already what json prints; any
    other text is handed to json.dumps."""
    return [t if "." in t and "e+1" not in t else json.dumps(float(t)) for t in texts]


def _columns(f: FamilyResult) -> tuple:
    """Every pair's re, then every pair's im, then every probability: the
    order in which run_scenario rounds them (and keeps their texts)."""
    pairs = f.violating_pairs
    return (*(p[2] for p in pairs), *(p[3] for p in pairs), *f.probabilities)


def _pair_values(pairs, re, im) -> tuple:
    """i, j, re, im of every pair in turn, with re and im from the columns given."""
    return tuple(chain.from_iterable(zip([p[0] for p in pairs], [p[1] for p in pairs], re, im)))


def _json_array(template: str, values: tuple, n: int, depth: int) -> list[str]:
    """A JSON array of n elements, each ``template`` filled from ``values`` in
    turn, laid out the way json.dumps(indent=2) lays out an array that sits
    at nesting ``depth``; returned as pieces for the caller to join."""
    if not n:
        return ["[]"]
    inner = "\n" + "  " * (depth + 1)
    return [f"[{inner}", f",{inner}".join([template] * n) % values, "\n" + "  " * depth + "]"]


def _family_json(f: FamilyResult) -> list[str]:
    n = len(f.violating_pairs)
    if f._texts is None:
        numbers = [json.dumps(v) for v in _columns(f)]
    else:
        numbers = _json_numbers(f._texts.split())
    probs = tuple(numbers[2 * n:])
    return [
        _FAMILY_HEAD % (json.dumps(f.name), json.dumps(f.consistent), json.dumps(f.exhaustive)),
        *_json_array(_PAIR_JSON, _pair_values(f.violating_pairs, numbers[:n], numbers[n:2 * n]),
                     n, 3),
        _FAMILY_MID,
        *_json_array("%s", probs, len(probs), 3),
        _FAMILY_TAIL,
    ]


def render_report_machine(report: Report) -> str:
    """``json.dumps(report_to_dict(report), indent=2) + "\n"``, written directly."""
    pieces = ['{\n  "scenario": ', json.dumps(report.scenario), ',\n  "families": ']
    for k, f in enumerate(report.families):
        pieces.append(",\n    " if k else "[\n    ")
        pieces += _family_json(f)
    pieces.append("\n  ]\n}\n" if report.families else "[]\n}\n")
    return "".join(pieces)


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
