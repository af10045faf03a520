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

A :class:`FamilyResult` keeps its numbers once, as columns: the pair
indices as int arrays and every number as the text the machine form prints
for it, json's spelling of the rounded float (see :func:`_json_texts`).
Floats are made only when a caller reads ``violating_pairs`` or
``probabilities``.

Both writers read the columns and make no tuple per pair. The machine
writer joins the kept texts with the fixed pieces of the layout in one pass,
so a report of 10^5 pairs costs no tree of dicts, no pass of :mod:`json`'s
pure-Python indenting encoder and no number formatted twice; its output
stays byte for byte ``json.dumps(report_to_dict(r), indent=2)`` plus a
newline. The text writer fills one ``%.12g`` template per pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .histories import Columns, check_consistency
from .linalg import EPS_CONS
from .scenario import BuiltScenario, ScenarioDoc, build_scenario


_ZERO_BELOW = 1e-12  # printed magnitudes below this are exact zeros


def round12(x: float) -> float:
    """Round to 12 significant digits; snap noise below 1e-12 to exact zero."""
    x = float(x)
    if abs(x) < _ZERO_BELOW:
        return 0.0
    return float(f"{x:.12g}")


def _json_texts(values) -> list[str]:
    """``json.dumps(round12(x))`` for every value, from one "%.12g" pass.

    Twelve digits survive the round trip through a float, so json's repr of
    a rounded value has its "%.12g" digits; only the layout can differ. It
    does for integral values (repr adds ".0"), for 1e12 <= |x| < 1e16 (repr
    is positional there) and for NaN and the infinities (json's own
    spellings). A value below 1e11 in magnitude and more than 1e-11 of its
    magnitude away from every integer rounds to none of these, so only the
    other values are looked at again: a text with a "." and no "e+1"
    exponent is json's already, and any other goes through json.dumps."""
    a = np.asarray(values, dtype=float)
    a = np.where(np.abs(a) < _ZERO_BELOW, 0.0, a)  # also turns -0.0 into +0.0
    texts = ("%.12g " * a.size % tuple(a.tolist())).split(" ")[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf
        plain = (np.abs(a - np.round(a)) > 1e-11 * np.abs(a)) & (np.abs(a) < 1e11)
    for k in np.flatnonzero(~plain).tolist():
        t = texts[k]
        if "." not in t or "e+1" in t:
            texts[k] = json.dumps(float(t))
    return texts


def _dumps_all(values) -> list[str]:
    """json.dumps(float(x)) for every value: a finite float's repr, or json's
    spelling of NaN and the infinities (for which x - x is not 0)."""
    return [repr(x) if x - x == 0 else json.dumps(x) for x in map(float, values)]


class ReportedPairs(Columns):
    """A report's violating pairs: 1-based int arrays ``i`` and ``j``, and
    the lists ``re`` and ``im`` of the texts the machine form prints for the
    overlaps' parts. It reads as the sequence of (i, j, re, im) tuples of
    ints and floats; the floats are parsed from the texts when read."""

    __slots__ = ("i", "j", "re", "im")

    def __init__(self, i: np.ndarray, j: np.ndarray, re: list[str], im: list[str]):
        self.i, self.j, self.re, self.im = i, j, re, im

    def __iter__(self):
        return zip(self.i.tolist(), self.j.tolist(), map(float, self.re), map(float, self.im))

    @classmethod
    def from_rows(cls, rows) -> ReportedPairs:
        """From (i, j, re, im) rows; each number is kept as json.dumps(float(x))."""
        rows = list(rows)
        i, j, re, im = zip(*rows) if rows else ((),) * 4
        return cls(np.array(i, dtype=np.int64), np.array(j, dtype=np.int64),
                   _dumps_all(re), _dumps_all(im))


class ReportedNumbers(Columns):
    """A report's probabilities: the list ``texts`` of what the machine form
    prints for each. It reads as the sequence of floats parsed from them."""

    __slots__ = ("texts",)

    def __init__(self, texts: list[str]):
        self.texts = texts

    def __iter__(self):
        return map(float, self.texts)


@dataclass(frozen=True)
class FamilyResult:
    """One family's verdict as reported.

    ``violating_pairs`` and ``probabilities`` are :class:`ReportedPairs` and
    :class:`ReportedNumbers`. The constructor (and so ``dataclasses.replace``)
    also takes any sequence of (i, j, re, im) rows and any sequence of
    numbers, and keeps each number as ``json.dumps(float(x))``, the text the
    machine form then prints.

    Two results are equal when the machine form would print them alike:
    equal names, flags and pair indices, and equal texts for every number.
    So NaN equals NaN, and -0.0 differs from 0.0. The repr is the
    constructor call with the pairs and probabilities as tuples. A result
    is not hashable."""

    name: str
    consistent: bool
    exhaustive: bool
    violating_pairs: ReportedPairs
    probabilities: ReportedNumbers

    def __post_init__(self):
        if not isinstance(self.violating_pairs, ReportedPairs):
            object.__setattr__(self, "violating_pairs", ReportedPairs.from_rows(self.violating_pairs))
        if not isinstance(self.probabilities, ReportedNumbers):
            object.__setattr__(self, "probabilities", ReportedNumbers(_dumps_all(self.probabilities)))


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
        pairs = verdict.violating_pairs
        n = len(pairs)
        probs = verdict.probabilities if verdict.consistent else ()
        texts = _json_texts(np.concatenate((pairs.overlaps.real, pairs.overlaps.imag, probs)))
        results.append(FamilyResult(
            name, verdict.consistent, verdict.exhaustive,
            ReportedPairs(pairs.i, pairs.j, texts[:n], texts[n:2 * n]),
            ReportedNumbers(texts[2 * n:]),
        ))
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
    families = []
    for f in data["families"]:
        pairs = f["violating_pairs"]
        families.append(FamilyResult(
            name=f["name"],
            consistent=bool(f["consistent"]),
            exhaustive=bool(f["exhaustive"]),
            violating_pairs=ReportedPairs(
                np.array([p["i"] for p in pairs], dtype=np.int64),
                np.array([p["j"] for p in pairs], dtype=np.int64),
                _dumps_all([p["re"] for p in pairs]),
                _dumps_all([p["im"] for p in pairs]),
            ),
            probabilities=f["probabilities"],
        ))
    return Report(data["scenario"], tuple(families))


# Pieces of the indent=2 layout. A family is written as _FAMILY_HEAD, its
# pairs array, _FAMILY_MID, its probabilities array and _FAMILY_TAIL. A pair
# is written as its lead (_PAIR_FIRST for the first pair, _PAIR_NEXT for the
# others), i, _PAIR_J, j, _PAIR_RE, re, _PAIR_IM and im, and the array ends
# with _PAIRS_END; the pieces around i and j are attached to the text of
# each distinct index. The document is joined from these pieces and the
# columns' texts once, so the text of a large pairs array is copied once.
_FAMILY_HEAD = ('{\n      "name": %s,\n      "consistent": %s,\n'
                '      "exhaustive": %s,\n      "violating_pairs": ')
_FAMILY_MID = ',\n      "probabilities": '
_FAMILY_TAIL = '\n    }'
_PAIR_FIRST = '[\n        {\n          "i": '
_PAIR_NEXT = '\n        },\n        {\n          "i": '
_PAIR_J = ',\n          "j": '
_PAIR_RE = ',\n          "re": '
_PAIR_IM = ',\n          "im": '
_PAIRS_END = '\n        }\n      ]'


def _interleave(*columns) -> list:
    """The columns' elements row by row, as one flat list: no tuple per row.
    The first column must be a list; the others may be any iterables of its
    length."""
    flat = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        flat[k::len(columns)] = column
    return flat


def _int_texts(values: np.ndarray, before: str, after: str) -> list[str]:
    """before + str(v) + after for every value v; each distinct value is
    converted once."""
    distinct, where = np.unique(values, return_inverse=True)
    return np.array([before + str(v) + after for v in distinct.tolist()], dtype=object)[where].tolist()


def _family_json(f: FamilyResult) -> list[str]:
    pairs, probs = f.violating_pairs, f.probabilities.texts
    pieces = [_FAMILY_HEAD % (json.dumps(f.name), json.dumps(f.consistent), json.dumps(f.exhaustive))]
    n = len(pairs)
    if n:
        pieces += _interleave(_int_texts(pairs.i, _PAIR_NEXT, _PAIR_J),
                              _int_texts(pairs.j, "", _PAIR_RE),
                              pairs.re, [_PAIR_IM] * n, pairs.im)
        pieces[1] = _PAIR_FIRST + pieces[1][len(_PAIR_NEXT):]
        pieces.append(_PAIRS_END)
    else:
        pieces.append("[]")
    pieces.append(_FAMILY_MID)
    pieces.append("[\n        " + ",\n        ".join(probs) + "\n      ]" if probs else "[]")
    pieces.append(_FAMILY_TAIL)
    return pieces


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
            probs = tuple(f.probabilities)
            lines.append("  probabilities: " + ", ".join(["%.12g"] * len(probs)) % probs)
            lines.append(f"  probability sum: {sum(probs):.12g}")
        else:
            pairs = f.violating_pairs
            lines.append(f"  violating pairs ({len(pairs)}):")
            if pairs:
                values = _interleave(pairs.i.tolist(), pairs.j.tolist(),
                                     map(float, pairs.re), map(float, pairs.im))
                lines.append("\n".join([_PAIR_TEXT] * len(pairs)) % tuple(values))
    return "\n".join(lines) + "\n"
