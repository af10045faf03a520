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

A :class:`FamilyResult` keeps the verdict's own columns: the
:class:`~qhist.histories.OverlapPairs` of the check and its float array of
probabilities. Nothing is rounded until a writer runs; the two writers are
the only place that rounds and formats, and neither makes a tuple per pair.
The machine writer spells a family's numbers as json would spell the
rounded floats, in one pass (:func:`_json_texts`), and joins those texts
with the fixed pieces of the layout, so a report of 10^5 pairs costs no
tree of dicts and no pass of :mod:`json`'s pure-Python indenting encoder;
its output stays byte for byte the ``json.dumps(..., indent=2)`` of the
layout above, every number rounded by :func:`round12`, plus a newline. The
text writer fills one ``%.12g`` template per pair with the snapped floats:
``%.12g`` of ``round12(x)`` is ``%.12g`` of ``x`` for every ``|x| >= 1e-12``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .histories import OverlapPairs, check_consistency
from .linalg import EPS_CONS
from .scenario import BuiltScenario, ScenarioDoc, build_scenario


_ZERO_BELOW = 1e-12  # printed magnitudes below this are exact zeros


def round12(x: float) -> float:
    """Round to 12 significant digits; snap noise below 1e-12 to exact zero."""
    x = float(x)
    if abs(x) < _ZERO_BELOW:
        return 0.0
    return float(f"{x:.12g}")


def _snapped(a: np.ndarray) -> np.ndarray:
    """The floats with magnitudes below 1e-12 (and -0.0) made +0.0."""
    return np.where(np.abs(a) < _ZERO_BELOW, 0.0, a)


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
    a = _snapped(np.asarray(values, dtype=float))
    texts = ("%.12g " * a.size % tuple(a.tolist())).split(" ")[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf
        plain = (np.abs(a - np.round(a)) > 1e-11 * np.abs(a)) & (np.abs(a) < 1e11)
    for k in np.flatnonzero(~plain).tolist():
        t = texts[k]
        if "." not in t or "e+1" in t:
            texts[k] = json.dumps(float(t))
    return texts


@dataclass(frozen=True, eq=False)
class FamilyResult:
    """One family's verdict as reported: ``violating_pairs`` is the
    :class:`~qhist.histories.OverlapPairs` that :func:`check_consistency`
    returned and ``probabilities`` its float array, empty when the family is
    inconsistent (a result made by hand passes the same two types). Only the
    writers round the numbers. Two results are equal when the machine form
    prints them alike, so NaN equals NaN and -0.0 equals 0.0 (both print
    0.0). A result is not hashable."""

    name: str
    consistent: bool
    exhaustive: bool
    violating_pairs: OverlapPairs
    probabilities: np.ndarray

    __hash__ = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FamilyResult):
            return NotImplemented
        return "".join(_family_json(self)) == "".join(_family_json(other))


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
        probs = verdict.probabilities if verdict.consistent else verdict.probabilities[:0]
        results.append(FamilyResult(name, verdict.consistent, verdict.exhaustive,
                                    verdict.violating_pairs, probs))
    return Report(built.doc.name, tuple(results))


def _column(rows: list[dict], key: str, dtype) -> np.ndarray:
    return np.fromiter(map(itemgetter(key), rows), dtype, len(rows))


def report_from_dict(data: dict) -> Report:
    families = []
    for f in data["families"]:
        pairs = f["violating_pairs"]
        overlaps = np.empty(len(pairs), dtype=complex)
        overlaps.real = _column(pairs, "re", float)  # re + 1j * im would turn
        overlaps.imag = _column(pairs, "im", float)  # an infinite im into a NaN re
        families.append(FamilyResult(
            name=f["name"],
            consistent=bool(f["consistent"]),
            exhaustive=bool(f["exhaustive"]),
            violating_pairs=OverlapPairs(_column(pairs, "i", np.int64),
                                         _column(pairs, "j", np.int64), overlaps),
            probabilities=np.array(f["probabilities"], dtype=float),
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
    pairs = f.violating_pairs
    n = len(pairs)
    texts = _json_texts(np.concatenate((pairs.overlaps.real, pairs.overlaps.imag, f.probabilities)))
    re, im, probs = texts[:n], texts[n:2 * n], texts[2 * n:]
    pieces = [_FAMILY_HEAD % (json.dumps(f.name), json.dumps(f.consistent), json.dumps(f.exhaustive))]
    if n:
        pieces += _interleave(_int_texts(pairs.i, _PAIR_NEXT, _PAIR_J),
                              _int_texts(pairs.j, "", _PAIR_RE),
                              re, [_PAIR_IM] * n, im)
        pieces[1] = _PAIR_FIRST + pieces[1][len(_PAIR_NEXT):]
        pieces.append(_PAIRS_END)
    else:
        pieces.append("[]")
    pieces.append(_FAMILY_MID)
    pieces.append("[\n        " + ",\n        ".join(probs) + "\n      ]" if probs else "[]")
    pieces.append(_FAMILY_TAIL)
    return pieces


def render_report_machine(report: Report) -> str:
    """The indent=2 ``json.dumps`` of the module docstring's layout, every
    number rounded by :func:`round12`, plus a newline, written directly."""
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
            probs = [round12(p) for p in f.probabilities]
            lines.append("  probabilities: " + ", ".join(["%.12g"] * len(probs)) % tuple(probs))
            lines.append(f"  probability sum: {sum(probs):.12g}")
        else:
            pairs = f.violating_pairs
            lines.append(f"  violating pairs ({len(pairs)}):")
            if pairs:
                values = _interleave(pairs.i.tolist(), pairs.j.tolist(),
                                     _snapped(pairs.overlaps.real).tolist(),
                                     _snapped(pairs.overlaps.imag).tolist())
                lines.append("\n".join([_PAIR_TEXT] * len(pairs)) % tuple(values))
    return "\n".join(lines) + "\n"
