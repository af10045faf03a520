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

Neither writer makes a Python string per number or per pair. Each lays
out a family's pairs, and its probabilities, as one matrix of ASCII bytes,
one row per value: the fixed pieces of the layout are the same bytes in
every row, numpy writes each index and number into its own columns (NUL
where a shorter text leaves room), and one ``bytes.translate`` drops the
NULs. A number 1e-11 <= |x| < 1 of decimal exponent e gets its 12 digits
from rint(s), s = |x| * 10**(11 - e): the scale is an exact double for
e >= -11 and s < 2**40, so s is rounded once, by at most 2**-14, and
rint(s) is the "%.12g" digit string unless s lies within 2**-14 of a
half-integer. Its sign, "0." and leading zeros or its exponent come from
small tables, and its trailing zeros are dropped: the bytes of both
``json.dumps(round12(x))`` and ``"%.12g" % x``, which switch to the
exponent form below 1e-4 alike and do not pad. Every other value goes to
the writer's per-value path: a value with |frac(s) - 1/2| <= 1e-3
(near-ties, with a margin over 2**-14), with s outside [1e11, 1e12 - 1) (a
wrong decade, or digits that round up into the next one), or outside that
range (0.0, 1.0, non-finite values and every value json or "%.12g" spells
otherwise). On seeded ladders that is about 0.2% of the numbers. The
machine writer spells them by :func:`_json_texts`, so its output stays
byte for byte the ``json.dumps(..., indent=2)`` of the layout above, every
number rounded by :func:`round12`, plus a newline; the text writer by
:func:`_g12_texts`, ``"%.12g"`` of ``round12(x)``.
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


def _g12_texts(values) -> list[str]:
    """``"%.12g" % round12(x)`` for every value, in one pass: the text writer's per-value path."""
    a = _snapped(np.asarray(values, dtype=float))
    return ("%.12g " * a.size % tuple(a.tolist())).split(" ")[:-1]


def _json_texts(values) -> list[str]:
    """``json.dumps(round12(x))`` for every value, from one "%.12g" pass:
    the machine writer's path for the values its number layout leaves out.

    Twelve digits survive the round trip through a float, so json's repr of
    a rounded value has its "%.12g" digits; only the layout can differ. It
    does for integral values (repr adds ".0"), for 1e12 <= |x| < 1e16 (repr
    is positional there) and for NaN and the infinities (json's own
    spellings). A value below 1e11 in magnitude and more than 1e-11 of its
    magnitude away from every integer rounds to none of these, so only the
    other values are looked at again: a text with a "." and no "e+1"
    exponent is json's already, and any other goes through json.dumps."""
    a = _snapped(np.asarray(values, dtype=float))
    texts = _g12_texts(a)
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
# with _PAIRS_END.
_FAMILY_HEAD = ('{\n      "name": %s,\n      "consistent": %s,\n'
                '      "exhaustive": %s,\n      "violating_pairs": ')
_FAMILY_MID = ',\n      "probabilities": '
_FAMILY_TAIL = '\n    }'
_PAIR_FIRST = b'[\n        {\n          "i": '
_PAIR_NEXT = b'\n        },\n        {\n          "i": '
_PAIR_J = b',\n          "j": '
_PAIR_RE = b',\n          "re": '
_PAIR_IM = b',\n          "im": '
_PAIRS_END = '\n        }\n      ]'
_PROB_FIRST = b'[\n        '
_PROB_NEXT = b',\n        '
_PROBS_END = '\n      ]'

# The tables of the layout. A table maps k < 10**4 to its four ASCII digits
# as one little-endian word, with the bytes a layout leaves out made NUL. They
# are built from the 100 two-digit words, so that import stays cheap.
_TWO = np.frombuffer("".join(map("{:02d}".format, range(100))).encode(), "<u2").astype(np.uint32)
_FOUR = (_TWO[:, None] | _TWO << 16).ravel()
_K = np.arange(10**4, dtype=np.int16)
_TRAILING_ZEROS = (_K % 10 == 0).astype(np.intp) + (_K % 100 == 0) + (_K % 1000 == 0) + (_K == 0)
_LENGTH = 1 + (_K >= 10).astype(np.intp) + (_K >= 100) + (_K >= 1000)
_FIRST_BYTES = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], np.uint32)  # [n]: the first n bytes
# [k] and, from 10**4 on, [10**4 + k] without trailing or leading zeros
_DIGITS = np.concatenate((_FOUR, _FOUR & _FIRST_BYTES[4 - _TRAILING_ZEROS]))
_INT_DIGITS = np.concatenate((_FOUR, _FOUR & ~_FIRST_BYTES[4 - _LENGTH]))
_THREE_DIGITS = _DIGITS & ~_FIRST_BYTES[1]  # k < 10**3: its "0" first made NUL
# A number's decade index is floor(log10(|x|)) + 12, clipped to 0..11. A
# magnitude 10**e <= |x| < 10**(e + 1) with -11 <= e <= -1 is scaled by the
# exact 10**(11 - e) to 12 digits before the point; index 0 scales to 0.
_SCALES = np.array([0] + [10 ** k for k in range(22, 11, -1)], dtype=float)
# A number is six words. _HEADS[((12 * negative + index) * 10 + first digit)
# * 2 + more than one digit] is two: its sign, "0." and up to three zeros,
# its first digit and the point of the exponential form (index < 8). Then
# come the other 11 digits (3, 4 and 4, trailing zeros dropped) and
# _EXPONENTS[index], "e-" and two digits.
_PREFIXES = np.frombuffer("".join(  # [12 * negative + index]
    ("-" if negative else "\0") + ("0." + "0" * (-1 - e) if e >= -4 else "").ljust(7, "\0")
    for negative in (0, 1) for e in range(-12, 0)).encode(), "<u8")
_HEADS = (_PREFIXES[:, None, None] | (np.arange(ord("0"), ord("9") + 1, dtype=np.uint64) << 48)[:, None]
          | (np.arange(24) % 12 < 8)[:, None, None] * np.array([0, ord(".") << 56], np.uint64)
          ).ravel().astype("<u8")
_EXPONENTS = np.frombuffer("".join(
    f"e-{-e:02d}" if e < -4 else "\0" * 4 for e in range(-12, 0)).encode(), "<u4")
_BLOCK = 4096  # values per pass, so that a pass's temporaries stay small


def _write_numbers(values: np.ndarray, out: np.ndarray, texts) -> None:
    """Write every value into its row of ``out``, six words: the layout's
    bytes, or ``texts(values)`` (the writer's per-value path, see the module
    docstring) for a value it cannot spell or that "%.12g" may round otherwise."""
    x = np.abs(values)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # 0, inf, NaN: not fast
        index = (np.fmin(np.fmax(np.floor(np.log10(x)), -12), -1) + 12).astype(np.intp)
        s = x * _SCALES[index]
        m = np.rint(s)
        fast = (s >= 1e11) & (s < 1e12 - 1) & (np.abs(s - m) < 0.5 - 1e-3)
    m = np.where(fast, m, 1e11).astype(np.int64)
    first = m // 10**11  # // and - take about half the time of np.divmod
    rest = m - first * 10**11
    high = rest // 10**8
    low = rest - high * 10**8
    mid = low // 10**4
    lo = low - mid * 10**4
    heads = _HEADS[((12 * (values < 0) + index) * 10 + first) * 2 + (rest != 0)]
    out[:, :2] = heads.view("<u4").reshape(-1, 2)
    out[:, 2] = _THREE_DIGITS[high + 10**4 * (low == 0)]
    out[:, 3] = _DIGITS[mid + 10**4 * (lo == 0)]
    out[:, 4] = _DIGITS[lo + 10**4]
    out[:, 5] = _EXPONENTS[index]
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = np.array(texts(values[slow]), dtype="S24").view("<u4").reshape(-1, 6)


def _write_ints(values: np.ndarray, out: np.ndarray) -> None:
    """Write the decimal text of every integer into its row of ``out``:
    the digits right-aligned, the sign of a negative value in the first
    byte, which :func:`_ints` keeps free for it."""
    magnitude = np.abs(values).astype(np.uint64)  # abs(-2**63) is -2**63, which reads 2**63 here
    for k in range(out.shape[1]):
        part = magnitude // np.uint64(10 ** (4 * k))
        digits = _INT_DIGITS[(part % 10**4).astype(np.intp) + 10**4 * (part < 10**4)]
        out[:, -1 - k] = np.where(part == 0, 0, digits) if k else digits
    if (values < 0).any():
        out[:, 0] |= np.where(values < 0, ord("-"), 0).astype(np.uint32)


def _numbers(values: np.ndarray, texts) -> tuple:
    return (lambda v, out: _write_numbers(v, out, texts)), values, 6


def _ints(values: np.ndarray) -> tuple:
    digits = len(str(int(np.abs(values).astype(np.uint64).max(initial=0))))
    return _write_ints, values, -(-(digits + bool((values < 0).any())) // 4)


def _rows_text(first: bytes, lead: bytes, *bands) -> str:
    """One row per value of the fields, as one str with the NULs dropped:
    ``lead`` (``first`` in the first row, padded to the length of ``lead``)
    and then the bands. A band is bytes, the same in every row, or a field
    ``(write, values, words)``: ``write(values, out)`` fills the value's
    row of ``out``, that many little-endian 4-byte words. No rows make
    ``first`` without its NULs."""
    row, fields = lead, []
    for band in bands:
        if not isinstance(band, bytes):
            fields.append((band, len(row)))
            band = bytes(4 * band[2])
        row += band
    buf = bytearray(row) * len(fields[0][0][1])
    buf[:len(lead)] = first.ljust(len(lead), b"\0")
    _write_fields(buf, len(row), fields)
    text = buf.translate(None, b"\0")
    del buf  # freed before the text is made
    return text.decode("ascii")


def _write_fields(buf: bytearray, width: int, fields: list) -> None:
    """Fill every field of the rows of ``buf``, _BLOCK rows at a time."""
    n = len(buf) // width
    columns = [np.ndarray((n, words), "<u4", buf, at, (width, 4)) for (_, _, words), at in fields]
    for at in range(0, n, _BLOCK):
        for ((write, values, _), _), out in zip(fields, columns):
            write(values[at:at + _BLOCK], out[at:at + _BLOCK])


def _family_json(f: FamilyResult) -> list[str]:
    pairs, probs = f.violating_pairs, np.asarray(f.probabilities, dtype=float)
    pieces = [_FAMILY_HEAD % (json.dumps(f.name), json.dumps(f.consistent), json.dumps(f.exhaustive))]
    if pairs:
        pieces += [_rows_text(_PAIR_FIRST, _PAIR_NEXT, _ints(pairs.i), _PAIR_J, _ints(pairs.j),
                              _PAIR_RE, _numbers(pairs.overlaps.real, _json_texts), _PAIR_IM,
                              _numbers(pairs.overlaps.imag, _json_texts)), _PAIRS_END]
    else:
        pieces.append("[]")
    pieces.append(_FAMILY_MID)
    if probs.size:
        pieces += [_rows_text(_PROB_FIRST, _PROB_NEXT, _numbers(probs, _json_texts)), _PROBS_END]
    else:
        pieces.append("[]")
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


def render_report_text(report: Report) -> str:
    lines = [f"scenario: {report.scenario}"]
    for f in report.families:
        verdict = "consistent" if f.consistent else "inconsistent"
        lines.append(f"family {f.name}: {verdict} (exhaustive: {'yes' if f.exhaustive else 'no'})")
        if f.consistent:
            probs = np.asarray(f.probabilities, dtype=float)
            lines.append("  probabilities: " + _rows_text(b"", b", ", _numbers(probs, _g12_texts)))
            lines.append(f"  probability sum: {sum(map(round12, probs.tolist())):.12g}")
        else:
            pairs = f.violating_pairs
            lines.append(f"  violating pairs ({len(pairs)}):")
            if pairs:
                lines.append(_rows_text(b"    (", b"\n    (", _ints(pairs.i), b", ", _ints(pairs.j),
                                        b"): overlap re=", _numbers(pairs.overlaps.real, _g12_texts),
                                        b" im=", _numbers(pairs.overlaps.imag, _g12_texts)))
    return "\n".join(lines) + "\n"
