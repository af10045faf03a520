"""The report writers against their definitions: the machine form is
``json.dumps(oracles.report_to_dict(r), indent=2)`` plus a newline, where
``report_to_dict`` rounds each number with round12; the text form is the
line-by-line loop kept here as the reference; and the machine form reads
back equal."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qhist import report as report_module
from qhist.histories import OverlapPairs, check_consistency
from qhist.report import (
    FamilyResult,
    Report,
    _g12_texts,
    _json_texts,
    render_report_machine,
    render_report_text,
    report_from_dict,
    round12,
    run_scenario,
)
from qhist.scenario import build_scenario, builtin_scenario, parse_scenario

import ladder_golden
from ladder_golden import ladder_text

NAN, INF = float("nan"), float("inf")
EDGE_FLOATS = (NAN, INF, -INF, -0.0, 0.0, 1e-05, 1e16, 100000000000.0, 1.0, -2.5e-300)


def pairs_of(rows) -> OverlapPairs:
    """An OverlapPairs from (i, j, re, im) rows. The two parts are set one
    by one, so an infinite part leaves the other one as given."""
    rows = list(rows)
    overlaps = np.empty(len(rows), dtype=complex)
    overlaps.real = [row[2] for row in rows]
    overlaps.imag = [row[3] for row in rows]
    return OverlapPairs(np.array([row[0] for row in rows], dtype=np.int64),
                        np.array([row[1] for row in rows], dtype=np.int64), overlaps)


def probs(*values) -> np.ndarray:
    return np.array(values, dtype=float)


def reference_text(report: Report) -> str:
    lines = [f"scenario: {report.scenario}"]
    for f in report.families:
        verdict = "consistent" if f.consistent else "inconsistent"
        lines.append(f"family {f.name}: {verdict} (exhaustive: {'yes' if f.exhaustive else 'no'})")
        if f.consistent:
            rounded = [round12(p) for p in f.probabilities]
            lines.append(f"  probabilities: {', '.join(f'{p:.12g}' for p in rounded)}")
            lines.append(f"  probability sum: {sum(rounded):.12g}")
        else:
            lines.append(f"  violating pairs ({len(f.violating_pairs)}):")
            for i, j, z in f.violating_pairs:
                lines.append(f"    ({i}, {j}): overlap re={round12(z.real):.12g} "
                             f"im={round12(z.imag):.12g}")
    return "\n".join(lines) + "\n"


def assert_writers_match(report: Report) -> None:
    machine = render_report_machine(report)
    assert machine == json.dumps(oracles.report_to_dict(report), indent=2) + "\n"
    assert render_report_text(report) == reference_text(report)
    assert report_from_dict(json.loads(machine)) == report


@pytest.mark.parametrize("seed", range(6))
def test_writers_match_on_seeded_ladders(seed):
    rng = random.Random(seed)
    doc = parse_scenario(ladder_text(rng, 2 + seed % 5))
    for tol in (1e-10, 1e-3, 0.3):
        report = run_scenario(doc, tol)
        assert_writers_match(report)


def test_a_result_changed_after_run_scenario_is_written_from_its_floats():
    report = run_scenario(parse_scenario(ladder_text(random.Random(3), 3)), 1e-3)
    (f,) = report.families
    pairs = f.violating_pairs
    thirds = replace(
        f, violating_pairs=OverlapPairs(pairs.i, pairs.j, pairs.overlaps / 3),
        probabilities=np.append(f.probabilities / 3, 1 / 3),
    )
    assert thirds.violating_pairs and thirds != f
    assert_writers_match(Report(report.scenario, (thirds, f, replace(thirds, consistent=True))))


def test_writers_match_on_edge_cases():
    names = ('plain', 'quote " inside', "back\\slash", "tab\tand\nnewline", "snow ☃ é", "")
    edges = pairs_of(
        (i, i + 1, re, im)
        for i, (re, im) in enumerate(zip(EDGE_FLOATS, reversed(EDGE_FLOATS)), start=1)
    )
    assert np.isinf(edges.overlaps[8].imag) and edges.overlaps[8].real == 1.0
    # pair indices at the edges of the writer's four-digit chunks, and signs
    chunk_edges = pairs_of([(9, 10, 0.5, -0.25), (9999, 10000, 1e-05, 0.125),
                            (99999999, 100000000, -0.3, 0.7), (1234567890123, 2**63 - 1, 0.1, 0.0),
                            (-1, -10000, 0.2, 0.3), (-(2**63), 0, 0.4, 0.6)])
    families = (
        FamilyResult(names[0], False, True, edges, probs()),
        FamilyResult(names[0], False, True, chunk_edges, probs()),
        FamilyResult(names[1], True, True, pairs_of(()), probs(*EDGE_FLOATS)),
        FamilyResult(names[2], True, False, pairs_of(()), probs()),
        FamilyResult(names[3], False, False, pairs_of([(1, 2, 0.5, -0.25)]), probs(1.0)),
        FamilyResult(names[4], True, True, pairs_of(()), probs(1.0)),
        FamilyResult(names[5], False, True, pairs_of(()), probs()),
    )
    for scenario in names:
        assert_writers_match(Report(scenario, families))
        assert_writers_match(Report(scenario, ()))
    machine = render_report_machine(Report("x", families[:2]))
    assert "NaN" in machine and "-Infinity" in machine and "nan" not in machine


def test_batch_rounding_equals_round12():
    specials = [1e-12, -1e-12, 9.99e-13, -9.99e-13, 0.0, -0.0, NAN, INF, -INF,
                5e-324, -5e-324, 0.1 + 0.2, 1.00000000000049999, 123456789012345.0,
                1e308, -1.7976931348623157e308, 0.99999999999995]
    rng = np.random.default_rng(7)
    randoms = (rng.uniform(-1, 1, 2000) * 10.0 ** rng.integers(-15, 20, 2000)).tolist()
    values = specials + randoms
    texts = _json_texts(np.array(values))
    assert [repr(float(t)) for t in texts] == [repr(round12(x)) for x in values]
    assert _json_texts(np.array([])) == []


def test_json_numbers_equal_json_dumps_of_the_rounded_floats():
    edges = [0.0, -0.0, 1.0, -1.0, 1e11, 1e12, -1e12, 1e15, 1e16, -1e16, 1e-05, NAN, INF, -INF,
             4e-13, -9.99e-13, 5e-324, 12.0, -3.0, 999999999999.5, 9999999999999999.0,
             123456789012345.0, 1.5e12, 2.5e15, 1e100, 1.5e-100, 1e22, 0.0001, 1e-4 * 0.99]
    rng = np.random.default_rng(11)
    randoms = (rng.uniform(-1, 1, 6000) * 10.0 ** rng.integers(-16, 24, 6000)).tolist()
    integers = (rng.integers(-10**6, 10**6, 2000) * 10.0 ** rng.integers(0, 18, 2000)).tolist()
    near_switch = (np.array([1e12, 1e16, 1e-4]).repeat(400)
                   * (1 + rng.uniform(-1e-11, 1e-11, 1200))).tolist()
    values = edges + randoms + integers + near_switch + list(EDGE_FLOATS)
    assert _json_texts(values) == [json.dumps(round12(x)) for x in values]


def machine_numbers(values) -> list[str]:
    """The machine writer's text of each value, read from the probabilities
    array of a family that holds them."""
    report = Report("s", (FamilyResult("f", True, True, pairs_of(()), probs(*values)),))
    array = render_report_machine(report).split('"probabilities": [\n', 1)[1].split("\n      ]", 1)[0]
    return [line.strip().rstrip(",") for line in array.split("\n")]


def nudged(x: float, side: int, sign: float) -> float:
    """x, or its neighbour below or above, with the given sign."""
    return sign * float(np.nextafter(x, side * INF) if side else x)


SIGNS, SIDES = st.sampled_from([1.0, -1.0]), st.sampled_from([-1, 0, 1])
# m + 1/2 in units of the 12th digit of a number of exponent e: the ties of "%.12g"
MIDPOINTS = st.builds(lambda m, e, side, sign: nudged((m + 0.5) * 10.0 ** (e - 11), side, sign),
                      st.integers(10**11, 10**12 - 1), st.integers(-11, -1), SIDES, SIGNS)
POWERS_OF_TEN = st.builds(lambda e, side, sign: nudged(float(f"1e{e}"), side, sign),
                          st.integers(-14, 2), SIDES, SIGNS)


NUMBERS = st.lists(st.one_of(st.floats(), MIDPOINTS, POWERS_OF_TEN), min_size=1, max_size=60)


@settings(max_examples=250, deadline=None)
@given(NUMBERS)
def test_machine_numbers_equal_json_dumps_of_round12(values):
    assert machine_numbers(values) == [json.dumps(round12(x)) for x in values]


@settings(max_examples=250, deadline=None)
@given(NUMBERS)
def test_text_numbers_equal_g12_of_round12(values):
    pairs = pairs_of((k, k + 1, re, im) for k, (re, im) in enumerate(zip(values, reversed(values))))
    report = Report("s", (FamilyResult("p", True, True, pairs_of(()), probs(*values)),
                          FamilyResult("q", False, True, pairs, probs())))
    assert render_report_text(report) == reference_text(report)


def test_the_number_layout_spells_nearly_every_number_of_a_ladder(monkeypatch):
    """Each writer's per-value path (_json_texts, _g12_texts) takes the
    values the layout cannot spell: near-ties, 0.0 and the like, well under
    1% of a ladder's numbers."""
    report = run_scenario(parse_scenario(ladder_text(random.Random(1), 8)))
    spelled = {_json_texts: [], _g12_texts: []}

    def counting(texts):
        def spell(values):
            spelled[texts].append(len(values))
            return texts(values)
        return spell

    monkeypatch.setattr(report_module, "_json_texts", counting(_json_texts))
    machine = render_report_machine(report)
    monkeypatch.setattr(report_module, "_g12_texts", counting(_g12_texts))
    text = render_report_text(report)
    numbers = sum(2 * len(f.violating_pairs) + len(f.probabilities) for f in report.families)
    assert numbers > 30000
    for texts, counts in spelled.items():
        assert sum(counts) > 0, f"a writer no longer sends values through {texts.__name__}"
        assert sum(counts) < 0.01 * numbers, f"{texts.__name__} spells too many numbers"
    assert machine == json.dumps(oracles.report_to_dict(report), indent=2) + "\n"
    assert text == reference_text(report)


def test_family_result_equality_and_replace():
    f = FamilyResult("f", False, True, pairs_of([(1, 2, 0.5, -0.25), (1, 3, 1e-05, 2.0)]),
                     probs(1 / 3))
    variants = [
        f,
        FamilyResult("f", False, True, pairs_of([(1, 2, 0.5 + 1e-14, -0.25), (1, 3, 1e-05, 2.0)]),
                     probs(1 / 3 + 1e-15)),  # the same 12 digits
        replace(f, probabilities=probs(1 / 3 + 1e-9)),
        replace(f, violating_pairs=f.violating_pairs[:1]),
        replace(f, name="g"),
        replace(f, consistent=True),
        replace(f, exhaustive=False),
        replace(f, probabilities=probs(NAN)),
        replace(f, probabilities=probs(NAN)),
        replace(f, probabilities=probs(-0.0)),
        replace(f, probabilities=probs(0.0)),
        replace(f, probabilities=probs(4e-13)),
        replace(f, probabilities=probs(INF)),
    ]
    # equal exactly when the machine form prints them alike
    for a in variants:
        for b in variants:
            alike = render_report_machine(Report("s", (a,))) == render_report_machine(Report("s", (b,)))
            assert (a == b) is alike and (a != b) is not alike
    assert f == variants[1] and f != variants[2] and f != variants[3]
    assert variants[7] == variants[8]  # NaN prints NaN
    assert variants[9] == variants[10] == variants[11]  # all print 0.0
    assert replace(f, consistent=True).violating_pairs is f.violating_pairs  # columns are shared
    assert f != "f" and Report("s", (f,)) == Report("s", (variants[1],))
    with pytest.raises(TypeError):
        hash(f)


def test_run_scenario_carries_the_verdict_columns(monkeypatch):
    verdicts = []

    def recording(family, tol):
        verdicts.append(check_consistency(family, tol))
        return verdicts[-1]

    monkeypatch.setattr(report_module, "check_consistency", recording)
    for doc in (parse_scenario(ladder_text(random.Random(4), 4)), builtin_scenario("eq27-split")):
        (f,) = run_scenario(doc, 1e-3).families
        verdict = verdicts[-1]
        assert f.violating_pairs is verdict.violating_pairs
        if verdict.consistent:
            assert f.probabilities is verdict.probabilities
        else:
            assert f.probabilities.size == 0 and not f.probabilities.flags.writeable
    assert [v.consistent for v in verdicts] == [False, True]
    assert len(verdicts[0].violating_pairs) > 0


def test_len_and_machine_writer_build_no_rows(monkeypatch):
    doc = parse_scenario(ladder_text(random.Random(6), 6))
    verdict = check_consistency(build_scenario(doc).families[0][1], 1e-3)
    report = run_scenario(doc, 1e-3)
    n, machine = len(tuple(verdict.violating_pairs)), render_report_machine(report)
    text = render_report_text(report)

    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(OverlapPairs, "__iter__", no_rows)
    monkeypatch.setattr(OverlapPairs, "__getitem__", no_rows)
    assert len(verdict.violating_pairs) == len(report.families[0].violating_pairs) == n > 0
    assert verdict.violating_pairs and not check_consistency(
        build_scenario(doc).families[0][1], 1.0).violating_pairs
    assert render_report_machine(report) == machine
    assert render_report_text(report) == text


def test_machine_reports_of_seeded_ladders_read_back_equal():
    for case, report in ladder_golden.reports():
        assert report_from_dict(json.loads(render_report_machine(report))) == report, case


def test_ladder_reports_match_their_digests():
    golden = json.loads(ladder_golden.DIGESTS.read_text(encoding="utf-8"))
    assert len(golden) == len(ladder_golden.SEEDS) * len(ladder_golden.TOLS)
    got = ladder_golden.digests()
    assert [case for case in golden if got.get(case) != golden[case]] == []
    assert got.keys() == golden.keys()
