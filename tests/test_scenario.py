import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ladder_golden import ladder_text
from qhist import scenario
from qhist.histories import check_consistency, collapse_family, unitary_family
from qhist.linalg import states_equal_up_to_phase
from qhist.report import (
    render_report_machine,
    render_report_text,
    report_from_dict,
    report_to_dict,
    run_scenario,
)
from qhist.scenario import (
    BUILTIN_SOURCES,
    FamilySpec,
    ParseError,
    ScenarioDoc,
    SegmentSpec,
    ValidationError,
    _split_tokens,
    build_scenario,
    builtin_scenario,
    parse_scenario,
    proposition_projector,
    render_scenario,
)
from qhist.spin import singlet

MINIMAL = """\
[scenario]
name = demo
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0
[family f]
history = z1+
history = z1-
"""


def test_parse_minimal_scenario():
    doc = parse_scenario(MINIMAL)
    assert doc.name == "demo"
    assert doc.spins == 1
    assert doc.times == (0.0, 1.0)
    assert doc.segments == ()
    assert len(doc.families) == 1
    assert len(doc.families[0].histories) == 2


def test_parse_builtin_eq23_structure():
    doc = builtin_scenario("eq23")
    assert doc.spins == 1
    assert doc.segments == ()  # free evolution
    (fam,) = doc.families
    assert len(fam.histories) == 4
    built = build_scenario(doc)
    family = built.family("eq23")
    assert [h.labels for h in family.histories] == [
        ("x1+", "z2+"), ("x1+", "z2-"), ("x1-", "z2+"), ("x1-", "z2-"),
    ]


def test_event_token_with_spaces_inside_direction():
    text = MINIMAL.replace("history = z1+", "history = w(0.7853, 0)1+")
    doc = parse_scenario(text)
    factor = doc.families[0].histories[0][0][0]
    assert factor.direction.theta == pytest.approx(0.7853)
    assert factor.direction.phi == 0.0
    built = build_scenario(doc)
    label = built.families[0][1].histories[0].labels[0]
    assert label == "w(0.7853,0.0)1+"


def test_direction_token_out_of_range_is_canonicalized():
    # theta = 7 names the direction theta = 7 - 2*pi, phi = 0
    doc = parse_scenario(MINIMAL.replace("history = z1+", "history = w(7.0,0.0)1+"))
    direction = doc.families[0].histories[0][0][0].direction
    assert direction.theta == pytest.approx(7.0 - 2 * math.pi, abs=1e-15)
    assert direction.phi == 0.0
    assert parse_scenario(render_scenario(doc)) == doc


def test_two_spellings_of_one_event_give_the_canonical_report():
    canonical = """\
[scenario]
name = spellings
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[schedule]
segment = 0.0 2.0 y 0.9
[family f]
history = w(0.7168146928204138,0.0)1+ z2+
history = w(0.7168146928204138,0.0)1+ z2-
history = w(0.7168146928204138,0.0)1- z2+
history = w(0.7168146928204138,0.0)1- z2-
"""
    mixed = canonical.replace("history = w(0.7168146928204138,0.0)1+ z2+",
                              "history = w(7.0,0.0)1+ z2+")
    assert mixed != canonical
    family = build_scenario(parse_scenario(mixed)).family("f")
    first, second = (h.events[0] for h in family.histories[:2])
    assert first.label == second.label
    reports = [run_scenario(parse_scenario(text)) for text in (mixed, canonical)]
    assert not reports[0].all_consistent and reports[0].families[0].violating_pairs
    assert render_report_machine(reports[0]) == render_report_machine(reports[1])
    assert render_report_text(reports[0]) == render_report_text(reports[1])


def reference_split(text: str) -> list[tuple[str, int]]:
    """The character-by-character splitter that _split_tokens replaced."""
    tokens, cur, start, depth = [], [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch.isspace() and depth == 0:
            if cur:
                tokens.append(("".join(cur), start + 1))
                cur = []
        else:
            if not cur:
                start = i
            cur.append(ch)
    if cur:
        tokens.append(("".join(cur), start + 1))
    return tokens


@pytest.mark.parametrize("text", [
    "", "   ", "x1+ z2-", "  x1+\tz2-  ", "w( 1.1 , 0.3 )1+ z2+",
    "w(\t1.1 ,\t0.3\t)1+\t\tw(2,3)2-  ", "((a b) c) d", "a ((b) c ) (d)e f",
    "a) b", ") ) x1+", "w(1.1, 0.3 x1+ z2+", "a (b (c ) d", "a( b ))( c ) d",
    "x1+ w(1,2)2+   ", "w(1,2 )2+ \t", "a ( b\u00a0c ) d\u2003e", "()() (( )) )(",
])
def test_split_tokens_matches_the_character_loop(text):
    assert _split_tokens(text) == reference_split(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="w1+(),. \t\u2003", max_size=40))
def test_split_tokens_matches_the_character_loop_on_random_text(text):
    assert _split_tokens(text) == reference_split(text)


def test_split_tokens_whitespace_is_str_isspace():
    spaces = "".join(ch for ch in map(chr, range(0x3000 + 1)) if ch.isspace())
    text = "a" + "a".join(spaces) + "(b" + spaces + "c)"
    assert _split_tokens(text) == reference_split(text)


def test_repeated_bad_token_raises_at_its_first_line_and_column():
    text = MINIMAL.replace("history = z1+\nhistory = z1-",
                           "history = z1+\nhistory =  q1+\nhistory = q1+")
    with pytest.raises(ParseError, match="unknown direction") as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (11, 12)


def test_known_token_at_the_wrong_position_raises_where_it_sits():
    text = """\
[scenario]
name = moved
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[family f]
history = x1+ z2+
history = x1- z2-
[family g]
history = z2+   x1+
"""
    with pytest.raises(ValidationError, match="time index 2 but sits at position 1") as err:
        parse_scenario(text)
    assert (err.value.line, err.value.column) == (13, 11)


def test_each_distinct_event_is_rendered_once(monkeypatch):
    rendered = []
    render = scenario.render_event
    monkeypatch.setattr(scenario, "render_event", lambda spec: rendered.append(spec) or render(spec))
    for n in range(1, 7):
        rendered.clear()
        doc = parse_scenario(ladder_text(random.Random(n), n))
        build_scenario(doc)
        render_scenario(doc)
        assert len(rendered) == 2 * n  # one analyzer per time, two signs each


def test_repeated_tokens_share_one_spec_and_one_event(monkeypatch):
    doc = builtin_scenario("eq23")
    rows = doc.families[0].histories
    assert rows[0][0] is rows[1][0] and rows[0][1] is rows[2][1]
    family = build_scenario(doc).family("eq23")
    h = family.histories
    assert h[0].events[0] is h[1].events[0] and h[0].events[1] is h[2].events[1]
    assert [x.labels for x in h] == [
        ("x1+", "z2+"), ("x1+", "z2-"), ("x1-", "z2+"), ("x1-", "z2-"),
    ]
    # two spellings of x1+ are two specs but one event, certified once
    certified = []
    certify = scenario.as_projector
    monkeypatch.setattr(scenario, "as_projector",
                        lambda m, label: certified.append(label) or certify(m, label))
    text = BUILTIN_SOURCES["eq23"].replace("history = x1+ z2-",
                                           "history = w(1.5707963267948966,0.0)1+ z2-")
    doc = parse_scenario(text)
    rows = doc.families[0].histories
    assert rows[0][0] is not rows[1][0] and rows[0][0] == rows[1][0]
    h = build_scenario(doc).family("eq23").histories
    assert h[0].events[0] is h[1].events[0]
    assert [x.labels for x in h] == [
        ("x1+", "z2+"), ("x1+", "z2-"), ("x1-", "z2+"), ("x1-", "z2-"),
    ]
    assert sorted(certified) == ["x1+", "x1-", "z2+", "z2-"]


@pytest.mark.parametrize("name", ["eq26-unitary", "eq29-unitary", "eq30-collapse-x"])
def test_psik_events_are_the_unitary_and_collapse_family_projectors(name):
    built = build_scenario(builtin_scenario(name))
    args = (built.initial_state, built.grid, built.schedule)
    unitary = unitary_family(*args).histories[0].events
    collapse = collapse_family(*args, np.eye(len(built.initial_state))).histories[0].events
    psi = {ev.label: ev for _, fam in built.families for h in fam.histories
           for ev in h.events if ev.label.startswith("psi")}
    assert psi
    for label, ev in psi.items():
        k = ev.time_index
        assert unitary[k - 1].label == label
        assert np.array_equal(ev.projector.matrix, unitary[k - 1].projector.matrix)
        if k < built.grid.n_events:
            assert np.array_equal(ev.projector.matrix, collapse[k - 1].projector.matrix)


TWO_SPINS = (("spins = 1", "spins = 2"), ("named = z+", "named = singlet"))


def _schedule(segment: str) -> tuple[tuple[str, str], ...]:
    return (("[family f]", f"[schedule]\n{segment}\n[family f]"),)


def _token(tok: str) -> tuple[tuple[str, str], ...]:
    return (("history = z1+", f"history = {tok}"),)


# (edits of MINIMAL, error class, message fragment, line, column)
MINIMAL_ERRORS = {
    # event tokens, at the first history line's token
    "not-a-number": (_token("w(a,0)1+"), ParseError, "theta: 'a' is not a number", 10, 11),
    "not-finite": (_token("w(inf,0)1+"), ValidationError, "theta: 'inf' is not finite", 10, 11),
    "unterminated-w": (_token("w(1,0"), ParseError, "unterminated 'w(' direction", 10, 11),
    "no-sign": (_token("z1x"), ParseError, "token 'z1x' must end in a sign", 10, 11),
    "empty-factor": (_token("z1+*"), ParseError, "empty factor in event token 'z1+*'", 10, 11),
    "joined-identity": (_token("1*z1+"), ParseError, "'1' and 'psiK' stand alone", 10, 11),
    "mixed-times": (TWO_SPINS + (("history = z1+\nhistory = z1-", "history = zA1+*xB2+"),),
                    ValidationError, "mixes time indices [1, 2]", 10, 11),
    "bad-psi": (_token("psix"), ParseError, "bad evolved-state token 'psix'", 10, 11),
    "no-time-index": (_token("z+"), ParseError, "token 'z+' needs a time index and a sign",
                      10, 11),
    "bad-state-factor": ((("named = z+", "named = z+1"),), ParseError,
                         "state factor 'z+1' must be <direction><sign>", 6, None),
    # layout
    "unterminated-header": ((("[grid]", "[grid"),), ParseError,
                            "unterminated section header", 7, None),
    "unknown-section": ((("[grid]", "[grids]"),), ParseError, "unknown section [grids]", 7, None),
    "unnamed-family": ((("[family f]", "[family]"),), ParseError,
                       "family section needs a name", 9, None),
    "section-argument": ((("[grid]", "[grid x]"),), ParseError,
                         "section [grid] takes no argument", 7, None),
    "content-before-header": ((("[scenario]", "name = x\n[scenario]"),), ParseError,
                              "content before the first section header", 1, None),
    "no-equals": ((("history = z1-", "history z1-"),), ParseError,
                  "expected 'key = value'", 11, None),
    "single-unknown-key": ((("name = demo", "title = demo"),), ParseError,
                           "unknown key 'title' in [scenario]", 2, None),
    "single-missing-key": ((("name = demo\n", ""),), ParseError,
                           "section [scenario] needs 'name = ...'", 1, None),
    "single-duplicate-key": ((("name = demo", "name = demo\nname = other"),), ParseError,
                             "duplicate 'name' in [scenario]", 3, None),
    "duplicate-section": ((("[family f]", "[grid]\ntimes = 0.0 1.0\n[family f]"),),
                          ParseError, "duplicate section [grid]", 9, None),
    "bad-scenario-name": ((("name = demo", "name = de mo"),), ValidationError,
                          "bad scenario name 'de mo'", 2, None),
    "bad-family-name": ((("[family f]", "[family f[g]"),), ValidationError,
                        "bad family name 'f[g'", 9, None),
    "no-family": ((("[family f]\nhistory = z1+\nhistory = z1-\n", ""),), ParseError,
                  "scenario needs at least one [family <name>] section", 1, None),
    "family-unknown-key": ((("history = z1-", "story = z1-"),), ParseError,
                           "unknown key 'story' in [family f]", 11, None),
    "family-without-histories": ((("history = z1-\n", "history = z1-\n[family g]\n"),),
                                 ParseError, "family 'g' has no histories", 12, None),
    # [state]
    "state-no-entry": ((("named = z+\n", ""),), ParseError,
                       "section [state] needs 'named = ...' or 'amplitudes = ...'", 5, None),
    "state-two-entries": ((("named = z+", "named = z+\nnamed = z-"),), ParseError,
                          "section [state] takes exactly one entry", 7, None),
    "state-unknown-key": ((("named = z+", "state = z+"),), ParseError,
                          "unknown key 'state' in [state]", 6, None),
    "amplitude-count": ((("named = z+", "amplitudes = 1+0j"),), ValidationError,
                        "expected 2 amplitudes for 1 spin(s), got 1", 6, None),
    "bad-amplitude": ((("named = z+", "amplitudes = 1+0j abc"),), ParseError,
                      "bad complex amplitude 'abc'", 6, 19),
    "state-factor-count": ((("named = z+", "named = z+*x-"),), ValidationError,
                           "state 'z+*x-' has 2 factor(s), system has 1 spin(s)", 6, None),
    # [grid]
    "one-time": ((("times = 0.0 1.0", "times = 0.0"),), ValidationError,
                 "grid needs at least two times (t0 and t1)", 8, None),
    "times-not-increasing": ((("times = 0.0 1.0", "times = 1.0 0.0"),), ValidationError,
                             "grid times must be strictly increasing: (1.0, 0.0)", 8, None),
    # [schedule]
    "schedule-unknown-key": (_schedule("segments = 0.0 1.0 y 1.0"), ParseError,
                             "unknown key 'segments' in [schedule]", 10, None),
    "segment-arity": (_schedule("segment = 0.0 1.0 y"), ParseError,
                      "segment needs 't_start t_end axis omega'", 10, None),
    "empty-segment": (_schedule("segment = 1.0 1.0 y 1.0"), ValidationError,
                      "segment interval [1.0, 1.0) is empty", 10, None),
    "bad-axis": (_schedule("segment = 0.0 1.0 yC 1.0"), ParseError,
                 "bad axis token 'yC'", 10, 19),
    "untagged-axis": (TWO_SPINS + _schedule("segment = 0.0 1.0 y 1.0"), ValidationError,
                      "two-spin schedules must tag the axis with A or B", 10, None),
}


@pytest.mark.parametrize("edits, cls, fragment, line, column",
                         MINIMAL_ERRORS.values(), ids=MINIMAL_ERRORS.keys())
def test_each_input_error_names_its_line_and_column(edits, cls, fragment, line, column):
    text = MINIMAL
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(cls) as err:
        parse_scenario(text)
    assert type(err.value) is cls
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (line, column)


def test_build_maps_family_errors_to_validation_errors():
    # a hand-made document can repeat a row, which the parser rejects
    doc = parse_scenario(MINIMAL)
    (fam,) = doc.families
    repeated = replace(doc, families=(FamilySpec(fam.name, fam.histories[:1] * 2),))
    with pytest.raises(ValidationError, match=r"family 'f': duplicate history \('z1\+',\)"):
        build_scenario(repeated)


PRODUCT_STATE = MINIMAL.replace("spins = 1", "spins = 2").replace(
    "named = z+", "named = z+*x-").split("[family f]")[0]


@pytest.mark.parametrize("first, second, expected", [
    ("z", "x", (0.0, 1.0, 0.0, 0.0)),
    ("x", "z", (0.25, 0.25, 0.25, 0.25)),
])
def test_two_spin_product_state(first, second, expected):
    rows = [f"{first}A1{a}*{second}B1{b}" for a in "+-" for b in "+-"]
    text = PRODUCT_STATE + "[family f]\n" + "".join(f"history = {r}\n" for r in rows)
    built = build_scenario(parse_scenario(text))
    psi0 = np.kron(oracles.ZP, oracles.XM)
    assert states_equal_up_to_phase(built.initial_state, psi0)
    kets = {("z", "+"): oracles.ZP, ("z", "-"): oracles.ZM,
            ("x", "+"): oracles.XP, ("x", "-"): oracles.XM}
    oracle = [abs(np.vdot(np.kron(kets[first, a], kets[second, b]), psi0)) ** 2
              for a in "+-" for b in "+-"]
    report = check_consistency(built.family("f"))
    assert report.consistent
    assert np.allclose(report.probabilities, oracle, rtol=0, atol=1e-12)
    assert np.allclose(report.probabilities, expected, rtol=0, atol=1e-12)


def test_build_maps_segment_errors_to_validation_errors():
    doc = parse_scenario(MINIMAL)
    bad = ScenarioDoc(doc.name, doc.spins, doc.state, doc.times,
                      (SegmentSpec(1.0, 1.0, doc.families[0].histories[0][0][0].direction,
                                   "", 1.0),),
                      doc.families)
    with pytest.raises(ValidationError, match="empty"):
        build_scenario(bad)


def test_bad_time_index_names_the_index():
    text = """\
[scenario]
name = bad
[system]
spins = 1
[state]
named = z+
[grid]
times = 0.0 1.0 2.0
[family f]
history = x9+ z2+
"""
    with pytest.raises(ValidationError, match="time index 9") as err:
        parse_scenario(text)
    assert err.value.line == 10


def test_wrong_event_count_is_rejected():
    text = MINIMAL.replace("history = z1+", "history = z1+ z1+")
    with pytest.raises(ValidationError, match="2 events"):
        parse_scenario(text)


def test_missing_section_is_a_parse_error():
    with pytest.raises(ParseError, match=r"\[state\]"):
        parse_scenario("[scenario]\nname = x\n[system]\nspins = 1\n")


def test_unknown_direction_reports_expected_tokens():
    text = MINIMAL.replace("history = z1+", "history = q1+")
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert "w(theta,phi)" in err.value.expected
    assert err.value.line == 10
    assert err.value.column == 11


def test_non_normalized_amplitudes_rejected():
    text = MINIMAL.replace("named = z+", "amplitudes = 1.0+0.0j 1.0+0.0j")
    with pytest.raises(ValidationError, match="not normalized"):
        parse_scenario(text)


def test_non_finite_amplitudes_rejected():
    for amps in ("nan+0j 0+0j", "1+0j 0+infj"):
        text = MINIMAL.replace("named = z+", f"amplitudes = {amps}")
        with pytest.raises(ValidationError, match="not finite") as info:
            parse_scenario(text)
        assert info.value.line is not None and info.value.column is not None


def test_amplitude_state_round_trips_and_builds():
    amp = 1.0 / math.sqrt(2.0)
    text = MINIMAL.replace(
        "named = z+", f"amplitudes = {amp!r}+0.0j 0.0-{amp!r}j"
    )
    doc = parse_scenario(text)
    assert parse_scenario(render_scenario(doc)) == doc
    built = build_scenario(doc)
    expected = np.array([amp, -1j * amp])
    assert states_equal_up_to_phase(built.initial_state, expected)


def test_singlet_state_requires_two_spins():
    text = MINIMAL.replace("named = z+", "named = singlet")
    with pytest.raises(ValidationError, match="two-spin"):
        parse_scenario(text)


def test_two_spin_events_need_subsystem_tags():
    text = """\
[scenario]
name = bad
[system]
spins = 2
[state]
named = singlet
[grid]
times = 0.0 1.0
[family f]
history = z1+
"""
    with pytest.raises(ValidationError, match="subsystem"):
        parse_scenario(text)


def test_one_spin_events_reject_subsystem_tags():
    text = MINIMAL.replace("history = z1+", "history = zA1+")
    with pytest.raises(ValidationError, match="two-spin"):
        parse_scenario(text)


def test_duplicate_family_name_rejected():
    text = MINIMAL + "[family f]\nhistory = z1+\n"
    with pytest.raises(ValidationError, match="duplicate family"):
        parse_scenario(text)


def test_duplicate_history_rejected():
    text = MINIMAL + "history = z1-\n"
    with pytest.raises(ValidationError, match="duplicate history"):
        parse_scenario(text)


def test_repeated_subsystem_in_token_rejected():
    text = """\
[scenario]
name = bad
[system]
spins = 2
[state]
named = singlet
[grid]
times = 0.0 1.0
[family f]
history = zA1+*xA1+
"""
    with pytest.raises(ValidationError, match="subsystem twice"):
        parse_scenario(text)


def test_schedule_parsing_and_build():
    doc = builtin_scenario("eq23-field-fix")
    (seg,) = doc.segments
    assert seg.omega == pytest.approx(math.pi / 2)
    assert (seg.t_start, seg.t_end) == (0.0, 2.0)
    built = build_scenario(doc)
    (segment,) = built.schedule.segments
    assert np.allclose(segment.hamiltonian, (math.pi / 2) * oracles.SY, atol=1e-12)


def test_schedule_axis_subsystem_rules():
    base = MINIMAL.replace("[family f]", "[schedule]\nsegment = 0.0 1.0 yA 1.0\n[family f]")
    with pytest.raises(ValidationError, match="two-spin"):
        parse_scenario(base)


def test_overlapping_segments_rejected():
    base = MINIMAL.replace(
        "[family f]",
        "[schedule]\nsegment = 0.0 1.0 y 1.0\nsegment = 0.5 2.0 y 1.0\n[family f]",
    )
    with pytest.raises(ValidationError, match="overlapping"):
        parse_scenario(base)


def test_empty_schedule_section_means_free_evolution():
    text = MINIMAL.replace("[family f]", "[schedule]\n[family f]")
    doc = parse_scenario(text)
    assert doc.segments == ()
    assert parse_scenario(render_scenario(doc)) == doc
    assert build_scenario(doc).schedule.segments == ()


def test_crlf_input_parses():
    doc = parse_scenario(MINIMAL.replace("\n", "\r\n"))
    assert doc.name == "demo"


def test_builtin_catalog():
    names = list(BUILTIN_SOURCES)
    assert len(names) >= 12
    expected = {
        "eq10-born", "eq23", "eq23-identity-fix", "eq23-field-fix",
        "eq25-random-directions", "eq26-unitary", "eq27-split", "eq28-sixteen",
        "eq29-unitary", "eq30-collapse-x", "cat-analogue", "chsh-demo",
    }
    assert expected <= set(names)
    with pytest.raises(ValidationError, match="no built-in"):
        builtin_scenario("nope")


def test_round_trip_on_all_builtins():
    for name, source in BUILTIN_SOURCES.items():
        doc = parse_scenario(source)
        assert doc.name == name
        rendered = render_scenario(doc)
        assert parse_scenario(rendered) == doc
        # rendering the reparse is also stable
        assert render_scenario(parse_scenario(rendered)) == rendered


def test_builtin_singlet_state_builds_correctly():
    built = build_scenario(builtin_scenario("eq27-split"))
    assert np.allclose(built.initial_state, singlet())


def test_psi_tokens_follow_the_schedule():
    built = build_scenario(builtin_scenario("eq29-unitary"))
    fam = built.families[0][1]
    for k, ev in enumerate(fam.histories[0].events, start=1):
        expected = oracles.rotation_y((math.pi / 2) * k) @ oracles.ZP
        assert np.allclose(ev.projector.matrix, oracles.proj(expected), atol=1e-12)


def test_run_scenario_eq23_report():
    report = run_scenario(builtin_scenario("eq23"))
    assert report.scenario == "eq23"
    (fam,) = report_to_dict(report)["families"]
    assert not fam["consistent"]
    assert fam["exhaustive"]
    assert [(p["i"], p["j"]) for p in fam["violating_pairs"]] == [(1, 3), (2, 4)]
    assert fam["probabilities"] == []  # meaningless for an inconsistent family


def test_run_scenario_eq27_probabilities():
    report = run_scenario(builtin_scenario("eq27-split"))
    (fam,) = report_to_dict(report)["families"]
    assert fam["consistent"]
    assert fam["probabilities"] == [0.5, 0.5]  # as printed


def test_run_scenario_field_fix_probabilities():
    report = run_scenario(builtin_scenario("eq23-field-fix"))
    (fam,) = report_to_dict(report)["families"]
    assert fam["consistent"]
    assert fam["probabilities"] == [0.0, 1.0, 0.0, 0.0]  # as printed


def test_run_scenario_eq28_violations_share_final_events():
    built = build_scenario(builtin_scenario("eq28-sixteen"))
    fam = built.families[0][1]
    report = check_consistency(fam)
    assert not report.consistent
    labels = [h.labels for h in fam.histories]
    for i, j, _ in report.violating_pairs:
        assert labels[i - 1][1] == labels[j - 1][1]  # same final event
    # the four histories ending in zA2-*xB2- interfere pairwise
    ending = [k + 1 for k, lab in enumerate(labels) if lab[1] == "zA2-*xB2-"]
    assert ending == [4, 8, 12, 16]
    found = {(i, j) for i, j, _ in report.violating_pairs}
    for a in range(len(ending)):
        for b in range(a + 1, len(ending)):
            assert (ending[a], ending[b]) in found


def test_tolerance_override_relaxes_verdict():
    report = run_scenario(builtin_scenario("eq23"), tol=0.5)
    assert report.families[0].consistent


def test_machine_report_round_trip():
    import json

    report = run_scenario(builtin_scenario("eq23"))
    text = render_report_machine(report)
    assert report_from_dict(json.loads(text)) == report
    assert json.loads(text) == report_to_dict(report)


def test_reports_are_deterministic():
    blobs = {
        render_report_machine(run_scenario(builtin_scenario("eq28-sixteen")))
        for _ in range(5)
    }
    assert len(blobs) == 1


def test_proposition_projector_resolution():
    built = build_scenario(builtin_scenario("cat-analogue"))
    proj, time_index = proposition_projector(built, "x1+")
    assert time_index == 1
    assert np.allclose(proj.matrix, oracles.proj(oracles.XP), atol=1e-12)
    with pytest.raises(ValidationError, match="identity"):
        proposition_projector(built, "1")
    with pytest.raises(ValidationError, match="time index"):
        proposition_projector(built, "x7+")
