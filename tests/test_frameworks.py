import math
import warnings

import numpy as np
import pytest

import oracles
from qhist import frameworks
from qhist.dynamics import Schedule, TimeGrid
from qhist.frameworks import (
    IncompatibleFrameworks,
    IncompatibleProperties,
    Proposition,
    conjunction,
    query,
    refine,
)
from qhist.histories import (
    QueryOnInconsistentFamily,
    check_consistency,
    collapse_family,
    family_from_event_table,
    replace_events_with_identity,
)
from qhist.linalg import (
    EPS_CONS,
    EPS_OP,
    Projector,
    as_projector,
    commutes,
    identity_projector,
    max_abs,
    projector_onto,
    tensor,
)
from qhist.scenario import (
    BUILTIN_SOURCES,
    build_scenario,
    builtin_scenario,
    parse_scenario,
    proposition_projector,
)
from qhist.spin import Direction, X, Y, Z, basis_for, spin_projector

GRID2 = TimeGrid((0.0, 1.0))
GRID3 = TimeGrid((0.0, 1.0, 2.0))
FREE2 = Schedule.free(2)


def frame_family(direction, grid=GRID2, labels=None):
    b = basis_for(direction)
    labels = labels or ("p", "m")
    return collapse_family(oracles.ZP, grid, FREE2, [b.plus, b.minus], labels)


def prop(direction, sign, time_index, label=""):
    return Proposition(spin_projector(direction, sign, label), time_index)


def test_a_proposition_is_an_event_labelled_by_its_projector():
    import qhist
    from qhist.histories import Event

    assert Proposition is Event
    assert not hasattr(qhist, "event")
    x_plus = prop(X, +1, 1, "x+")
    assert x_plus.label == x_plus.projector.label == "x+"
    assert conjunction(x_plus, x_plus).label == "x+"
    rows = [[("x1+", spin_projector(X, +1, "x+"))], [("x1-", spin_projector(X, -1, "x-"))]]
    fam = family_from_event_table(oracles.ZP, GRID2, FREE2, rows)
    assert [h.events[0].projector.label for h in fam.histories] == ["x1+", "x1-"]
    for _, built in build_scenario(builtin_scenario("eq28-sixteen")).families:
        assert all(ev.label == ev.projector.label for h in built.histories for ev in h.events)


def test_query_within_framework():
    result = query(frame_family(X), prop(X, +1, 1, "x+"))
    assert result.meaningful
    assert result.probability == pytest.approx(0.5, abs=EPS_CONS)


def test_query_incompatible_axis_is_meaningless():
    result = query(frame_family(X), prop(Y, +1, 1, "y+"))
    assert not result.meaningful
    assert "commute" in result.reason


def test_query_x_property_in_z_framework():
    result = query(frame_family(Z), prop(X, +1, 1, "x+"))
    assert not result.meaningful
    assert "commute" in result.reason


def test_query_identity_is_certain():
    fam = frame_family(X, GRID3)
    for k in (1, 2):
        result = query(fam, Proposition(identity_projector(2), k))
        assert result.probability == pytest.approx(1.0, abs=EPS_CONS)


def test_query_identity_on_support_limited_family():
    built = build_scenario(builtin_scenario("eq27-split"))
    fam = built.family("eq27")
    result = query(fam, Proposition(identity_projector(4), 1))
    assert result.probability == pytest.approx(1.0, abs=EPS_CONS)


def test_query_branch_projector_on_two_spin_family():
    built = build_scenario(builtin_scenario("eq27-split"))
    fam = built.family("eq27")
    branch = as_projector(
        tensor(oracles.proj(oracles.ZP), oracles.proj(oracles.ZM)), "zA+zB-"
    )
    result = query(fam, Proposition(branch, 1))
    assert result.probability == pytest.approx(0.5, abs=EPS_CONS)


def test_query_union_of_events():
    # [x+] at the final time of the coarse x framework on a 3-time grid
    fam = frame_family(X, GRID3, ("x2+", "x2-"))
    result = query(fam, prop(X, +1, 2, "x+"))
    assert result.probability == pytest.approx(0.5, abs=EPS_CONS)
    # the psi event at t1 absorbs the initial state fully
    result = query(fam, Proposition(projector_onto(oracles.ZP, "z+"), 1))
    assert result.probability == pytest.approx(1.0, abs=EPS_CONS)


def test_query_splitting_projector_is_meaningless():
    # a rank-1 projector that commutes with I but covers neither branch fully
    fam = frame_family(Z, GRID3, ("z2+", "z2-"))
    tilted = spin_projector(Direction(0.3, 0.0), +1, "tilted")
    result = query(fam, Proposition(tilted, 1))
    assert not result.meaningful


def test_query_splitting_a_scenario_event_is_meaningless():
    # z2+ covers half of the identity event at t2, so eq23-identity-fix,
    # which says nothing at t2, has no answer for it
    built = build_scenario(builtin_scenario("eq23-identity-fix"))
    projector, time_index = proposition_projector(built, "z2+")
    result = query(built.family("eq23-identity-fix"), Proposition(projector, time_index))
    assert not result.meaningful and result.probability is None
    assert result.reason.startswith("projector 'z2+' splits event '1' at time 2")


def test_query_with_an_uncertified_huge_projector_is_meaningless_without_a_warning():
    # a Projector only coerces its matrix; entries near 1e200 make [P, E]
    # huge, and entries near 1e308 make P E overflow to inf and [P, E] NaN
    fam = frame_family(Direction(math.pi / 4, 0.0))
    for scale in (1e200, 1.7e308):
        big = Proposition(Projector(np.full((2, 2), scale), "big"), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = query(fam, big)
        assert not result.meaningful
        assert result.reason == "projector 'big' does not commute with event 'p' at time 1"


def test_query_reports_a_split_before_a_later_event_that_does_not_commute():
    # at t1 the family branches into zA+ (x) 1, which |zA+ zB+> splits, and
    # zA- (x) xB+, which |zA- zB-> does not commute with; the two events do
    # not sum to the identity, but they exhaust |zA+ zB+>
    first = as_projector(tensor(oracles.proj(oracles.ZP), np.eye(2)), "a+")
    second = as_projector(tensor(oracles.proj(oracles.ZM), oracles.proj(oracles.XP)), "b")
    fam = family_from_event_table(np.kron(oracles.ZP, oracles.ZP), GRID2, Schedule.free(4),
                                  [[("a+", first)], [("b", second)]])
    both = tensor(oracles.proj(oracles.ZP), oracles.proj(oracles.ZP))
    both = both + tensor(oracles.proj(oracles.ZM), oracles.proj(oracles.ZM))
    p = Proposition(as_projector(both, "q"), 1)
    assert not commutes(p.projector.matrix, second.matrix)
    result = query(fam, p)
    assert not result.meaningful
    assert result.reason.startswith("projector 'q' splits event 'a+' at time 1")


def test_query_on_inconsistent_family_raises():
    rows = [
        [("x1+", projector_onto(oracles.XP, "x1+")), ("z2+", projector_onto(oracles.ZP, "z2+"))],
        [("x1+", projector_onto(oracles.XP, "x1+")), ("z2-", projector_onto(oracles.ZM, "z2-"))],
        [("x1-", projector_onto(oracles.XM, "x1-")), ("z2+", projector_onto(oracles.ZP, "z2+"))],
        [("x1-", projector_onto(oracles.XM, "x1-")), ("z2-", projector_onto(oracles.ZM, "z2-"))],
    ]
    fam = family_from_event_table(oracles.ZP, GRID3, FREE2, rows)
    with pytest.raises(QueryOnInconsistentFamily):
        query(fam, prop(X, +1, 1))


def test_query_validates_time_and_dim():
    fam = frame_family(X)
    with pytest.raises(ValueError, match="time index"):
        query(fam, prop(X, +1, 5))
    with pytest.raises(ValueError, match="dimension"):
        query(fam, Proposition(identity_projector(4), 1))
    with pytest.raises(ValueError, match="time_index must be >= 1"):
        Proposition(identity_projector(2), 0)


def test_conjunction_of_incompatible_properties_fails():
    with pytest.raises(IncompatibleProperties, match="commute"):
        conjunction(prop(X, +1, 1, "x+"), prop(Y, +1, 1, "y+"))


def test_conjunction_idempotent():
    p = prop(Z, +1, 1, "z+")
    joint = conjunction(p, p)
    assert np.allclose(joint.projector.matrix, p.projector.matrix)
    assert joint.projector.label == "z+"


def test_conjunction_disjoint_subsystems():
    pa = Proposition(
        as_projector(tensor(oracles.proj(oracles.ZP), oracles.I2), "zA+"), 1
    )
    pb = Proposition(
        as_projector(tensor(oracles.I2, oracles.proj(oracles.XP)), "xB+"), 1
    )
    joint = conjunction(pa, pb)
    expected = tensor(oracles.proj(oracles.ZP), oracles.proj(oracles.XP))
    assert np.allclose(joint.projector.matrix, expected)
    assert joint.projector.label == "zA+&xB+"


def test_conjunction_needs_matching_times():
    with pytest.raises(ValueError, match="same time"):
        conjunction(prop(Z, +1, 1), prop(Z, +1, 2))


def test_conjunction_needs_matching_dimensions():
    with pytest.raises(ValueError, match="same dimension"):
        conjunction(prop(Z, +1, 1), Proposition(identity_projector(4), 1))


def test_refine_with_itself_is_identity():
    fam = frame_family(X, labels=("x1+", "x1-"))
    refined = refine(fam, fam)
    assert [h.labels for h in refined.histories] == [h.labels for h in fam.histories]


def test_refine_incompatible_axes():
    with pytest.raises(IncompatibleFrameworks) as err:
        refine(frame_family(X), frame_family(Y))
    assert err.value.reason == "non-commuting"


def test_refine_split_family_against_rotated_copy(rng):
    built = build_scenario(builtin_scenario("eq27-split"))
    z_split = built.family("eq27")
    for _ in range(5):
        theta, phi = oracles.random_direction(rng)
        if min(theta, np.pi - theta) < 0.2:
            theta = 1.0  # keep clearly away from +/-z
        w = Direction(theta, phi)
        b = basis_for(w)
        rows = []
        for sa, sb, va, vb in (
            ("+", "-", b.plus, b.minus),
            ("-", "+", b.minus, b.plus),
        ):
            mat1 = as_projector(
                tensor(oracles.proj(va), oracles.proj(vb)), f"w{sa}{sb}1"
            )
            mat2 = as_projector(
                tensor(oracles.proj(va), oracles.proj(vb)), f"w{sa}{sb}2"
            )
            rows.append([(f"w{sa}{sb}1", mat1), (f"w{sa}{sb}2", mat2)])
        w_split = family_from_event_table(
            built.initial_state, built.grid, built.schedule, rows
        )
        with pytest.raises(IncompatibleFrameworks) as err:
            refine(z_split, w_split)
        assert err.value.reason == "non-commuting"


def _conditional_ladder(pool, choice, n=2):
    """A one-spin family over n times whose analyzer at t_k depends on the
    outcome at t_{k-1}: the (time, previous outcome) slot's ``choice``
    measures along that direction of the pool, or asserts the identity when
    it is ``len(pool)``."""
    rows = [[]]
    for k in range(1, n + 1):
        grown = []
        for row in rows:
            c = choice[k, row[-1][2] if row else 0]
            if c == len(pool):
                grown.append(row + [("1", identity_projector(2), 0)])
                continue
            for s in (0, 1):
                label = f"d{c}{'+-'[s]}"
                ket = oracles.ket(*pool[c], 1 - 2 * s)
                grown.append(row + [(label, projector_onto(ket, label), s)])
        rows = grown
    grid = TimeGrid(tuple(float(k) for k in range(n + 1)))
    return family_from_event_table(oracles.ZP, grid, FREE2,
                                   [[(label, p) for label, p, _ in row] for row in rows])


def _events_at(fam, k):
    """The distinct events at time k as {label: matrix}, in order of first appearance."""
    events = {}
    for h in fam.histories:
        events.setdefault(h.events[k - 1].label, h.events[k - 1].projector.matrix)
    return events


def test_refine_names_the_first_non_commuting_event_pair(rng):
    slots = [(k, s) for k in (1, 2) for s in (0, 1)]
    firsts, swapped = [], 0
    for _ in range(60):
        pool = [oracles.random_direction(rng) for _ in range(2)]
        f_choice = {slot: rng.choice(3, p=(0.45, 0.45, 0.1)) for slot in slots}
        # g keeps each of f's slots in half the draws, so many pairs commute
        g_choice = {slot: c if rng.random() < 0.5 else rng.choice(3, p=(0.45, 0.45, 0.1))
                    for slot, c in f_choice.items()}
        f, g = _conditional_ladder(pool, f_choice), _conditional_ladder(pool, g_choice)
        # every pair that fails, by time, then f's label, then g's label
        pairs = [(k, i, fl, j, gl) for k in (1, 2)
                 for i, (fl, fm) in enumerate(_events_at(f, k).items())
                 for j, (gl, gm) in enumerate(_events_at(g, k).items())
                 if not commutes(fm, gm)]
        try:
            refine(f, g)
            reason = None
        except IncompatibleFrameworks as err:
            reason = str(err)
        if not pairs:
            assert reason in (None, "inconsistent: the combined event products do not "
                                    "form a consistent family")
        else:
            k, _, fl, _, gl = pairs[0]
            assert reason == f"non-commuting: events {fl!r} and {gl!r} at time {k} do not commute"
            swapped += pairs[0] != min(pairs, key=lambda p: (p[0], p[3], p[1]))
        firsts.append(pairs[0] if pairs else None)
    # both verdicts occur, failures at each time, and draws where trying g's
    # labels first would name another pair
    assert None in firsts and {first[0] for first in firsts if first} == {1, 2}
    assert swapped > 0


def test_refine_symmetric_when_it_succeeds():
    # z framework refined with its own coarse-graining, both ways around
    fine = frame_family(Z, labels=("z1+", "z1-"))
    coarse = family_from_event_table(
        oracles.ZP, GRID2, FREE2, [[("1", identity_projector(2))]]
    )
    a = refine(fine, coarse)
    b = refine(coarse, fine)
    assert sorted(h.labels for h in a.histories) == sorted(h.labels for h in b.histories)
    ra, rb = check_consistency(a), check_consistency(b)
    assert sorted(ra.probabilities) == pytest.approx(sorted(rb.probabilities))


def test_refine_preserves_query_answers():
    fine = frame_family(Z, labels=("z1+", "z1-"))
    coarse = family_from_event_table(
        oracles.ZP, GRID2, FREE2, [[("1", identity_projector(2))]]
    )
    refined = refine(fine, coarse)
    p = prop(Z, +1, 1, "z+")
    assert query(refined, p).probability == pytest.approx(
        query(fine, p).probability, abs=EPS_CONS
    )


def test_refine_into_an_inconsistent_family_fails(monkeypatch):
    # eq23-identity-fix refined by {z2+, z2-} at t2 gives back eq23's four
    # interfering histories
    text = BUILTIN_SOURCES["eq23-identity-fix"] + (
        "[family z2]\nhistory = 1 z2+\nhistory = 1 z2-\n")
    built = build_scenario(parse_scenario(text))
    checked = []
    check = frameworks.check_consistency
    monkeypatch.setattr(frameworks, "check_consistency",
                        lambda f, tol: checked.append(f) or check(f, tol))
    with pytest.raises(IncompatibleFrameworks) as err:
        refine(built.family("eq23-identity-fix"), built.family("z2"))
    assert err.value.reason == "inconsistent"
    eq23 = build_scenario(builtin_scenario("eq23")).family("eq23")
    products = checked[-1]
    assert [h.labels for h in products.histories] == [h.labels for h in eq23.histories]
    assert check_consistency(products) == check_consistency(eq23)


def test_refine_certifies_each_event_product_once(rng, monkeypatch):
    # free spin along +z, z analyzers at t1..t4, a random analyzer at t5;
    # refine the coarse-grainings that forget t2 and t4 respectively
    n = 5
    theta, phi = oracles.random_direction(rng)
    rows = []
    for signs in np.ndindex(*(2,) * n):
        row = []
        for k, s in enumerate(signs, start=1):
            if k < n:
                label, vec = f"z{k}{'+-'[s]}", (oracles.ZP, oracles.ZM)[s]
            else:
                label, vec = f"w{k}{'+-'[s]}", oracles.ket(theta, phi, 1 - 2 * s)
            row.append((label, projector_onto(vec, label)))
        rows.append(row)
    fine = family_from_event_table(oracles.ZP, TimeGrid(tuple(range(n + 1))), FREE2, rows)
    f = replace_events_with_identity(fine, 2)
    g = replace_events_with_identity(fine, 4)

    calls = []
    certify = frameworks.as_projector

    def counting(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(frameworks, "as_projector", counting)
    refined = refine(f, g)

    # the reference multiplies every same-time event pair of every history pair
    expected = {}
    for hf in f.histories:
        for hg in g.histories:
            events = [(ef.label if eg.label in ("1", ef.label) else eg.label,
                       ef.projector.matrix @ eg.projector.matrix)
                      for ef, eg in zip(hf.events, hg.events)]
            if all(max_abs(m) > EPS_OP for _, m in events):
                expected.setdefault(tuple(label for label, _ in events), events)
    assert [h.labels for h in refined.histories] == list(expected)
    for h, events in zip(refined.histories, expected.values()):
        for ev, (_, m) in zip(h.events, events):
            assert np.array_equal(ev.projector.matrix, m)
    # one certification per distinct refined event: z+/z- at t1..t4, w+/w- at t5
    assert len(calls) == 2 * n
    assert len({(ev.time_index, ev.label) for h in refined.histories for ev in h.events}) == 2 * n


def test_refine_precondition_mismatches():
    fam = frame_family(X)
    other_grid = frame_family(X, GRID3)
    with pytest.raises(ValueError, match="grid"):
        refine(fam, other_grid)
    other_state = collapse_family(
        oracles.XP, GRID2, FREE2, [basis_for(X).plus, basis_for(X).minus]
    )
    with pytest.raises(ValueError, match="initial state"):
        refine(fam, other_state)
    # eq23-field-fix has eq23-identity-fix's state and grid, and a y field
    fixes = [build_scenario(builtin_scenario(name)).families[0][1]
             for name in ("eq23-identity-fix", "eq23-field-fix")]
    with pytest.raises(ValueError, match="same dynamics"):
        refine(*fixes)
