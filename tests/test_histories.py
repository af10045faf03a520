import gc
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ladder_golden import ladder_text
from qhist import dynamics, histories
from qhist.dynamics import Schedule, Segment, TimeGrid
from qhist.frameworks import query
from qhist.histories import (
    Event,
    Family,
    History,
    QueryOnInconsistentFamily,
    chain_kets,
    check_consistency,
    collapse_family,
    family_from_event_table,
    history_probability,
    replace_events_with_identity,
    unitary_family,
)
from qhist.linalg import EPS_CONS, identity_projector, projector_onto
from qhist.report import render_report_machine, run_scenario
from qhist.scenario import BUILTIN_SOURCES, build_scenario, builtin_scenario, parse_scenario
from qhist.spin import Direction, X, Z, basis_for, singlet, spin_operator, spin_projector

GRID2 = TimeGrid((0.0, 1.0))
GRID3 = TimeGrid((0.0, 1.0, 2.0))
FREE2 = Schedule.free(2)

XP_PROJ = projector_onto(oracles.XP, "x+")
XM_PROJ = projector_onto(oracles.XM, "x-")
ZP_PROJ = projector_onto(oracles.ZP, "z+")
ZM_PROJ = projector_onto(oracles.ZM, "z-")


def eq23_family() -> Family:
    rows = [
        [("x1+", XP_PROJ), ("z2+", ZP_PROJ)],
        [("x1+", XP_PROJ), ("z2-", ZM_PROJ)],
        [("x1-", XM_PROJ), ("z2+", ZP_PROJ)],
        [("x1-", XM_PROJ), ("z2-", ZM_PROJ)],
    ]
    return family_from_event_table(oracles.ZP, GRID3, FREE2, rows)


def test_chain_ket_eigenstate_projection():
    fam = family_from_event_table(oracles.ZP, GRID2, FREE2, [[("z1+", ZP_PROJ)]])
    assert np.allclose(chain_kets(fam)[0], oracles.ZP)


def test_chain_ket_two_step_hand_value():
    # [z2+][x1+]|z+> with <x+|z+> = <z+|x+> = 1/sqrt(2) gives |z+>/2
    fam = family_from_event_table(
        oracles.ZP, GRID3, FREE2, [[("x1+", XP_PROJ), ("z2+", ZP_PROJ)]]
    )
    assert np.allclose(chain_kets(fam)[0], np.array([0.5, 0.0]))


def test_chain_ket_orthogonal_events_vanish():
    fam = family_from_event_table(
        oracles.ZP, GRID3, FREE2, [[("z1-", ZM_PROJ), ("z2+", ZP_PROJ)]]
    )
    assert np.allclose(chain_kets(fam)[0], np.zeros(2))


def test_chain_ket_matches_independent_evaluator(rng):
    # cross-check against the oracle chain evaluator on a driven spin
    omega = 0.9
    sched = Schedule(dim=2, segments=(Segment(0.0, 2.0, omega * oracles.SY),))
    fam = family_from_event_table(
        oracles.ZP, GRID3, sched, [[("x1+", XP_PROJ), ("z2+", ZP_PROJ)]]
    )
    expected = oracles.chain(
        [
            (oracles.proj(oracles.XP), oracles.rotation_y(omega)),
            (oracles.proj(oracles.ZP), oracles.rotation_y(2 * omega)),
        ],
        oracles.ZP,
    )
    assert np.allclose(chain_kets(fam)[0], expected, atol=1e-12)


def test_history_overlap_is_hermitian():
    fam = eq23_family()
    k1, k3 = chain_kets(fam)[[0, 2]]
    assert np.vdot(k1, k3) == pytest.approx(np.conj(np.vdot(k3, k1)))
    diag = np.vdot(k1, k1)
    assert diag.imag == pytest.approx(0.0, abs=1e-15)
    assert diag.real >= 0.0


def test_eq23_overlap_values():
    kets = chain_kets(eq23_family())
    assert np.vdot(kets[0], kets[2]) == pytest.approx(0.25, abs=EPS_CONS)
    assert np.vdot(kets[1], kets[3]) == pytest.approx(-0.25, abs=EPS_CONS)


def test_eq23_identity_replacement_restores_orthogonality():
    rows = [
        [("x1+", XP_PROJ), ("1", None)],
        [("x1-", XM_PROJ), ("1", None)],
    ]
    fam = family_from_event_table(oracles.ZP, GRID3, FREE2, rows)
    kets = chain_kets(fam)
    assert np.vdot(kets[0], kets[1]) == pytest.approx(0.0, abs=EPS_CONS)


def test_check_consistency_eq23():
    report = check_consistency(eq23_family())
    assert not report.consistent
    assert report.exhaustive
    assert [(i, j) for i, j, _ in report.violating_pairs] == [(1, 3), (2, 4)]
    for _, _, overlap in report.violating_pairs:
        assert abs(overlap) == pytest.approx(0.25, abs=EPS_CONS)
    assert report.probabilities == pytest.approx((0.25, 0.25, 0.25, 0.25))


def test_check_consistency_not_exhaustive():
    rows = [[("x1+", XP_PROJ)]]
    fam = family_from_event_table(oracles.ZP, GRID2, FREE2, rows)
    report = check_consistency(fam)
    assert not report.exhaustive
    assert not report.consistent
    assert report.violating_pairs == ()
    # depth 2: the root branches completely, but the live prefix x1- lacks z2-
    rows = [
        [("x1+", XP_PROJ), ("z2+", ZP_PROJ)],
        [("x1+", XP_PROJ), ("z2-", ZM_PROJ)],
        [("x1-", XM_PROJ), ("z2+", ZP_PROJ)],
    ]
    report = check_consistency(family_from_event_table(oracles.ZP, GRID3, FREE2, rows))
    assert not report.exhaustive
    assert not report.consistent


def test_check_consistency_rejects_bad_tol():
    # and so do the reads that take its verdict, with the same error, before
    # any walk and before a query looks at its proposition
    fam = eq23_family()
    beyond = Event(ZP_PROJ, 3)  # outside the grid, which query says only later
    reads = (
        lambda tol: check_consistency(fam, tol),
        lambda tol: history_probability(fam.histories[0], fam, tol),
        lambda tol: query(fam, fam.histories[0].events[-1], tol),
        lambda tol: query(fam, beyond, tol),
    )
    for walked in (False, True):  # before the family keeps its record, and after
        for tol in (math.nan, math.inf, -1.0, 0.0):
            for read in reads:
                with pytest.raises(ValueError) as error:
                    read(tol)
                assert str(error.value) == f"tol must be finite and positive, got {tol!r}"
        assert (fam._walked is not None) is walked  # a bad tol walks nothing
        check_consistency(fam, 0.3)


def test_check_consistency_matches_oracle_gram_on_ladder(rng):
    # one spin in a y field, a random analyzer at each of 6 times: 64 histories
    n, omega = 6, 1.3
    grid = TimeGrid(tuple(float(k) for k in range(n + 1)))
    sched = Schedule(dim=2, segments=(Segment(0.0, float(n), omega * oracles.SY),))
    psi0 = oracles.ket(*oracles.random_direction(rng), +1)
    dirs = [oracles.random_direction(rng) for _ in range(n)]
    kets = {(d, sign): oracles.ket(*dirs[d], sign) for d in range(n) for sign in (1, -1)}
    # first time fastest, so neighbouring histories interfere and prefixes interleave
    signs = [row[::-1] for row in itertools.product((1, -1), repeat=n)]
    rows = [
        [(f"d{d}{sign:+d}", projector_onto(kets[d, sign])) for d, sign in enumerate(row)]
        for row in signs
    ]
    report = check_consistency(family_from_event_table(psi0, grid, sched, rows))

    chain_kets = [
        oracles.chain(
            [(oracles.proj(kets[d, sign]), oracles.rotation_y(omega * (d + 1)))
             for d, sign in enumerate(row)],
            psi0,
        )
        for row in signs
    ]
    gram = np.array([[np.vdot(a, b) for b in chain_kets] for a in chain_kets])
    expected = {
        (i + 1, j + 1): gram[i, j]
        for i in range(len(signs)) for j in range(i + 1, len(signs))
        if abs(gram[i, j]) > EPS_CONS
    }
    assert expected
    assert [(i, j) for i, j, _ in report.violating_pairs] == sorted(expected)
    for i, j, overlap in report.violating_pairs:
        assert abs(overlap - expected[i, j]) <= 1e-12
    assert np.max(np.abs(np.array(report.probabilities) - gram.diagonal().real)) <= 1e-12


def _two_spin_direction_family(wa: Direction, wb: Direction):
    ba, bb = basis_for(wa), basis_for(wb)
    events = {}
    for sa, va in (("+", ba.plus), ("-", ba.minus)):
        for sb, vb in (("+", bb.plus), ("-", bb.minus)):
            mat = np.kron(oracles.proj(va), oracles.proj(vb))
            from qhist.linalg import as_projector

            events[(sa, sb)] = as_projector(mat, f"a{sa}b{sb}")
    rows = [
        [(f"a{sa}b{sb}", events[(sa, sb)])]
        for sa, sb in (("+", "+"), ("-", "+"), ("+", "-"), ("-", "-"))
    ]
    return family_from_event_table(singlet(), GRID2, Schedule.free(4), rows)


def test_singlet_two_time_families_consistent(rng):
    for _ in range(25):
        ta, pa = oracles.random_direction(rng)
        tb, pb = oracles.random_direction(rng)
        fam = _two_spin_direction_family(Direction(ta, pa), Direction(tb, pb))
        report = check_consistency(fam)
        assert report.consistent
        assert report.probability_sum == pytest.approx(1.0, abs=EPS_CONS)


def test_singlet_same_axis_probabilities():
    fam = _two_spin_direction_family(Z, Z)
    report = check_consistency(fam)
    assert report.consistent
    assert report.probabilities == pytest.approx((0.0, 0.5, 0.5, 0.0), abs=EPS_CONS)


def test_history_probability_requires_consistency():
    fam = eq23_family()
    with pytest.raises(QueryOnInconsistentFamily):
        history_probability(fam.histories[0], fam)


_READ_TOLS = (1e-16, 1e-12, 1e-10, 1e-3, 0.3)


def _read_families():
    """Every built-in's families, eq23 as a table, and seeded ladders."""
    for name in BUILTIN_SOURCES:
        for family_name, fam in build_scenario(builtin_scenario(name)).families:
            yield f"{name} {family_name}", fam
    yield "eq23 table", eq23_family()
    for seed in range(6):
        text = ladder_text(random.Random(200 + seed), 2 + seed)
        yield f"ladder {seed}", build_scenario(parse_scenario(text)).families[0][1]


def test_reads_refuse_exactly_the_families_check_consistency_finds_inconsistent():
    verdicts = set()
    for name, fam in _read_families():
        for tol in _READ_TOLS:
            report = check_consistency(fam, tol)
            verdicts.add(report.consistent)
            event = fam.histories[0].events[-1]
            if not report.consistent:
                for h in fam.histories:
                    with pytest.raises(QueryOnInconsistentFamily):
                        history_probability(h, fam, tol)
                with pytest.raises(QueryOnInconsistentFamily):
                    query(fam, event, tol)
                continue
            weights = report.probabilities.tolist()
            assert [history_probability(h, fam, tol) for h in fam.histories] == weights, name
            answer = query(fam, event, tol)
            if answer.meaningful:
                assert answer.probability == sum(
                    w for h, w in zip(fam.histories, weights)
                    if h.events[-1].label == event.label), (name, tol)
    assert verdicts == {True, False}


def test_reads_refuse_a_family_whose_weights_do_not_sum_to_one():
    # one history that turns a little at each of 5 times: every residual is
    # within 0.3 and there is no pair, yet its weight is 0.9159**5 = 0.645
    step = 2.0 * math.asin(0.29)
    row = [(f"d{k}", spin_projector(Direction(k * step, 0.0), 1)) for k in range(1, 6)]
    fam = family_from_event_table(oracles.ZP, TimeGrid(tuple(map(float, range(6)))), FREE2, [row])
    report = check_consistency(fam, 0.3)
    assert report.exhaustive and not report.violating_pairs
    assert report.probability_sum == pytest.approx((1.0 - 0.29 ** 2) ** 5)
    assert not report.consistent
    with pytest.raises(QueryOnInconsistentFamily):
        history_probability(fam.histories[0], fam, 0.3)
    with pytest.raises(QueryOnInconsistentFamily):
        query(fam, fam.histories[0].events[-1], 0.3)


def test_reads_of_an_inconsistent_family_form_no_d(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a read formed D again to list the pairs")

    kept = eq23_family()
    assert check_consistency(kept, 0.3).consistent  # walked, |D(1, 3)| = 0.25
    monkeypatch.setattr(histories, "_violating_pairs", forbidden)
    for fam in (eq23_family(), kept):
        with pytest.raises(QueryOnInconsistentFamily):
            history_probability(fam.histories[0], fam)
        with pytest.raises(QueryOnInconsistentFamily):
            query(fam, fam.histories[0].events[-1])


def test_history_probability_on_split_family():
    built = build_scenario(builtin_scenario("eq27-split"))
    fam = built.family("eq27")
    for h in fam.histories:
        assert history_probability(h, fam) == pytest.approx(0.5, abs=EPS_CONS)


def test_history_probability_rejects_foreign_history():
    fam = eq23_family()
    other = History((Event(replace(ZP_PROJ, label="nope"), 1),
                     Event(replace(ZP_PROJ, label="z2+"), 2)))
    with pytest.raises(ValueError, match="not part"):
        history_probability(other, fam)


def test_history_index_matches_label_sequences():
    fam = eq23_family()
    for i, h in enumerate(fam.histories):
        assert fam.history_index(History(tuple(h.events))) == i
    for foreign in (
        History((Event(replace(ZP_PROJ, label="nope"), 1),
                 Event(replace(ZP_PROJ, label="z2+"), 2))),
        History((Event(replace(XP_PROJ, label="x1+"), 1),)),
    ):
        with pytest.raises(ValueError, match="not part"):
            fam.history_index(foreign)


def test_a_history_stores_its_labels_once():
    events = eq23_family().histories[1].events
    h = History(list(events))
    assert h.events == events and h.labels == ("x1+", "z2-")
    assert h.labels is h.labels  # made at construction, not on each read
    with pytest.raises(TypeError):
        History(events, labels=("a", "b"))


def test_unitary_family_free_spin():
    fam = unitary_family(oracles.ZP, GRID3, FREE2)
    (hist,) = fam.histories
    assert hist.labels == ("psi1", "psi2")
    assert np.allclose(hist.events[0].projector.matrix, oracles.proj(oracles.ZP))
    report = check_consistency(fam)
    assert report.consistent
    assert report.probabilities == pytest.approx((1.0,), abs=EPS_CONS)


def test_unitary_family_singlet():
    fam = unitary_family(singlet(), GRID3, Schedule.free(4))
    assert check_consistency(fam).probabilities == pytest.approx((1.0,), abs=EPS_CONS)


def test_unitary_family_rotating_field():
    omega = 1.3
    sched = Schedule(dim=2, segments=(Segment(0.0, 2.0, omega * oracles.SY),))
    fam = unitary_family(oracles.ZP, GRID3, sched)
    # events must follow the rotated state
    for k, ev in enumerate(fam.histories[0].events, start=1):
        expected = oracles.rotation_y(omega * k) @ oracles.ZP
        assert np.allclose(ev.projector.matrix, oracles.proj(expected), atol=1e-12)
    assert check_consistency(fam).probabilities == pytest.approx((1.0,), abs=EPS_CONS)


def test_collapse_family_x_basis():
    bx = basis_for(X)
    fam = collapse_family(oracles.ZP, GRID3, FREE2, [bx.plus, bx.minus], ("x2+", "x2-"))
    report = check_consistency(fam)
    assert report.consistent
    assert report.probabilities == pytest.approx((0.5, 0.5), abs=EPS_CONS)


def test_collapse_family_z_basis_is_deterministic():
    fam = collapse_family(oracles.ZP, GRID3, FREE2, [oracles.ZP, oracles.ZM])
    assert check_consistency(fam).probabilities == pytest.approx((1.0, 0.0), abs=EPS_CONS)


def test_collapse_family_tilted_basis(rng):
    for _ in range(10):
        theta = rng.uniform(0.0, math.pi)
        b = basis_for(Direction(theta, 0.0))
        fam = collapse_family(oracles.ZP, GRID3, FREE2, [b.plus, b.minus])
        expected = (math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2)
        assert check_consistency(fam).probabilities == pytest.approx(expected, abs=1e-10)


def test_collapse_family_evolves_the_state_to_t_n_minus_1_once(monkeypatch):
    # psi1..psi3 take one propagator each; the branching at t4 takes none
    ends = []
    propagator = dynamics.propagator
    monkeypatch.setattr(dynamics, "propagator",
                        lambda s, t_a, t_b: ends.append(t_b) or propagator(s, t_a, t_b))
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0, 4.0))
    fam = collapse_family(oracles.ZP, grid, FREE2, [oracles.XP, oracles.XM])
    assert ends == [1.0, 2.0, 3.0]
    assert fam.histories[0].labels == ("psi1", "psi2", "psi3", "e0")


def test_a_fresh_collapse_family_diagonalizes_its_segment_once(monkeypatch):
    # four event times in one field segment: one eigh in all, however many
    # propagators the build and the first check ask for
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0, 4.0))

    def fresh_schedule():
        return Schedule(2, (Segment(0.0, 4.0, 1.3 * spin_operator(Direction(1.1, 0.3))),))

    fam = collapse_family(oracles.ZP, grid, fresh_schedule(), [oracles.XP, oracles.XM])
    assert len(calls) == 1
    first = check_consistency(fam)
    assert len(calls) == 1  # the build kept the segment's spectrum
    fresh = Family(fam.initial_state, grid, fresh_schedule(), fam.histories)
    assert check_consistency(fresh) == first
    assert len(calls) == 2
    assert check_consistency(fresh) == first
    assert len(calls) == 2


def test_collapse_family_rejects_bad_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        collapse_family(oracles.ZP, GRID3, FREE2, [oracles.ZP, oracles.ZP])
    with pytest.raises(ValueError, match="orthonormal"):
        collapse_family(oracles.ZP, GRID3, FREE2, [[math.nan, 0.0], oracles.ZM])
    with pytest.raises(ValueError, match="vectors"):
        collapse_family(oracles.ZP, GRID3, FREE2, [oracles.ZP])
    with pytest.raises(ValueError, match="^expected a 1-D state vector, got shape"):
        collapse_family(oracles.ZP, GRID3, FREE2, [np.eye(2), oracles.ZM])


@pytest.mark.parametrize("labels", [(), ("up",), ("up", "down", "sideways")])
def test_collapse_family_needs_one_label_per_basis_vector(labels):
    # a short tuple used to drop the basis vectors it had no label for
    with pytest.raises(ValueError, match="labels for 2 basis vectors"):
        collapse_family([1, 0], GRID3, FREE2, [[1, 0], [0, 1]], labels=labels)


def test_replace_events_with_identity_coarse_grains_eq23():
    coarse = replace_events_with_identity(eq23_family(), 2)
    assert len(coarse.histories) == 2
    for k in (0, 3):
        with pytest.raises(ValueError, match=f"time index {k} outside 1..2"):
            replace_events_with_identity(eq23_family(), k)
    report = check_consistency(coarse)
    assert report.consistent
    assert report.probabilities == pytest.approx((0.5, 0.5), abs=EPS_CONS)


def test_coarse_graining_preserves_consistency_on_builtins():
    for name in ("eq10-born", "eq25-random-directions", "eq26-unitary",
                  "eq27-split", "eq30-collapse-x"):
        built = build_scenario(builtin_scenario(name))
        for _, fam in built.families:
            assert check_consistency(fam).consistent
            for k in range(1, fam.grid.n_events + 1):
                coarse = replace_events_with_identity(fam, k)
                assert check_consistency(coarse).consistent, (name, k)


def test_consistent_builtin_probabilities_sum_to_one():
    for name in ("eq10-born", "eq23-identity-fix", "eq23-field-fix",
                  "eq25-random-directions", "eq26-unitary", "eq27-split",
                  "eq29-unitary", "eq30-collapse-x", "cat-analogue", "chsh-demo"):
        built = build_scenario(builtin_scenario(name))
        for fam_name, fam in built.families:
            report = check_consistency(fam)
            assert report.consistent, (name, fam_name)
            assert report.probability_sum == pytest.approx(1.0, abs=EPS_CONS)
            assert all(-EPS_CONS <= p <= 1.0 + EPS_CONS for p in report.probabilities)


def test_overlap_gram_matrix_is_positive_semidefinite():
    for name in ("eq23", "eq27-split", "eq28-sixteen", "eq30-collapse-x"):
        built = build_scenario(builtin_scenario(name))
        for _, fam in built.families:
            kets = chain_kets(fam)
            assert kets.shape == (len(fam.histories), fam.dim)
            gram = kets.conj() @ kets.T
            assert np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2)) >= -EPS_CONS


def test_random_exhaustive_two_time_families_consistent(rng):
    # smaller copy of the acceptance sweep, with random dynamics thrown in
    for i in range(50):
        u = oracles.haar_unitary(rng, 2)
        events = [projector_onto(u[:, 0], "r0"), projector_onto(u[:, 1], "r1")]
        if i % 2:
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            sched = Schedule(dim=2, segments=(Segment(0.0, 1.0, (a + a.conj().T) / 2),))
        else:
            sched = FREE2
        fam = family_from_event_table(
            oracles.random_state(rng, 2), GRID2, sched,
            [[("r0", events[0])], [("r1", events[1])]],
        )
        assert check_consistency(fam).consistent


def test_a_phase_too_large_to_represent_raises_instead_of_a_nan_report():
    # 1e300 * S_w over 2e10 time units: the propagator's phases overflow
    field = Segment(0.0, 2e10, 1e300 * spin_operator(Direction(1.1, 0.3)))
    fam = family_from_event_table(
        oracles.ZP, TimeGrid((0.0, 2e10)), Schedule(2, (field,)),
        [[("z1+", ZP_PROJ)], [("z1-", ZM_PROJ)]],
    )
    with pytest.raises(ValueError, match="not finite"):
        check_consistency(fam)
    with pytest.raises(ValueError, match="not finite"):  # the failed walk kept nothing
        check_consistency(fam)


def test_nan_chain_kets_fail_closed(monkeypatch):
    # a NaN propagator makes every chain ket NaN: neither exhaustive nor orthogonal
    monkeypatch.setattr(histories, "propagator", lambda *args: np.full((2, 2), math.nan))
    report = check_consistency(eq23_family())
    assert not report.consistent
    assert not report.exhaustive
    assert [(i, j) for i, j, _ in report.violating_pairs] == list(
        itertools.combinations(range(1, 5), 2))


def test_check_consistency_leaves_no_reference_cycle():
    # garbage in a cycle waits for the cyclic collector, so a loop of checks
    # would hold on to every walk's kets between collections
    family = build_scenario(builtin_scenario("eq28-sixteen")).families[0][1]
    gc.collect()
    gc.disable()
    try:
        check_consistency(family)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_family_validation_errors():
    with pytest.raises(ValueError, match="normalized"):
        family_from_event_table(np.array([1.0, 1.0]), GRID2, FREE2, [[("z1+", ZP_PROJ)]])
    with pytest.raises(ValueError, match="normalized"):
        family_from_event_table(np.array([math.nan, 0.0]), GRID2, FREE2, [[("z1+", ZP_PROJ)]])
    # a squared norm that overflows reads as inf, with no RuntimeWarning
    big = np.array([1e200, 0.0])
    with pytest.raises(ValueError, match="^initial state must be normalized$"):
        Family(big, GRID2, FREE2, ())
    with pytest.raises(ValueError, match="^initial state must be normalized$"):
        unitary_family(big, GRID2, FREE2)
    with pytest.raises(ValueError, match="events"):
        family_from_event_table(oracles.ZP, GRID3, FREE2, [[("z1+", ZP_PROJ)]])
    with pytest.raises(ValueError, match="duplicate"):
        family_from_event_table(
            oracles.ZP, GRID2, FREE2, [[("z1+", ZP_PROJ)], [("z1+", ZP_PROJ)]]
        )
    with pytest.raises(ValueError, match="two different projectors"):
        family_from_event_table(
            oracles.ZP, GRID2, FREE2, [[("p", ZP_PROJ)], [("p", XP_PROJ)]]
        )
    with pytest.raises(ValueError, match="time index"):
        Family(
            oracles.ZP,
            GRID2,
            FREE2,
            (History((Event(ZP_PROJ, 2),)),),
        )
    with pytest.raises(ValueError, match="time_index must be >= 1"):
        Event(ZP_PROJ, 0)
    one_event = (History((Event(ZP_PROJ, 1),)),)
    with pytest.raises(ValueError, match="schedule dim 4 != state dim 2"):
        Family(oracles.ZP, GRID2, Schedule.free(4), one_event)
    with pytest.raises(ValueError, match="at least one event time"):
        Family(oracles.ZP, TimeGrid((0.0,)), FREE2, (History(()),))
    with pytest.raises(ValueError, match="at least one history"):
        Family(oracles.ZP, GRID2, FREE2, ())
    with pytest.raises(ValueError, match="event '1' has dim 4, state has dim 2"):
        Family(oracles.ZP, GRID2, FREE2, (History((Event(identity_projector(4), 1),)),))


def test_family_reports_a_wrong_length_before_any_event_fault():
    wrong_dim = History((Event(identity_projector(4), 1), Event(ZP_PROJ, 2)))
    too_short = History((Event(ZP_PROJ, 1),))
    with pytest.raises(ValueError, match=r"\('z\+',\) has 1 events, grid has 2 event times"):
        Family(oracles.ZP, GRID3, FREE2, (wrong_dim, too_short))


def test_family_reports_event_faults_in_time_order_whatever_the_history_order():
    bad_at_t2 = History((Event(ZP_PROJ, 1), Event(ZP_PROJ, 1)))
    bad_at_t1 = History((Event(XP_PROJ, 2), Event(XP_PROJ, 2)))
    with pytest.raises(ValueError, match=r"\('x\+', 'x\+'\): event 1 carries time index 2"):
        Family(oracles.ZP, GRID3, FREE2, (bad_at_t2, bad_at_t1))


def test_zero_probability_histories_are_harmless():
    # a dead branch neither violates orthogonality nor breaks exhaustiveness
    rows = [
        [("z1+", ZP_PROJ), ("z2+", ZP_PROJ)],
        [("z1+", ZP_PROJ), ("z2-", ZM_PROJ)],
        [("z1-", ZM_PROJ), ("z2+", ZP_PROJ)],
        [("z1-", ZM_PROJ), ("z2-", ZM_PROJ)],
    ]
    fam = family_from_event_table(oracles.ZP, GRID3, FREE2, rows)
    report = check_consistency(fam)
    assert report.consistent
    assert report.probabilities == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=EPS_CONS)
    # a branch missing under the dead prefix z1- does not break exhaustiveness
    report = check_consistency(family_from_event_table(oracles.ZP, GRID3, FREE2, rows[:3]))
    assert report.exhaustive
    assert report.consistent
    assert report.probabilities == pytest.approx((1.0, 0.0, 0.0), abs=EPS_CONS)
    # the prefix z1- has norm 1e-6, so it is dead at tol 1.5e-6 and live at the
    # default tol; three labels for z2- below it leave a residual of 2e-6
    psi0 = (oracles.ZP + 1e-6 * oracles.ZM) / math.sqrt(1.0 + 1e-12)
    rows = rows[:2] + [[("z1-", ZM_PROJ), (label, ZM_PROJ)] for label in "abc"]
    fam = family_from_event_table(psi0, GRID3, FREE2, rows)
    assert check_consistency(fam, 1.5e-6).consistent
    assert not check_consistency(fam).exhaustive


def test_consistency_report_keeps_its_pairs_as_columns():
    report = check_consistency(eq23_family())
    pairs = report.violating_pairs
    rows = tuple(pairs)
    assert (pairs.i.tolist(), pairs.j.tolist()) == ([1, 2], [3, 4])
    assert rows == ((1, 3, complex(pairs.overlaps[0])), (2, 4, complex(pairs.overlaps[1])))
    assert [tuple(map(type, row)) for row in rows] == [(int, int, complex)] * 2
    assert (pairs[0], pairs[-1], len(pairs), bool(pairs)) == (rows[0], rows[1], 2, True)
    assert type(pairs[1:]) is type(pairs) and pairs[1:] == rows[1:]
    with pytest.raises(IndexError):
        pairs[2]
    assert report.probabilities.dtype == float
    with pytest.raises(ValueError):
        report.probabilities[0] = 1.0  # read-only, like the pair columns
    with pytest.raises(ValueError):
        pairs.overlaps[0] = 0.0
    assert check_consistency(collapse_family(oracles.ZP, GRID3, FREE2, [oracles.XP, oracles.XM])
                             ).violating_pairs == ()


# parts of a drawn entry: below every tol, at and around the tols, above
# them, and non-finite
_SMALL = (0.0, 1e-13, 5e-11)
_PARTS = _SMALL + (1e-10, 2e-10, 1e-3, 0.3, 0.5, 1.0, math.nan, math.inf)
_TOLS = (1e-10, 1e-3, 0.3)


@st.composite
def _ket_matrices(draw):
    """A random complex K of N chain kets in dimension N, N = 1..6. In half
    the draws every entry off the diagonal is finite and below every tol, so
    the kets are nearly orthogonal (a consistent family's K); in the rest
    each may be large, NaN or infinite. Each entry that may be large is small
    in half the draws, so a lone large entry, on the diagonal or off it, is
    common."""
    n = draw(st.integers(1, 6))
    interfering = draw(st.booleans())
    entries = []
    for a, b in itertools.product(range(n), repeat=2):
        parts = _PARTS if (a == b or interfering) and draw(st.booleans()) else _SMALL
        re, im = (draw(st.sampled_from(parts)) * draw(st.sampled_from((1, -1)))
                  for _ in range(2))
        entries.append(complex(re, im))
    return np.array(entries, dtype=complex).reshape(n, n)


_BASIS_FAMILIES = {
    n: family_from_event_table(
        np.eye(n)[0], GRID2, Schedule.free(n),
        [[(f"e{a}", projector_onto(np.eye(n)[a]))] for a in range(n)])
    for n in range(1, 7)
}


@settings(max_examples=200, deadline=None)
@given(_ket_matrices(), st.sampled_from(_TOLS))
def test_violating_pairs_match_the_whole_triangle_search(kets, tol):
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in D
        got = histories._violating_pairs(kets, tol)
        want = oracles.violating_pairs(kets.conj() @ kets.T, tol)
        # the record a family with these chain kets keeps
        record = replace(histories._walk(_BASIS_FAMILIES[len(kets)]), kets=kets)
    for column, expected in zip((got.i, got.j, got.overlaps), want):
        assert column.dtype == expected.dtype and column.shape == expected.shape
        assert column.tobytes() == expected.tobytes()
        assert not column.flags.writeable
    assert (record.max_offdiag <= tol) is (len(want[0]) == 0)


@pytest.mark.parametrize("tol", _TOLS)
def test_check_consistency_pairs_match_the_whole_triangle_search_on_builtins(tol):
    for name in BUILTIN_SOURCES:
        for _, fam in build_scenario(builtin_scenario(name)).families:
            kets = chain_kets(fam)
            pairs = check_consistency(fam, tol).violating_pairs
            want = oracles.violating_pairs(kets.conj() @ kets.T, tol)
            for column, expected in zip((pairs.i, pairs.j, pairs.overlaps), want):
                assert column.dtype == expected.dtype, name
                assert column.tobytes() == expected.tobytes(), name


def test_a_consistent_family_has_empty_pairs_in_the_found_dtypes():
    found = check_consistency(eq23_family()).violating_pairs
    report = check_consistency(collapse_family(oracles.ZP, GRID3, FREE2, [oracles.XP, oracles.XM]))
    assert report.consistent
    empty = report.violating_pairs
    for column, full in zip((empty.i, empty.j, empty.overlaps), (found.i, found.j, found.overlaps)):
        assert (column.shape, column.dtype) == ((0,), full.dtype)
        assert not column.flags.writeable
    assert (len(empty), bool(empty), tuple(empty), repr(empty)) == (0, False, (), "()")
    golden = Path(__file__).parent / "golden"
    for name in ("eq10-born", "eq26-unitary", "eq30-collapse-x"):
        report = run_scenario(builtin_scenario(name))
        assert report.all_consistent
        text = render_report_machine(report)
        assert text == (golden / f"{name}.machine.json").read_text(encoding="utf-8")


def test_consistency_report_equality_and_repr():
    report = check_consistency(eq23_family())
    assert check_consistency(eq23_family()) == report  # two checks, equal values
    assert replace(report, consistent=True) != report
    assert replace(report, probabilities=report.probabilities * 2) != report
    fewer = replace(report, violating_pairs=report.violating_pairs[:1])
    assert fewer != report and fewer.violating_pairs == tuple(report.violating_pairs)[:1]
    assert repr(report.violating_pairs) == repr(tuple(report.violating_pairs))
    assert f"violating_pairs={tuple(report.violating_pairs)!r}" in repr(report)
    with pytest.raises(TypeError):
        hash(report)


def _random_direction(rng: random.Random) -> Direction:
    return Direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def test_consistent_families_have_at_most_d_heavy_histories():
    # Chain kets live in C^d, so D has rank <= d. If m > d histories each
    # weighed more than (N - 1) tol while every |D(a, b)| <= tol, their
    # normalized Gram matrix would be strictly diagonally dominant, hence
    # non-singular (Gershgorin): rank m > d. So a family called consistent
    # has at most d histories heavier than (N - 1) tol. No oracle needed.
    rng = random.Random(20261019)
    tested = 0
    for _ in range(600):
        n = rng.randint(1, 4)
        tol = 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        field = Segment(0.0, float(n), rng.uniform(0.0, 3.0) * spin_operator(_random_direction(rng)))
        directions = [_random_direction(rng) for _ in range(n)]
        analyzers = [{s: (f"a{k}{'+-'[s < 0]}", spin_projector(d, s)) for s in (1, -1)}
                     for k, d in enumerate(directions, start=1)]
        rows = [[analyzer[s] for analyzer, s in zip(analyzers, signs)]
                for signs in itertools.product((1, -1), repeat=n)]
        fam = family_from_event_table(basis_for(_random_direction(rng)).plus,
                                      TimeGrid(tuple(map(float, range(n + 1)))),
                                      Schedule(2, (field,)), rows)
        report = check_consistency(fam, tol)
        if report.consistent and len(rows) > fam.dim:  # with N <= d the bound holds trivially
            tested += 1
            heavy = np.count_nonzero(report.probabilities > (len(rows) - 1) * tol)
            assert heavy <= fam.dim, (n, tol, report.probabilities)
    assert tested >= 40  # 45 of the 600 draws
