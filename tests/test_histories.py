import itertools
import math

import numpy as np
import pytest

import oracles
from qhist.dynamics import Schedule, Segment, TimeGrid
from qhist.histories import (
    Event,
    Family,
    History,
    QueryOnInconsistentFamily,
    chain_ket,
    check_consistency,
    collapse_family,
    event,
    family_from_event_table,
    history_overlap,
    history_probability,
    replace_events_with_identity,
    unitary_family,
)
from qhist.linalg import EPS_CONS, projector_onto
from qhist.scenario import build_scenario, builtin_scenario
from qhist.spin import Direction, X, Z, basis_for, singlet

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
    assert np.allclose(chain_ket(fam.histories[0], fam), oracles.ZP)


def test_chain_ket_two_step_hand_value():
    # [z2+][x1+]|z+> with <x+|z+> = <z+|x+> = 1/sqrt(2) gives |z+>/2
    fam = family_from_event_table(
        oracles.ZP, GRID3, FREE2, [[("x1+", XP_PROJ), ("z2+", ZP_PROJ)]]
    )
    assert np.allclose(chain_ket(fam.histories[0], fam), np.array([0.5, 0.0]))


def test_chain_ket_orthogonal_events_vanish():
    fam = family_from_event_table(
        oracles.ZP, GRID3, FREE2, [[("z1-", ZM_PROJ), ("z2+", ZP_PROJ)]]
    )
    assert np.allclose(chain_ket(fam.histories[0], fam), np.zeros(2))


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
    assert np.allclose(chain_ket(fam.histories[0], fam), expected, atol=1e-12)


def test_history_overlap_is_hermitian():
    fam = eq23_family()
    h1, h3 = fam.histories[0], fam.histories[2]
    assert history_overlap(h1, h3, fam) == pytest.approx(
        np.conj(history_overlap(h3, h1, fam))
    )
    diag = history_overlap(h1, h1, fam)
    assert diag.imag == pytest.approx(0.0, abs=1e-15)
    assert diag.real >= 0.0


def test_eq23_overlap_values():
    fam = eq23_family()
    assert history_overlap(fam.histories[0], fam.histories[2], fam) == pytest.approx(
        0.25, abs=EPS_CONS
    )
    assert history_overlap(fam.histories[1], fam.histories[3], fam) == pytest.approx(
        -0.25, abs=EPS_CONS
    )


def test_eq23_identity_replacement_restores_orthogonality():
    rows = [
        [("x1+", XP_PROJ), ("1", None)],
        [("x1-", XM_PROJ), ("1", None)],
    ]
    fam = family_from_event_table(oracles.ZP, GRID3, FREE2, rows)
    assert history_overlap(fam.histories[0], fam.histories[1], fam) == pytest.approx(
        0.0, abs=EPS_CONS
    )


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
    fam = eq23_family()
    for tol in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            check_consistency(fam, tol)


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


def test_history_probability_on_split_family():
    built = build_scenario(builtin_scenario("eq27-split"))
    fam = built.family("eq27")
    for h in fam.histories:
        assert history_probability(h, fam) == pytest.approx(0.5, abs=EPS_CONS)


def test_history_probability_rejects_foreign_history():
    fam = eq23_family()
    other = History((event(1, ZP_PROJ, "nope"), event(2, ZP_PROJ, "z2+")))
    with pytest.raises(ValueError, match="not part"):
        history_probability(other, fam)


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


def test_collapse_family_rejects_bad_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        collapse_family(oracles.ZP, GRID3, FREE2, [oracles.ZP, oracles.ZP])
    with pytest.raises(ValueError, match="vectors"):
        collapse_family(oracles.ZP, GRID3, FREE2, [oracles.ZP])


def test_replace_events_with_identity_coarse_grains_eq23():
    coarse = replace_events_with_identity(eq23_family(), 2)
    assert len(coarse.histories) == 2
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
            m = len(fam.histories)
            gram = np.array(
                [
                    [history_overlap(fam.histories[i], fam.histories[j], fam)
                     for j in range(m)]
                    for i in range(m)
                ]
            )
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


def test_family_validation_errors():
    with pytest.raises(ValueError, match="normalized"):
        family_from_event_table(np.array([1.0, 1.0]), GRID2, FREE2, [[("z1+", ZP_PROJ)]])
    with pytest.raises(ValueError, match="normalized"):
        family_from_event_table(np.array([math.nan, 0.0]), GRID2, FREE2, [[("z1+", ZP_PROJ)]])
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
            (History((Event(2, ZP_PROJ, "z+"),)),),
        )


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
