"""The batched walk of the event-prefix tree against the per-node walk it
replaced (``oracles.per_node_walk``): the same chain kets bit for bit, and the
same exhaustiveness verdict at every tolerance, on families of every shape
the engine builds. Then what a family keeps from its walk, read at several
tolerances, through three guarantees, each checked by one helper:

* a family walks once, whatever is read and at whatever tol
  (:func:`_assert_walks_once`, which counts propagators);
* every read shares one read-only K and one probability array, which no
  family made from it shares (:func:`_kept_arrays`);
* exhaustiveness is one number, the dead-node rule reduced by
  ``histories._max_residual`` (:func:`_reduction_inputs`).

These tests read the walk through qhist's public names, and through two
private seams only: that reduction and the pair search
``histories._violating_pairs``."""

import gc
import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ladder_golden import ladder_text
from qhist import histories
from qhist.dynamics import Schedule, Segment, TimeGrid
from qhist.frameworks import Proposition, query, refine
from qhist.histories import (
    chain_kets,
    check_consistency,
    collapse_family,
    family_from_event_table,
    history_probability,
    replace_events_with_identity,
)
from qhist.linalg import as_projector, identity, tensor
from qhist.report import FamilyResult, Report, render_report_machine
from qhist.scenario import build_scenario, builtin_scenario, parse_scenario
from qhist.spin import Direction, spin_operator, spin_projector

TOLS = (1e-12, 1e-9, 1e-3, 0.3)


def _direction(rng: random.Random) -> Direction:
    return Direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def _grid(n: int) -> TimeGrid:
    return TimeGrid(tuple(float(k) for k in range(n + 1)))


def _ladders():
    for n in range(1, 9):
        text = ladder_text(random.Random(100 + n), n)
        yield f"ladder-{n}", build_scenario(parse_scenario(text)).families[0][1]


def _z_rows(n: int, final: Direction):
    """z analyzers at t1..t(n-1) and ``final`` at tn, every sign sequence."""
    z = {s: spin_projector(Direction(0.0, 0.0), s) for s in (1, -1)}
    w = {s: spin_projector(final, s) for s in (1, -1)}
    for signs in itertools.product((1, -1), repeat=n):
        row = [(f"z{k}{'+-'[s < 0]}", z[s]) for k, s in enumerate(signs[:-1], 1)]
        yield row + [(f"w{n}{'+-'[signs[-1] < 0]}", w[signs[-1]])]


def _z_ladders():
    """A free spin along +z: every branch below a z- is dead (weight 0)."""
    rng = random.Random(7)
    eps = 6e-10
    tilted = (oracles.ZP + eps * oracles.ZM) / math.sqrt(1.0 + eps * eps)
    for n in (2, 3, 5):
        rows = list(_z_rows(n, _direction(rng)))
        yield f"z-ladder-{n}", family_from_event_table(oracles.ZP, _grid(n), Schedule.free(2), rows)
        # a live branch missing: the first row's node loses a child of weight > 0
        yield f"z-ladder-{n}-live-cut", family_from_event_table(
            oracles.ZP, _grid(n), Schedule.free(2), rows[1:])
        # with 6e-10 of z- in psi0, the all-minus prefix has norm 6e-10, and
        # three identity events below it leave it the residual 1.2e-9: it
        # fails at tol 1e-12, and at 1e-9 only its death keeps the family
        # exhaustive
        minus = [r for r in rows if all(label.endswith("-") for label, _ in r[:-1])]
        overlap = [r for r in rows if r[:-1] != minus[0][:-1]]
        overlap += [minus[0][:-1] + [(label, None)] for label in "abc"]
        yield f"z-ladder-{n}-overlap", family_from_event_table(
            tilted, _grid(n), Schedule.free(2), overlap)


def _singlet_products():
    """Two-spin singlet families, one analyzer per side at each time."""
    rng = random.Random(11)
    for n in (1, 2):
        sides = [[{s: spin_projector(_direction(rng), s).matrix for s in (1, -1)} for _ in "AB"]
                 for _ in range(n)]
        rows = []
        for signs in itertools.product(itertools.product((1, -1), repeat=2), repeat=n):
            row = []
            for k, ((a, b), (pa, pb)) in enumerate(zip(signs, sides), 1):
                label = f"a{k}{'+-'[a < 0]}*b{k}{'+-'[b < 0]}"
                row.append((label, as_projector(tensor(pa[a], pb[b]))))
            rows.append(row)
        field = Segment(0.0, float(n), 1.3 * tensor(spin_operator(_direction(rng)), identity(2)))
        yield f"singlet-{n}", family_from_event_table(
            oracles.SINGLET, _grid(n), Schedule(4, (field,)), rows)
    yield "eq28-sixteen", build_scenario(builtin_scenario("eq28-sixteen")).families[0][1]
    for name, fam in build_scenario(builtin_scenario("chsh-demo")).families:
        yield f"chsh-demo-{name}", fam


def _collapses():
    """psiK events up to t(n-1), then a random basis at tn."""
    rng = random.Random(13)
    for n in (1, 2, 4):
        field = Segment(0.0, float(n), 2.1 * spin_operator(_direction(rng)))
        u = oracles.haar_unitary(np.random.default_rng(n), 2)
        yield f"collapse-{n}", collapse_family(
            oracles.random_state(np.random.default_rng(n + 1), 2), _grid(n),
            Schedule(2, (field,)), [u[:, 0], u[:, 1]])
    yield "eq30-collapse-x", build_scenario(builtin_scenario("eq30-collapse-x")).families[0][1]
    yield "eq29-unitary", build_scenario(builtin_scenario("eq29-unitary")).families[0][1]


def _scattered():
    """Partial families listed so that one node's children are not adjacent:
    sign sequences ordered by their last sign first, some left out."""
    rng = random.Random(17)
    for n in (2, 3, 4):
        dirs = [_direction(rng) for _ in range(n)]
        proj = [{s: spin_projector(d, s) for s in (1, -1)} for d in dirs]
        field = Segment(0.0, float(n), 1.7 * spin_operator(_direction(rng)))
        order = sorted(itertools.product((1, -1), repeat=n), key=lambda s: s[::-1])
        rows = [[(f"d{k}{'+-'[s < 0]}", proj[k - 1][s]) for k, s in enumerate(signs, 1)]
                for signs in order]
        for keep in (rows, rows[::2] + rows[1::4]):
            yield f"scattered-{n}-{len(keep)}", family_from_event_table(
                oracles.random_state(np.random.default_rng(n), 2), _grid(n),
                Schedule(2, (field,)), keep)


def _refinements():
    rng = random.Random(19)
    for n in (2, 3, 4):
        fam = family_from_event_table(oracles.ZP, _grid(n), Schedule.free(2),
                                      list(_z_rows(n, _direction(rng))))
        yield f"refine-z-{n}", refine(replace_events_with_identity(fam, 1),
                                      replace_events_with_identity(fam, n))
    sides = build_scenario(parse_scenario("\n".join([
        "[scenario]", "name = sides", "[system]", "spins = 2", "[state]", "named = singlet",
        "[grid]", "times = 0.0 1.0", "[family A]", "history = xA1+", "history = xA1-",
        "[family B]", "history = w(0.5,0.25)B1+", "history = w(0.5,0.25)B1-",
    ]) + "\n"))
    yield "refine-singlet", refine(sides.family("A"), sides.family("B"))


def _families():
    yield from _ladders()
    yield from _z_ladders()
    yield from _singlet_products()
    yield from _collapses()
    yield from _scattered()
    yield from _refinements()


FAMILIES = list(_families())


@pytest.mark.parametrize("name, fam", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_batched_walk_equals_the_per_node_walk(name, fam):
    _assert_walks_like_the_oracle(fam)


def _assert_walks_like_the_oracle(fam):
    kets = chain_kets(fam)
    for tol in TOLS:
        want_kets, want_exhaustive = oracles.per_node_walk(fam, tol)
        assert kets.dtype == want_kets.dtype and kets.shape == want_kets.shape
        assert kets.tobytes() == want_kets.tobytes()
        assert check_consistency(fam, tol).exhaustive is want_exhaustive, tol


def _reduction_inputs(fam) -> tuple:
    """(norms, residuals, parent, starts): what the walk of a fresh copy of
    ``fam`` reduces to its ``max_residual``, namely the inner nodes' norms
    and residuals, and the tree: node 0 is the root, node i's parent is
    ``parent[i - 1]``, and ``starts`` holds the first id of each level and
    the node count."""
    seen, fresh = [], replace(fam)
    reduce = histories._max_residual
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(histories, "_max_residual", lambda *args: seen.append(args) or reduce(*args))
        chain_kets(fresh)
    (inputs,) = seen
    return inputs


def test_the_walk_families_reach_every_verdict():
    # the comparison above is not vacuous: among the families and tolerances
    # are failed residuals, failed residuals that only dead nodes carry, and
    # consistent and inconsistent verdicts
    counts = dict.fromkeys(("exhaustive", "not exhaustive", "saved by dead nodes",
                            "consistent", "inconsistent"), 0)
    for _, fam in FAMILIES:
        residuals = _reduction_inputs(fam)[1]
        for tol in TOLS:
            report = check_consistency(fam, tol)
            counts["exhaustive" if report.exhaustive else "not exhaustive"] += 1
            counts["saved by dead nodes"] += report.exhaustive and not (residuals <= tol).all()
            counts["consistent" if report.consistent else "inconsistent"] += 1
    assert all(counts.values()), counts


def test_max_residual_is_the_exhaustiveness_threshold():
    # the per-node walk and the family's verdict are exhaustive at
    # max_residual and not at the float below it: no other number would
    # give the same verdict at every tol
    thresholds = 0
    for name, fam in FAMILIES:
        largest = histories._max_residual(*_reduction_inputs(fam))
        assert oracles.per_node_walk(fam, largest)[1], name
        if largest > 0:
            thresholds += 1
            below = math.nextafter(largest, 0.0)
            assert check_consistency(fam, largest).exhaustive, name
            assert not oracles.per_node_walk(fam, below)[1], name
            assert not check_consistency(fam, below).exhaustive, name
    assert thresholds


# per-node norms and residuals to draw: zero, round-off, the scale of
# _record_family's late node, order one, and non-finite
_NODE_VALUES = (0.0, 1e-12, 1e-9, 1e-4, 2e-4, 0.3, 1.0, math.nan, math.inf)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["z-ladder-5", "scattered-4-12", "refine-singlet"]), st.data())
def test_max_residual_gives_the_dead_node_verdict_at_every_tol(name, data):
    _, _, parent, starts = _reduction_inputs(dict(FAMILIES)[name])
    draw = st.lists(st.sampled_from(_NODE_VALUES), min_size=starts[-2], max_size=starts[-2])
    norms, residuals = np.array(data.draw(draw)), np.array(data.draw(draw))
    largest = histories._max_residual(norms, residuals, parent, starts)
    for tol in TOLS + (1e-4, 2e-4, 1.0, 2.0):
        assert (largest <= tol) is oracles.dead_node_rule(norms, residuals, parent, tol), tol


def test_the_tree_numbers_nodes_level_by_level_in_first_appearance():
    p = {s: spin_projector(Direction(0.0, 0.0), s) for s in (1, -1)}
    rows = [[("a+", p[1]), ("b+", p[1])],
            [("a-", p[-1]), ("b+", p[1])],
            [("a+", p[1]), ("b-", p[-1])]]
    fam = family_from_event_table(oracles.ZP, _grid(2), Schedule.free(2), rows)
    _, _, parent, starts = _reduction_inputs(fam)
    assert starts == (0, 1, 3, 6)
    assert parent.tolist() == [0, 0, 1, 2, 1]  # a+'s children are not adjacent
    assert parent.dtype == np.intp
    # each node carries its own event: the kets are the per-node walk's
    assert chain_kets(fam).tobytes() == oracles.per_node_walk(fam, 1e-9)[0].tobytes()
    # the events at t2 keep their order of first appearance: a query that
    # commutes with neither names b+
    x = Proposition(spin_projector(Direction(math.pi / 2, 0.0), 1), 2)
    assert "with event 'b+' at time 2" in query(fam, x).reason


def _record_family():
    """psi0 = z+ + 1e-4 z- over three times. Below z1- z2-, three labels
    name the one projector z3-, so that node, of norm 1e-4, has the residual
    ||3 chi - chi|| = 2e-4; every other node is exhaustive."""
    eps = 1e-4
    psi0 = (oracles.ZP + eps * oracles.ZM) / math.sqrt(1.0 + eps * eps)
    z = {s: spin_projector(Direction(0.0, 0.0), s) for s in (1, -1)}
    rows = []
    for s1, s2 in itertools.product((1, -1), repeat=2):
        head = [(f"z1{'+-'[s1 < 0]}", z[s1]), (f"z2{'+-'[s2 < 0]}", z[s2])]
        tails = "abc" if (s1, s2) == (-1, -1) else "+-"
        rows += [head + [(f"z3{t}", z[-1] if t in "abc-" else z[1])] for t in tails]
    return family_from_event_table(psi0, _grid(3), Schedule.free(2), rows)


def test_one_record_answers_every_tolerance():
    fam = _record_family()
    norms, residuals, parent, starts = _reduction_inputs(fam)
    assert norms.shape == residuals.shape == (starts[-2],)
    # the node z1- z2- is the last inner node; its residual sits at t2, after
    # the levels above it have passed
    late = starts[-2] - 1
    assert norms[late] == pytest.approx(1e-4, rel=1e-12)
    assert residuals[late] == pytest.approx(2e-4, rel=1e-12)
    others = np.delete(residuals, late)
    assert (others <= 1e-15).all()
    # the late residual counts up to the node's norm, where it dies
    largest = histories._max_residual(norms, residuals, parent, starts)
    assert largest == norms[late]
    assert largest == pytest.approx(1e-4, rel=1e-12)
    verdicts = {
        1e-12: False,   # the node is live and its residual fails
        5e-5: False,    # still live, still failing
        1.5e-4: True,   # the node is dead (norm <= tol), so it is not tested
        3e-4: True,     # the node is live, and its residual passes
    }
    for tol, exhaustive in verdicts.items():
        assert (largest <= tol) is exhaustive, tol
        assert oracles.per_node_walk(fam, tol)[1] is exhaustive, tol
        assert check_consistency(fam, tol).exhaustive is exhaustive, tol


def test_a_dead_ancestor_kills_its_subtree():
    norms, residuals, parent, starts = _reduction_inputs(_record_family())
    late = starts[-2] - 1
    z1_minus = parent[late - 1]  # the parent of z1- z2-
    assert norms[z1_minus] == pytest.approx(1e-4, rel=1e-12)
    # give the failing node a norm of its own above tol: its ancestor z1- is
    # still dead at 1.5e-4, so the node is not tested
    norms = norms.copy()
    norms[late] = 1.0
    assert histories._max_residual(norms, residuals, parent, starts) <= 1.5e-4
    norms[z1_minus] = 1.0
    largest = histories._max_residual(norms, residuals, parent, starts)
    assert largest == residuals[late] and not largest <= 1.5e-4


def test_nan_in_the_record_fails_closed():
    norms, residuals, parent, starts = _reduction_inputs(_record_family())
    nan_residuals = residuals.copy()
    nan_residuals[0] = math.nan  # at the root, of norm 1: live at every tol below 1
    largest = histories._max_residual(norms, nan_residuals, parent, starts)
    assert largest == norms[0]
    for tol in TOLS:
        assert not largest <= tol
    # with the root's norm NaN too, no dead node saves it at any tol
    nan_norms = norms.copy()
    nan_norms[0] = math.nan
    assert math.isnan(histories._max_residual(nan_norms, nan_residuals, parent, starts))
    # a NaN norm is not dead, so the late residual is tested
    largest = histories._max_residual(np.full_like(norms, math.nan), residuals, parent, starts)
    assert largest == residuals[starts[-2] - 1] and not largest <= 1.5e-4
    # nor does it revive a node whose own norm, or a lower ancestor's, is dead
    nan_norms = norms.copy()
    nan_norms[0] = math.nan
    largest = histories._max_residual(nan_norms, residuals, parent, starts)
    assert largest == histories._max_residual(norms, residuals, parent, starts) <= 1.5e-4


def test_every_residual_is_computed_past_a_failure():
    fam = _record_family()
    rows = [[(ev.label, ev.projector) for ev in h.events] for h in fam.histories]
    # drop z1+'s z2+ branch: the first failure is at depth 1, before the late one
    cut = family_from_event_table(fam.initial_state, fam.grid, fam.schedule,
                                  [r for r in rows if [e for e, _ in r[:2]] != ["z1+", "z2+"]])
    residuals = _reduction_inputs(cut)[1]
    assert np.isfinite(residuals).all()
    assert (residuals > 1e-3).sum() == 1 and (residuals > 1e-5).sum() == 2
    assert not check_consistency(cut, 1.5e-4).exhaustive


def _compiled_families() -> dict:
    """Fresh families, never walked: two driven by a field (a unitary family
    and a psiK collapse family) and a free z-ladder."""
    rows = list(_z_rows(4, Direction(1.1, 0.3)))
    return {
        "eq29-unitary": build_scenario(builtin_scenario("eq29-unitary")).families[0][1],
        "collapse-4": dict(_collapses())["collapse-4"],
        "z-ladder-4": family_from_event_table(oracles.ZP, _grid(4), Schedule.free(2), rows),
    }


# every read of a family, at one tol; a history's event is a proposition
READS = {
    "check_consistency": lambda fam, tol: check_consistency(fam, tol),
    "history_probability": lambda fam, tol: history_probability(fam.histories[0], fam, tol),
    "query": lambda fam, tol: query(fam, fam.histories[0].events[-1], tol),
    "chain_kets": lambda fam, tol: chain_kets(fam),
}


def _propagations(monkeypatch) -> list:
    """The arguments of each propagator call from now on. Only a walk calls
    ``histories.propagator`` (the traced ``dynamics.propagator``), once per
    event time."""
    calls = []

    def counted(*args):
        calls.append(args)
        return propagator(*args)

    propagator = histories.propagator
    monkeypatch.setattr(histories, "propagator", counted)
    return calls


def _assert_walks_once(monkeypatch, fam, first: str):
    """Read a fresh, consistent ``fam`` first by ``first``, then by every
    read at every tol: only the first read walks, with one propagator per
    event time, in order."""
    calls = _propagations(monkeypatch)
    READS[first](fam, 1e-9)
    times = [fam.grid.time_at(k) for k in range(1, fam.grid.n_events + 1)]
    assert [t for _, _, t in calls] == times
    for tol in TOLS:
        for read in READS.values():
            read(fam, tol)
    assert len(calls) == len(times)


def _kept_arrays(fam) -> tuple:
    """K and the probability array, which every read of ``fam`` shares: one
    read-only K that owns its rows (a view of the walk's node array would
    keep every inner node's ket alive), and one read-only probability array
    at every tol."""
    kets = chain_kets(fam)
    probabilities = check_consistency(fam, TOLS[0]).probabilities
    assert chain_kets(fam) is kets
    assert all(check_consistency(fam, tol).probabilities is probabilities for tol in TOLS)
    assert kets.shape == (len(fam.histories), fam.dim)
    assert probabilities.shape == (len(fam.histories),)
    for a in (kets, probabilities):
        assert a.base is None and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    return kets, probabilities


@pytest.mark.parametrize("name", ["eq29-unitary", "collapse-4", "z-ladder-4"])
def test_a_family_propagates_each_event_time_once(monkeypatch, name):
    fam = _compiled_families()[name]
    tols = (1e-12, 1e-9, 0.3)
    reports = [check_consistency(fam, tol) for tol in tols]
    event = fam.histories[0].events[-1]
    probability = history_probability(fam.histories[0], fam)
    answer = query(fam, Proposition(event.projector, event.time_index))
    kets = chain_kets(fam)
    # every read saw the same K, and gave the verdicts of a first read
    assert [check_consistency(fam, tol) for tol in tols] == reports
    assert probability == reports[0].probabilities[0]
    weights = reports[0].probabilities.tolist()
    assert answer.meaningful and answer.probability == sum(
        w for h, w in zip(fam.histories, weights) if h.events[-1].label == event.label)
    for tol, report in zip(tols, reports):
        want_kets, want_exhaustive = oracles.per_node_walk(fam, tol)
        assert kets.tobytes() == want_kets.tobytes()
        assert report.exhaustive is want_exhaustive
        d = want_kets.conj() @ want_kets.T
        assert report.probabilities.tobytes() == d.diagonal().real.tobytes()
    # and a fresh copy walked once to answer all of them
    _assert_walks_once(monkeypatch, _compiled_families()[name], "check_consistency")


@pytest.mark.parametrize("first", READS)
def test_only_a_family_s_first_read_forms_kets(monkeypatch, first):
    _assert_walks_once(monkeypatch, _compiled_families()["collapse-4"], first)


def test_families_made_from_a_walked_family_share_none_of_its_record():
    fam = _compiled_families()["collapse-4"]
    _assert_walks_like_the_oracle(fam)
    kept = _kept_arrays(fam)
    field = Segment(0.0, 4.0, 0.7 * spin_operator(Direction(2.0, 1.0)))
    derived = [
        replace(fam, schedule=Schedule(2, (field,))),
        replace(fam, grid=TimeGrid((0.0, 0.5, 1.5, 2.0, 3.0))),
        replace(fam, initial_state=oracles.XP),
        replace_events_with_identity(fam, 2),
        refine(fam, replace_events_with_identity(fam, 4)),
    ]
    for other in derived:
        _assert_walks_like_the_oracle(other)
        assert not any(np.shares_memory(a, b) for a in _kept_arrays(other) for b in kept)
    assert all(a is b for a, b in zip(_kept_arrays(fam), kept))


def test_chain_kets_returns_the_kept_read_only_k():
    fam = _compiled_families()["z-ladder-4"]
    kets = chain_kets(fam)
    # the K of the first read is the one every later read keeps
    check_consistency(fam, 0.3)
    assert chain_kets(fam) is kets
    with pytest.raises(ValueError, match="read-only"):
        kets[0, 0] = 1.0
    assert kets.tobytes() == oracles.per_node_walk(fam, 1e-9)[0].tobytes()


def test_k_owns_its_rows_and_keeps_no_inner_node():
    for name, fam in FAMILIES:
        kets, _ = _kept_arrays(fam)
        assert kets.tobytes() == oracles.per_node_walk(fam, 1e-9)[0].tobytes(), name


def test_a_walked_family_keeps_k_and_its_weights_only():
    # 256 histories over 8 times, so 255 inner nodes: one more kept per-node
    # array, such as their norms (2,040 B), would exceed the bound, while the
    # record's object and its floats take well under its 1,536 B of slack
    rows = list(_z_rows(8, Direction(1.1, 0.3)))

    def family():
        return family_from_event_table(oracles.ZP, _grid(8), Schedule.free(2), rows)

    check_consistency(family(), 1e-9)  # allocations that only a first walk makes
    fam = family()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        check_consistency(fam, 1e-9)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kets, probabilities = _kept_arrays(fam)
    assert kets.nbytes + probabilities.nbytes < kept <= kets.nbytes + probabilities.nbytes + 1536


def test_the_kept_walk_record_is_read_only():
    fam = _compiled_families()["collapse-4"]
    kets, probabilities = _kept_arrays(fam)
    with pytest.raises(AttributeError):
        fam.histories = fam.histories[:1]
    # a refused write leaves every read as it was
    assert chain_kets(fam) is kets and check_consistency(fam, 0.3).probabilities is probabilities


def test_a_re_read_family_still_walks_like_the_oracle():
    for name, fam in FAMILIES:
        reports = [check_consistency(fam, tol) for tol in TOLS]
        kets, probabilities = _kept_arrays(fam)
        for tol, report in zip(TOLS, reports):
            want_kets, want_exhaustive = oracles.per_node_walk(fam, tol)
            again = check_consistency(fam, tol)
            assert again == report and again.probabilities is probabilities, name
            assert chain_kets(fam) is kets and kets.tobytes() == want_kets.tobytes(), name
            assert again.exhaustive is want_exhaustive, (name, tol)


def _pair_searches(monkeypatch) -> list:
    """The tol of each pair search from now on, each of which forms D again."""
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return violating_pairs(*args)

    violating_pairs = histories._violating_pairs
    monkeypatch.setattr(histories, "_violating_pairs", counted)
    return calls


@pytest.mark.parametrize("first", ["check_consistency", "history_probability", "query"])
def test_only_a_consistent_family_s_first_check_forms_d(monkeypatch, first):
    fam = _compiled_families()["collapse-4"]
    searches = _pair_searches(monkeypatch)
    walks = _propagations(monkeypatch)
    READS[first](fam, 1e-9)
    for tol in (1e-9, 1e-3):
        READS["check_consistency"](fam, tol)
        READS["history_probability"](fam, tol)
        assert READS["query"](fam, tol).meaningful
    # D was formed once, by the first read's walk, and no check searched it
    assert searches == [] and len(walks) == fam.grid.n_events


def test_a_re_check_below_the_largest_entry_lists_its_pairs(monkeypatch):
    fam = build_scenario(builtin_scenario("eq23")).families[0][1]
    assert check_consistency(fam, 0.3).consistent  # |D(1, 3)| = |D(2, 4)| = 0.25
    calls = _pair_searches(monkeypatch)
    below = math.nextafter(0.25, 0.0)
    for tol in (0.25, below, 1e-9):
        report = check_consistency(fam, tol)
        want = check_consistency(build_scenario(builtin_scenario("eq23")).families[0][1], tol)
        _assert_same_report(report, want)
        assert report.consistent is (tol == 0.25)
    # the largest entry is 0.25: the kept family and the fresh ones alike
    # search only below it
    assert calls == [below, below, 1e-9, 1e-9]
    kets = chain_kets(fam)
    pairs = check_consistency(fam, 1e-9).violating_pairs
    assert [(i, j) for i, j, _ in pairs] == [(1, 3), (2, 4)]
    _assert_pairs_like_the_oracle(pairs, kets.conj() @ kets.T, 1e-9)


def _assert_pairs_like_the_oracle(pairs, overlaps, tol):
    for column, expected in zip((pairs.i, pairs.j, pairs.overlaps),
                                oracles.violating_pairs(overlaps, tol)):
        assert column.tobytes() == expected.tobytes()


def _machine(report) -> str:
    return render_report_machine(Report("kept", (FamilyResult(
        "f", report.consistent, report.exhaustive, report.violating_pairs,
        report.probabilities),)))


def _assert_same_report(got, want):
    """Equal flags and pairs, the same bits, and the same machine bytes."""
    assert (got.consistent, got.exhaustive) == (want.consistent, want.exhaustive)
    columns = ((r.violating_pairs.i, r.violating_pairs.j, r.violating_pairs.overlaps)
               for r in (got, want))
    for a, b in zip(*columns):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert got.probabilities.tobytes() == want.probabilities.tobytes()
    assert np.float64(got.probability_sum).tobytes() == np.float64(want.probability_sum).tobytes()
    assert _machine(got) == _machine(want)


# eight histories over three times, for drawn propagators of one spin
_ROWS = list(_z_rows(3, Direction(1.1, 0.3)))
# parts of a drawn propagator entry: zero, round-off to order one, and non-finite
_ENTRY_PARTS = (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.7, math.nan, math.inf)
_CHECK_TOLS = (1e-12, 1e-9, 1e-5, 1e-3, 0.1, 0.5, 2.0)


@st.composite
def _propagators(draw):
    """N = 1..8 histories, and the 2 x 2 matrix a patched propagator returns
    at each of the three event times: finite in half the draws."""
    n = draw(st.integers(1, len(_ROWS)))
    parts = _ENTRY_PARTS if draw(st.booleans()) else _ENTRY_PARTS[:-2]
    entries = [complex(*(draw(st.sampled_from(parts)) * draw(st.sampled_from((1, -1)))
                         for _ in range(2))) for _ in range(3 * 4)]
    return n, np.array(entries, dtype=complex).reshape(3, 2, 2)


@settings(max_examples=200, deadline=None)
@given(_propagators(), st.data())
def test_a_kept_family_checks_like_a_fresh_one_at_every_tol(case, data):
    # a sequence of tols around the largest |D(i, j)| over i < j, with that
    # entry and its neighbouring floats among them
    n, matrices = case

    def family():
        return family_from_event_table(oracles.ZP, _grid(3), Schedule.free(2), _ROWS[:n])

    with pytest.MonkeyPatch.context() as patch, np.errstate(invalid="ignore", over="ignore"):
        patch.setattr(histories, "propagator", lambda schedule, t0, t: matrices[int(t) - 1])
        kept = family()
        kets = chain_kets(kept)
        overlaps = kets.conj() @ kets.T  # inf * 0 in D
        tols = list(_CHECK_TOLS)
        largest = float(np.triu(np.abs(overlaps), 1).max())
        if 0.0 < largest < math.inf:
            tols += [largest, math.nextafter(largest, 0.0), math.nextafter(largest, math.inf)]
        for tol in data.draw(st.lists(st.sampled_from(tols), min_size=1, max_size=6)):
            report = check_consistency(kept, tol)
            _assert_same_report(report, check_consistency(family(), tol))
            _assert_pairs_like_the_oracle(report.violating_pairs, overlaps, tol)
