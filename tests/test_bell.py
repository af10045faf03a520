import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qhist.bell import (
    EPS_BELL,
    JointDistribution,
    LambdaModel,
    LambdaTerm,
    Settings,
    check_factorization,
    chsh,
    chsh_value,
    correlation,
    deterministic_model,
    deterministic_strategies,
    lhv_classical_bound,
    local_model_exists,
    singlet_joint,
    singlet_table,
)
from qhist.dynamics import Schedule, TimeGrid
from qhist.histories import check_consistency, family_from_event_table
from qhist.linalg import EPS_CONS, as_projector, tensor
from qhist.spin import MINUS_Z, X, Z, Direction, basis_for, singlet

GRID2 = TimeGrid((0.0, 1.0))


def coplanar(deg: float) -> Direction:
    return Direction(math.radians(deg), 0.0)


def test_singlet_joint_same_axis():
    joint = singlet_joint(Settings(Z, Z))
    assert joint.pp == pytest.approx(0.0, abs=EPS_BELL)
    assert joint.mm == pytest.approx(0.0, abs=EPS_BELL)
    assert joint.pm == pytest.approx(0.5, abs=EPS_BELL)
    assert joint.mp == pytest.approx(0.5, abs=EPS_BELL)


def test_singlet_joint_perpendicular_axes():
    joint = singlet_joint(Settings(Z, X))
    for p in (joint.pp, joint.pm, joint.mp, joint.mm):
        assert p == pytest.approx(0.25, abs=EPS_BELL)


def test_singlet_joint_opposite_axes():
    joint = singlet_joint(Settings(Z, MINUS_Z))
    assert joint.pp == pytest.approx(0.5, abs=EPS_BELL)
    assert joint.pm == pytest.approx(0.0, abs=EPS_BELL)


def _chain_ket_joint(a: Direction, b: Direction) -> JointDistribution:
    """Independent route: probabilities of the four singlet histories."""
    ba, bb = basis_for(a), basis_for(b)
    probs = {}
    for sa, va in ((+1, ba.plus), (-1, ba.minus)):
        for sb, vb in ((+1, bb.plus), (-1, bb.minus)):
            proj = as_projector(tensor(oracles.proj(va), oracles.proj(vb)))
            ket = proj.matrix @ singlet()
            probs[(sa, sb)] = float(np.vdot(ket, ket).real)
    return JointDistribution(
        probs[(1, 1)], probs[(1, -1)], probs[(-1, 1)], probs[(-1, -1)]
    )


def test_singlet_joint_matches_chain_ket_engine(rng):
    for _ in range(40):
        a = Direction(*oracles.random_direction(rng))
        b = Direction(*oracles.random_direction(rng))
        closed = singlet_joint(Settings(a, b))
        engine = _chain_ket_joint(a, b)
        for sa, sb in product((1, -1), repeat=2):
            assert closed.prob(sa, sb) == pytest.approx(
                engine.prob(sa, sb), abs=EPS_CONS
            )


def test_singlet_joint_matches_family_probabilities(rng):
    # dual route: the closed form against check_consistency on the family
    a = Direction(*oracles.random_direction(rng))
    b = Direction(*oracles.random_direction(rng))
    ba, bb = basis_for(a), basis_for(b)
    rows = []
    for sa, va in (("+", ba.plus), ("-", ba.minus)):
        for sb, vb in (("+", bb.plus), ("-", bb.minus)):
            proj = as_projector(tensor(oracles.proj(va), oracles.proj(vb)), f"{sa}{sb}")
            rows.append([(f"{sa}{sb}", proj)])
    fam = family_from_event_table(singlet(), GRID2, Schedule.free(4), rows)
    report = check_consistency(fam)
    assert report.consistent
    joint = singlet_joint(Settings(a, b))
    expected = (joint.pp, joint.pm, joint.mp, joint.mm)
    assert report.probabilities == pytest.approx(expected, abs=EPS_CONS)


def test_correlation_values():
    assert correlation(Settings(Z, Z)) == pytest.approx(-1.0, abs=EPS_BELL)
    assert correlation(Settings(Z, X)) == pytest.approx(0.0, abs=EPS_BELL)
    assert correlation(Settings(coplanar(0), coplanar(45))) == pytest.approx(
        -1 / math.sqrt(2), abs=EPS_BELL
    )


def test_correlation_is_minus_cosine_and_symmetric(rng):
    for _ in range(25):
        a = Direction(*oracles.random_direction(rng))
        b = Direction(*oracles.random_direction(rng))
        cos = float(a.unit_vector @ b.unit_vector)
        assert correlation(Settings(a, b)) == pytest.approx(-cos, abs=1e-12)
        assert correlation(Settings(b, a)) == pytest.approx(
            correlation(Settings(a, b)), abs=1e-12
        )


def test_chsh_optimal_settings():
    s = chsh(coplanar(0), coplanar(90), coplanar(45), coplanar(135))
    assert abs(s) == pytest.approx(2 * math.sqrt(2), abs=EPS_BELL)


def test_chsh_degenerate_settings():
    d = coplanar(30)
    assert abs(chsh(d, d, d, d)) == pytest.approx(2.0, abs=EPS_BELL)
    a, b = coplanar(0), coplanar(60)
    s = chsh(a, a, b, b)
    assert s == pytest.approx(2 * correlation(Settings(a, b)), abs=EPS_BELL)
    assert abs(s) <= 2.0 + EPS_BELL


def test_chsh_grid_scan_confirms_maximum():
    # coarse coplanar scan: nothing beats 2*sqrt(2), and the optimum is hit
    angles = [k * 11.25 for k in range(16)]
    best = 0.0
    for a, ap, b, bp in product(angles, repeat=4):
        s = abs(
            chsh_value(
                -math.cos(math.radians(b - a)),
                -math.cos(math.radians(bp - a)),
                -math.cos(math.radians(b - ap)),
                -math.cos(math.radians(bp - ap)),
            )
        )
        best = max(best, s)
    assert best <= 2 * math.sqrt(2) + 1e-9
    assert best == pytest.approx(2 * math.sqrt(2), abs=1e-9)


def test_lhv_classical_bound_is_two():
    assert lhv_classical_bound() == pytest.approx(2.0, abs=0.0)
    assert len(deterministic_strategies()) == 16


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lambda_models_respect_chsh_bound(seed):
    gen = np.random.default_rng(seed)
    a, ap, b, bp = (Direction(*oracles.random_direction(gen)) for _ in range(4))
    weights = gen.dirichlet(np.ones(4))
    terms = tuple(
        LambdaTerm(
            weight=float(w),
            response_a={a: gen.uniform(), ap: gen.uniform()},
            response_b={b: gen.uniform(), bp: gen.uniform()},
        )
        for w in weights
    )
    model = LambdaModel(terms)
    s = chsh_value(
        model.correlation(Settings(a, b)),
        model.correlation(Settings(a, bp)),
        model.correlation(Settings(ap, b)),
        model.correlation(Settings(ap, bp)),
    )
    assert abs(s) <= 2.0 + EPS_BELL


def test_mixtures_never_beat_deterministic_maximum(rng):
    a, ap, b, bp = (coplanar(x) for x in (0, 90, 45, 135))
    dirs_a, dirs_b = [a, ap], [b, bp]
    for _ in range(50):
        weights = rng.dirichlet(np.ones(16))
        terms = []
        for w, (ra, rap, rb, rbp) in zip(weights, deterministic_strategies()):
            terms.append(
                deterministic_model(
                    dirs_a, dirs_b,
                    {a: ra, ap: rap}, {b: rb, bp: rbp},
                    weight=float(w),
                )
            )
        model = LambdaModel(tuple(terms))
        s = chsh_value(
            model.correlation(Settings(a, b)),
            model.correlation(Settings(a, bp)),
            model.correlation(Settings(ap, b)),
            model.correlation(Settings(ap, bp)),
        )
        assert abs(s) <= 2.0 + EPS_BELL


def test_bertlmann_socks_model_reproduces_same_axis_table():
    axes = [Z, X]
    settings_list = [Settings(w, w) for w in axes]
    table = singlet_table(settings_list)
    plus_minus = deterministic_model(
        axes, axes, {w: +1 for w in axes}, {w: -1 for w in axes}, weight=0.5
    )
    minus_plus = deterministic_model(
        axes, axes, {w: -1 for w in axes}, {w: +1 for w in axes}, weight=0.5
    )
    model = LambdaModel((plus_minus, minus_plus))
    verdict = check_factorization(model, table)
    assert verdict.factorizes
    assert verdict.max_deviation <= EPS_BELL


def test_no_lambda_model_matches_optimal_settings_table(rng):
    a, ap, b, bp = (coplanar(x) for x in (0, 90, 45, 135))
    table = singlet_table(
        [Settings(a, b), Settings(a, bp), Settings(ap, b), Settings(ap, bp)]
    )
    models = []
    for ra, rap, rb, rbp in deterministic_strategies():
        models.append(
            LambdaModel(
                (
                    deterministic_model(
                        [a, ap], [b, bp], {a: ra, ap: rap}, {b: rb, bp: rbp}
                    ),
                )
            )
        )
    for _ in range(50):
        weights = rng.dirichlet(np.ones(16))
        terms = tuple(
            deterministic_model(
                [a, ap], [b, bp], {a: ra, ap: rap}, {b: rb, bp: rbp}, weight=float(w)
            )
            for w, (ra, rap, rb, rbp) in zip(weights, deterministic_strategies())
        )
        models.append(LambdaModel(terms))
    for model in models:
        verdict = check_factorization(model, table)
        assert not verdict.factorizes
        assert verdict.max_deviation > 1e-3


def test_check_factorization_empty_table_is_vacuous():
    model = LambdaModel(
        (LambdaTerm(weight=1.0, response_a={Z: 1.0}, response_b={Z: 0.0}),)
    )
    verdict = check_factorization(model, ())
    assert verdict.factorizes
    assert verdict.max_deviation == 0.0


def test_joint_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        JointDistribution(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        JointDistribution(-0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        JointDistribution(math.nan, 0.5, 0.25, 0.25)


def test_lambda_model_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        LambdaModel((LambdaTerm(0.5, {Z: 1.0}, {Z: 1.0}),))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        LambdaTerm(1.0, {Z: 1.5}, {Z: 0.0})
    with pytest.raises(ValueError, match="nonnegative"):
        LambdaTerm(-1.0, {Z: 1.0}, {Z: 0.0})
    with pytest.raises(ValueError, match="nonnegative"):
        LambdaTerm(math.nan, {Z: 1.0}, {Z: 0.0})


def test_joint_rows_sum_to_one(rng):
    for _ in range(20):
        s = Settings(
            Direction(*oracles.random_direction(rng)),
            Direction(*oracles.random_direction(rng)),
        )
        joint = singlet_joint(s)
        total = joint.pp + joint.pm + joint.mp + joint.mm
        assert total == pytest.approx(1.0, abs=1e-12)


# random directions from raw angles, in range or not
raw_angles = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(raw_angles, raw_angles)
def test_correlation_is_minus_dot_and_bounded(a, b):
    e = correlation(Settings(Direction(*a), Direction(*b)))
    assert abs(e) <= 1.0 + 1e-15
    assert e == pytest.approx(-oracles.unit(*a) @ oracles.unit(*b), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(raw_angles, raw_angles, raw_angles, raw_angles)
def test_chsh_is_chsh_value_of_correlations_and_obeys_tsirelson(a, ap, b, bp):
    a, ap, b, bp = (Direction(*x) for x in (a, ap, b, bp))
    s = chsh(a, ap, b, bp)
    assert s == chsh_value(
        correlation(Settings(a, b)),
        correlation(Settings(a, bp)),
        correlation(Settings(ap, b)),
        correlation(Settings(ap, bp)),
    )
    assert abs(s) <= 2 * math.sqrt(2) + EPS_BELL


def _table(a, ap, b, bp, joint):
    return tuple(
        (s, joint(s))
        for s in (Settings(a, b), Settings(a, bp), Settings(ap, b), Settings(ap, bp))
    )


def test_no_local_model_for_the_singlet_at_optimal_settings():
    a, ap, b, bp = (coplanar(x) for x in (0, 90, 45, 135))
    verdict = local_model_exists(_table(a, ap, b, bp, singlet_joint))
    assert not verdict.exists
    assert verdict.margin == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-12)
    # S = -2*sqrt(2) here, so the negated CHSH sum is the one violated
    assert verdict.inequality == "-E(a,b) + E(a,b') - E(a',b) - E(a',b') <= 2"


def test_local_model_on_the_chsh_boundary():
    d = coplanar(30)
    verdict = local_model_exists(_table(d, d, d, d, singlet_joint))
    assert verdict.exists
    assert abs(verdict.margin) <= EPS_BELL


def test_local_model_for_the_bertlmann_socks_settings():
    verdict = local_model_exists(_table(Z, X, Z, X, singlet_joint))
    assert verdict.exists
    assert abs(verdict.margin) <= EPS_BELL


def test_local_model_for_every_deterministic_model_and_mixtures(rng):
    a, ap, b, bp = (Direction(*oracles.random_direction(rng)) for _ in range(4))
    terms = [
        deterministic_model([a, ap], [b, bp], {a: ra, ap: rap}, {b: rb, bp: rbp})
        for ra, rap, rb, rbp in deterministic_strategies()
    ]
    for term in terms:
        verdict = local_model_exists(_table(a, ap, b, bp, LambdaModel((term,)).joint))
        assert verdict.exists
        assert verdict.margin == 0.0  # one deterministic model sits on a facet
    for _ in range(50):
        weights = rng.dirichlet(np.ones(16))
        model = LambdaModel(tuple(
            LambdaTerm(float(w), t.response_a, t.response_b) for w, t in zip(weights, terms)
        ))
        assert local_model_exists(_table(a, ap, b, bp, model.joint)).exists


def test_signalling_table_has_no_local_model():
    a, ap, b, bp = (coplanar(x) for x in (0, 90, 45, 135))
    uniform = JointDistribution(0.25, 0.25, 0.25, 0.25)
    joints = {
        Settings(a, b): JointDistribution(1.0, 0.0, 0.0, 0.0),  # A = + with b
        Settings(a, bp): JointDistribution(0.0, 0.0, 0.0, 1.0),  # A = - with b'
    }
    verdict = local_model_exists(_table(a, ap, b, bp, lambda s: joints.get(s, uniform)))
    assert not verdict.exists
    assert verdict.inequality == "P(A=+|a,b) = P(A=+|a,b')"
    assert verdict.margin == pytest.approx(1.0)


def test_local_model_table_shape_is_checked():
    a, ap, b, bp = (coplanar(x) for x in (0, 90, 45, 135))
    table = _table(a, ap, b, bp, singlet_joint)
    with pytest.raises(ValueError, match="four"):
        local_model_exists(table[:3])
    with pytest.raises(ValueError, match="order"):
        local_model_exists(table[::-1][:2] + table[2:])
