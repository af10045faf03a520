import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qhist.linalg import EPS_NORM, EPS_OP, inner, max_abs, states_equal_up_to_phase, tensor
from qhist.spin import (
    MINUS_Z,
    X,
    Y,
    Z,
    Direction,
    angle_between,
    basis_for,
    born_probability,
    singlet,
    spin_operator,
    spin_projector,
)

directions = st.builds(
    Direction,
    theta=st.floats(0.0, math.pi, allow_nan=False),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True, allow_nan=False),
)


def test_basis_for_z_is_computational():
    b = basis_for(Z)
    assert np.allclose(b.plus, oracles.ZP)
    assert np.allclose(b.minus, oracles.ZM)


def test_basis_for_x_expansion_of_z_plus():
    # |z+> = (|x+> + |x->)/sqrt(2) holds up to the phase convention of |x->,
    # so compare squared overlaps.
    b = basis_for(X)
    assert np.allclose(b.plus, oracles.XP)
    assert abs(inner(b.plus, oracles.ZP)) ** 2 == pytest.approx(0.5, abs=EPS_NORM)
    assert abs(inner(b.minus, oracles.ZP)) ** 2 == pytest.approx(0.5, abs=EPS_NORM)


def test_basis_for_y_expansion_of_z_plus():
    b = basis_for(Y)
    assert abs(inner(b.plus, oracles.ZP)) ** 2 == pytest.approx(0.5, abs=EPS_NORM)
    assert abs(inner(b.minus, oracles.ZP)) ** 2 == pytest.approx(0.5, abs=EPS_NORM)


@settings(max_examples=100, deadline=None)
@given(directions)
def test_basis_orthonormal(w):
    b = basis_for(w)
    assert inner(b.plus, b.plus) == pytest.approx(1.0, abs=EPS_NORM)
    assert inner(b.minus, b.minus) == pytest.approx(1.0, abs=EPS_NORM)
    assert abs(inner(b.plus, b.minus)) <= EPS_NORM


def test_basis_at_theta_pi():
    b = basis_for(MINUS_Z)
    assert states_equal_up_to_phase(b.plus, oracles.ZM)
    assert states_equal_up_to_phase(b.minus, oracles.ZP)


def test_spin_operator_z():
    assert np.allclose(spin_operator(Z), np.diag([0.5, -0.5]))


def test_spin_operator_xyz_match_pauli():
    assert np.allclose(spin_operator(X), oracles.SX, atol=EPS_OP)
    assert np.allclose(spin_operator(Y), oracles.SY, atol=EPS_OP)


def test_spin_operator_expectation_in_z_plus():
    # hand matrix product: <z+| S_x |z+> = 0
    val = oracles.ZP.conj() @ (spin_operator(X) @ oracles.ZP)
    assert val == pytest.approx(0.0, abs=EPS_OP)


@settings(max_examples=60, deadline=None)
@given(directions)
def test_spin_operator_eigenrelation(w):
    s = spin_operator(w)
    b = basis_for(w)
    assert np.allclose(s @ b.plus, 0.5 * b.plus, atol=EPS_OP)
    assert np.allclose(s @ b.minus, -0.5 * b.minus, atol=EPS_OP)
    assert abs(np.trace(s)) <= EPS_OP
    assert np.allclose(sorted(np.linalg.eigvalsh(s)), [-0.5, 0.5], atol=EPS_OP)


@settings(max_examples=60, deadline=None)
@given(directions)
def test_spin_operator_is_exactly_self_adjoint(w):
    # exact, not within EPS_OP: a field omega * S_w must stay self-adjoint
    # for any finite omega (w(1.1, 0.3) used to miss by 2.9e-18)
    for d in (w, Direction(1.1, 0.3)):
        s = spin_operator(d)
        assert np.array_equal(s, s.conj().T)
        assert np.array_equal(1e300 * s, (1e300 * s).conj().T)


@settings(max_examples=60, deadline=None)
@given(directions)
def test_spin_operator_is_projector_difference(w):
    s = spin_operator(w)
    diff = 0.5 * (spin_projector(w, +1).matrix - spin_projector(w, -1).matrix)
    assert max_abs(s - diff) <= EPS_OP


def test_spin_commutation_relations():
    sx, sy, sz = spin_operator(X), spin_operator(Y), spin_operator(Z)
    assert max_abs(sx @ sy - sy @ sx - 1j * sz) <= EPS_OP
    assert max_abs(sy @ sz - sz @ sy - 1j * sx) <= EPS_OP
    assert max_abs(sz @ sx - sx @ sz - 1j * sy) <= EPS_OP


def test_total_spin_squared_is_three_quarters(rng):
    s2 = sum(spin_operator(w) @ spin_operator(w) for w in (X, Y, Z))
    assert np.allclose(s2, 0.75 * np.eye(2), atol=EPS_OP)
    for _ in range(20):
        v = oracles.random_state(rng, 2)
        assert (v.conj() @ (s2 @ v)).real == pytest.approx(0.75, abs=1e-10)


def test_born_rule_z_plus_table():
    assert born_probability(oracles.ZP, Z, +1) == pytest.approx(1.0, abs=1e-12)
    assert born_probability(oracles.ZP, Z, -1) == pytest.approx(0.0, abs=1e-12)
    assert born_probability(oracles.ZP, X, +1) == pytest.approx(0.5, abs=1e-12)
    assert born_probability(oracles.ZP, Y, +1) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, math.pi, allow_nan=False))
def test_born_rule_tilted_axis(theta):
    # closed form for |z+> measured along an axis tilted by theta
    p = born_probability(oracles.ZP, Direction(theta, 0.0), +1)
    assert p == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(directions, st.integers(0, 2**32 - 1))
def test_born_rule_signs_sum_to_one(w, seed):
    state = oracles.random_state(np.random.default_rng(seed), 2)
    total = born_probability(state, w, +1) + born_probability(state, w, -1)
    assert total == pytest.approx(1.0, abs=EPS_NORM)


def test_born_rule_rejects_bad_input():
    with pytest.raises(ValueError, match="dim 2"):
        born_probability(np.array([1, 0, 0, 0]), Z, +1)
    with pytest.raises(ValueError, match="normalized"):
        born_probability(np.array([1.0, 1.0]), Z, +1)
    with pytest.raises(ValueError, match="sign"):
        born_probability(oracles.ZP, Z, 0)


def test_singlet_amplitudes():
    expected = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    assert np.allclose(singlet(), expected, atol=EPS_NORM)


def test_singlet_direction_independent(rng):
    for _ in range(20):
        theta, phi = oracles.random_direction(rng)
        rebuilt = singlet(Direction(theta, phi))
        assert states_equal_up_to_phase(rebuilt, singlet())


def test_singlet_total_spin_zero():
    total = [
        tensor(spin_operator(w), oracles.I2) + tensor(oracles.I2, spin_operator(w))
        for w in (X, Y, Z)
    ]
    s2 = sum(t @ t for t in total)
    assert np.allclose(s2 @ singlet(), np.zeros(4), atol=EPS_OP)


def test_angle_between():
    assert angle_between(Z, Z) == pytest.approx(0.0)
    assert angle_between(Z, X) == pytest.approx(math.pi / 2)
    assert angle_between(Z, MINUS_Z) == pytest.approx(math.pi)


def test_direction_rejects_non_finite():
    with pytest.raises(ValueError):
        Direction(math.inf, 0.0)


# finite angles well outside the documented ranges
raw_angles = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))


@pytest.mark.parametrize(
    "theta, phi",
    [(7.0, 0.0), (math.radians(270), 0.0), (-0.5, 1.0), (1.0, -7.0), (2 * math.pi, 0.0)],
)
def test_out_of_range_angles_are_canonicalized(theta, phi):
    d = Direction(theta, phi)
    assert 0.0 <= d.theta <= math.pi
    assert 0.0 <= d.phi < 2 * math.pi
    assert max_abs(d.unit_vector - oracles.unit(theta, phi)) <= 1e-15
    for sign in (+1, -1):
        raw = oracles.proj(oracles.ket(theta, phi, sign))
        assert max_abs(spin_projector(d, sign).matrix - raw) <= EPS_OP


def test_in_range_angles_keep_their_bits():
    for theta, phi in ((0.0, 0.0), (-0.0, -0.0), (math.pi, 0.0), (1.1, 0.3),
                       (0.5, math.nextafter(2 * math.pi, 0.0))):
        d = Direction(theta, phi)
        assert (d.theta.hex(), d.phi.hex()) == (theta.hex(), phi.hex())
    assert repr(Direction(1.1, 0.3)) == "Direction(theta=1.1, phi=0.3)"


@settings(max_examples=200, deadline=None)
@given(raw_angles)
def test_canonical_direction_is_the_same_direction(angles):
    d = Direction(*angles)
    assert 0.0 <= d.theta <= math.pi
    assert 0.0 <= d.phi < 2 * math.pi
    assert max_abs(d.unit_vector - oracles.unit(*angles)) <= 1e-14
    again = Direction(d.theta, d.phi)
    assert again == d and hash(again) == hash(d)
    assert (again.theta.hex(), again.phi.hex()) == (d.theta.hex(), d.phi.hex())
