import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qhist.linalg import (
    EPS_NORM,
    EPS_OP,
    Projector,
    as_operator,
    as_projector,
    commutes,
    identity,
    identity_projector,
    inner,
    is_projector,
    max_abs,
    normalized,
    projector_onto,
    states_equal_up_to_phase,
    tensor,
    unitary_exp,
)
from qhist.scenario import BUILTIN_SOURCES, build_scenario, builtin_scenario
from qhist.spin import basis_for, Direction


def test_inner_orthonormal_basis(rng):
    for _ in range(20):
        theta, phi = oracles.random_direction(rng)
        b = basis_for(Direction(theta, phi))
        assert inner(b.plus, b.plus) == pytest.approx(1.0, abs=EPS_NORM)
        assert inner(b.minus, b.minus) == pytest.approx(1.0, abs=EPS_NORM)
        assert abs(inner(b.plus, b.minus)) <= EPS_NORM


def test_inner_unit_vector():
    v = np.array([3 / 5, 4j / 5])
    assert inner(v, v) == pytest.approx(1.0, abs=EPS_NORM)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner(np.ones(2), np.ones(4))


def test_inner_conjugate_linearity(rng):
    u = oracles.random_state(rng, 4)
    v = oracles.random_state(rng, 4)
    c = 0.3 - 1.2j
    assert inner(c * u, v) == pytest.approx(np.conj(c) * inner(u, v))
    assert inner(u, c * v) == pytest.approx(c * inner(u, v))
    assert inner(u, u).imag == pytest.approx(0.0, abs=EPS_NORM)
    assert inner(u, u).real >= 0


def test_inner_adjoint_consistency(rng):
    for dim in (2, 4, 8):
        for _ in range(10):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            u = oracles.random_state(rng, dim)
            v = oracles.random_state(rng, dim)
            lhs = inner(u, a @ v)
            rhs = inner(a.conj().T @ u, v)
            assert lhs == pytest.approx(rhs, abs=EPS_OP)


def test_tensor_identity():
    assert np.array_equal(tensor(identity(2), identity(2)), identity(4))


def test_tensor_basis_ordering():
    got = tensor(oracles.ZP, oracles.ZM)
    assert np.array_equal(got, np.array([0, 1, 0, 0], dtype=complex))


def test_tensor_disjoint_subsystems_commute():
    a = tensor(oracles.proj(oracles.ZP), oracles.I2)
    b = tensor(oracles.I2, oracles.proj(oracles.XP))
    assert commutes(a, b)


def test_tensor_associative_exact(rng):
    # dyadic-rational entries keep every scalar product exactly representable,
    # so association order cannot change a single bit
    mats = [
        (rng.integers(-8, 9, size=(2, 2)) + 1j * rng.integers(-8, 9, size=(2, 2))) / 4.0
        for _ in range(3)
    ]
    left = tensor(tensor(mats[0], mats[1]), mats[2])
    right = tensor(mats[0], tensor(mats[1], mats[2]))
    assert np.array_equal(left, right)


def test_tensor_associative_generic(rng):
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    left = tensor(tensor(mats[0], mats[1]), mats[2])
    right = tensor(mats[0], tensor(mats[1], mats[2]))
    assert np.allclose(left, right, rtol=1e-15, atol=0.0)


def test_tensor_rejects_mixed_kinds():
    with pytest.raises(ValueError):
        tensor(oracles.ZP, oracles.I2)
    with pytest.raises(ValueError, match="two vectors or two square operators"):
        tensor(oracles.I2, oracles.ZP)
    with pytest.raises(ValueError, match="two vectors or two square operators"):
        tensor(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="square operator"):
        tensor(np.zeros((2, 3)), oracles.I2)
    with pytest.raises(ValueError, match="non-finite"):
        tensor(oracles.I2, np.full((2, 2), math.nan))


def test_tensor_is_bitwise_np_kron(rng):
    # each entry is one product a[i] * b[j], as np.kron forms it
    for _ in range(200):
        u, v = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        for x, y in ((u, v), (a, b), (oracles.I2, a), (b, oracles.I2)):
            got, want = tensor(x, y), np.kron(x, y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    assert tensor([1, 0], [0, 1]).dtype == complex  # lists are coerced to complex


def test_projector_onto_z_plus():
    p = projector_onto(oracles.ZP, "z+")
    assert np.allclose(p.matrix, np.diag([1.0, 0.0]))
    assert p.label == "z+"


def test_projector_onto_x_plus():
    # outer product of (1,1)/sqrt(2) with itself: every entry 1/2
    p = projector_onto(oracles.XP)
    assert np.allclose(p.matrix, np.full((2, 2), 0.5), atol=EPS_OP)
    assert np.trace(p.matrix).real == pytest.approx(1.0, abs=EPS_OP)


def test_projector_rank_one_action(rng):
    v = oracles.random_state(rng, 4)
    p = projector_onto(v)
    for _ in range(5):
        u = oracles.random_state(rng, 4)
        assert np.allclose(p.matrix @ u, inner(v, u) * v, atol=EPS_OP)
    assert np.allclose(p.matrix @ v, v, atol=EPS_OP)


def test_projector_onto_normalizes_input():
    p = projector_onto(np.array([2.0, 0.0]))
    assert np.allclose(p.matrix, np.diag([1.0, 0.0]))


def test_projector_onto_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        projector_onto(np.zeros(2))


def test_projector_certification(rng):
    for _ in range(10):
        v = oracles.random_state(rng, 4)
        m = projector_onto(v).matrix
        assert max_abs(m @ m - m) <= EPS_OP
        assert max_abs(m - m.conj().T) <= EPS_OP
    with pytest.raises(ValueError, match="idempotent"):
        as_projector(np.diag([1.0, 0.5]))
    with pytest.raises(ValueError, match="self-adjoint"):
        as_projector(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        Projector(np.array([[math.nan, 0.0], [0.0, 1.0]]), "p")


def test_projector_matrix_read_only():
    p = identity_projector(2)
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 5.0


def test_unitary_exp_zero_hamiltonian():
    u = unitary_exp(np.zeros((3, 3)), duration=7.3)
    assert np.allclose(u, identity(3), atol=EPS_OP)


def test_unitary_exp_y_rotation_by_pi():
    # closed-form oracle: a pi turn about y sends |z+> to |z-> up to phase
    u = unitary_exp(oracles.SY * 2.0, duration=math.pi / 2)
    assert np.allclose(u, oracles.rotation_y(math.pi), atol=EPS_OP)
    assert states_equal_up_to_phase(u @ oracles.ZP, oracles.ZM)


def test_unitary_exp_matches_closed_form(rng):
    for _ in range(20):
        theta, phi = oracles.random_direction(rng)
        angle = rng.uniform(-6, 6)
        n = np.array([
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ])
        h = n[0] * oracles.SX + n[1] * oracles.SY + n[2] * oracles.SZ
        got = unitary_exp(h, angle)
        assert np.allclose(got, oracles.axis_exponential(theta, phi, angle), atol=1e-12)


def test_unitary_exp_unitarity_random(rng):
    for dim in (2, 3, 4, 8):
        for _ in range(5):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (a + a.conj().T) / 2
            u = unitary_exp(h, rng.uniform(0, 10))
            assert max_abs(u.conj().T @ u - identity(dim)) <= 10 * EPS_OP


def test_unitary_exp_rejects_non_hermitian():
    with pytest.raises(ValueError, match="self-adjoint"):
        unitary_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("scale, duration", [(1e300, 2e10), (1e300, -2e10), (1.0, math.inf),
                                             (1.0, math.nan)])
def test_unitary_exp_rejects_a_phase_too_large_to_represent(scale, duration):
    with pytest.raises(ValueError, match="not finite"):
        unitary_exp(scale * oracles.SZ, duration)


def test_normalized_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite"):
        normalized([math.nan, 1.0])


def test_inner_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="non-finite"):
        inner([math.inf, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        inner([1.0, 0.0], [complex(0.0, math.nan), 0.0])


def test_operators_reject_non_finite_entries():
    for bad in ([[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.inf], [math.inf, 1.0]]):
        with pytest.raises(ValueError, match="projector 'q': operator has non-finite"):
            as_projector(bad, "q")
        with pytest.raises(ValueError, match="non-finite"):
            commutes(bad, identity(2))


def test_operators_must_be_square():
    for shape in ((2, 3), (2,), (0, 0)):
        with pytest.raises(ValueError, match=rf"expected a square operator, got shape \({shape[0]},"):
            as_operator(np.zeros(shape))


def test_commutes_same_basis():
    zp = projector_onto(oracles.ZP).matrix
    zm = projector_onto(oracles.ZM).matrix
    assert commutes(zp, zm)
    assert commutes(zp, identity(2))


def test_commutes_incompatible_projectors():
    xp = projector_onto(oracles.XP).matrix
    yp = projector_onto(np.array([1, 1j]) / math.sqrt(2)).matrix
    assert not commutes(xp, yp)


def test_commutes_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        commutes(identity(2), identity(4))


def test_is_projector():
    assert is_projector(np.diag([1.0, 0.0, 1.0]))
    assert not is_projector(np.diag([1.0, 2.0]))


def test_a_square_that_overflows_is_not_idempotent():
    # m @ m - m overflows to NaN, which must fail the test, and warn nothing
    # (tier-1 turns a RuntimeWarning into an error)
    m = np.array([[0, 1e200 + 1e200j], [1e200 - 1e200j, 0]])
    with pytest.raises(ValueError, match="not idempotent"):
        as_projector(m)
    assert not is_projector(m)


def test_a_difference_or_commutator_that_overflows_fails_without_a_warning():
    # m - m^dagger overflows to inf, and [p, q] to NaN; both fail their
    # test and warn nothing
    m = np.array([[0, 1.7e308], [-1.7e308, 0]])
    with pytest.raises(ValueError, match="not self-adjoint"):
        as_projector(m)
    assert not is_projector(m)
    with pytest.raises(ValueError, match="self-adjoint"):
        unitary_exp(m, 1.0)
    assert not commutes([[1e200, 0], [0, 0]], [[0, 1e200], [1e200, 0]])


def _max_abs_by_np_max(m) -> float:
    """The max-norm as np.max reduces it: the reference for max_abs."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def test_max_abs_is_np_max_bit_for_bit(rng):
    cases = [[1.0, -3.5j], [[0.5, -2.0], [1j, 0.0]], [], 2.5, -7, 1 - 1j, 5e-324,
             math.nan, np.zeros((0, 3)), np.array([-0.0])]
    for shape in ((2, 2), (4, 4), (3,), (0,)):
        for _ in range(10):
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            cases.append(m)
            if not m.size:
                continue
            for specials in ((math.nan,), (math.inf,), (-math.inf,), (math.nan, math.inf)):
                hit = m.reshape(-1).copy()
                for special in specials:  # into the real or the imaginary part
                    at = rng.integers(hit.size)
                    if rng.integers(2):
                        hit[at] = complex(special, hit[at].imag)
                    else:
                        hit[at] = complex(hit[at].real, special)
                cases.append(hit.reshape(shape))
    for m in cases:
        got, want = max_abs(m), _max_abs_by_np_max(m)
        assert type(got) is float
        if math.isnan(want):
            assert math.isnan(got), m
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), m


def test_dot_forms_the_matmul_product_bit_for_bit(rng):
    # query and _commute form their products with ndarray.dot: no commutation
    # or absorb verdict moves if it equals @ on every matrix they meet
    matrices = []  # groups of same-time matrices
    for name in BUILTIN_SOURCES:
        by_time = {}
        for _, fam in build_scenario(builtin_scenario(name)).families:
            for h in fam.histories:
                for ev in h.events:
                    by_time.setdefault(ev.time_index, {})[id(ev.projector)] = ev.projector.matrix
        matrices += [list(at_k.values()) for at_k in by_time.values()]
    for dim in (2, 4):
        drawn = [projector_onto(oracles.random_state(rng, dim)).matrix for _ in range(4)]
        for rank in range(1, dim + 1):
            for _ in range(3):
                u = oracles.haar_unitary(rng, dim)[:, :rank]
                drawn.append(as_projector(u @ u.conj().T).matrix)
        matrices.append(drawn)
    pairs = 0
    for same_time in matrices:
        for a in same_time:
            for b in same_time:
                prod = a.dot(b)
                assert prod.dtype == complex and prod.shape == a.shape
                assert prod.tobytes() == (a @ b).tobytes()
                pairs += 1
    assert pairs > 500


def test_a_vector_whose_squared_norm_overflows_is_normalized():
    big = [1e200, 0.0]
    assert projector_onto(big).matrix.tobytes() == projector_onto([1.0, 0.0]).matrix.tobytes()
    assert states_equal_up_to_phase(big, big)


def test_normalized_rejects_zero():
    with pytest.raises(ValueError):
        normalized(np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_states_equal_up_to_phase_property(seed):
    gen = np.random.default_rng(seed)
    v = oracles.random_state(gen, 4)
    phase = np.exp(1j * gen.uniform(0, 2 * math.pi))
    assert states_equal_up_to_phase(v, phase * v)
    w = oracles.random_state(gen, 4)
    if abs(abs(np.vdot(v, w)) - 1) > 1e-6:
        assert not states_equal_up_to_phase(v, w, tol=1e-7)
