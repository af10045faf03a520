import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from qhist import dynamics
from qhist.dynamics import (
    Schedule,
    Segment,
    TimeGrid,
    propagator,
    schedules_equal,
)
from qhist.linalg import (
    EPS_OP,
    identity,
    max_abs,
    states_equal_up_to_phase,
    tensor,
    unitary_exp,
)


def test_time_grid_validation():
    grid = TimeGrid((0.0, 1.0, 2.5))
    assert grid.n_events == 2
    assert grid.time_at(2) == 2.5
    with pytest.raises(ValueError, match="increasing"):
        TimeGrid((0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="at least one"):
        TimeGrid(())
    with pytest.raises(ValueError, match="outside"):
        grid.time_at(3)


@pytest.mark.parametrize("times", [(0.0, math.nan), (math.nan,), (0.0, math.inf),
                                   (-math.inf, 0.0), (0.0, 1.0, math.nan, 3.0)])
def test_time_grid_rejects_non_finite_times(times):
    # a NaN fails every "b <= a", so the increasing test alone let it through
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(times)


def test_segment_validation():
    with pytest.raises(ValueError, match="empty"):
        Segment(1.0, 1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="self-adjoint"):
        Segment(0.0, 1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_a_segment_keeps_its_spectrum_read_only():
    seg = Segment(0.0, 2.0, 0.7 * oracles.SX + 0.2 * oracles.SZ)
    assert seg._eigh is None and "_eigh" not in repr(seg)
    w, vecs = dynamics._spectrum(seg)
    assert dynamics._spectrum(seg) is seg._eigh
    want = np.linalg.eigh(seg.hamiltonian)
    assert w.tobytes() == want[0].tobytes() and vecs.tobytes() == want[1].tobytes()
    with pytest.raises(ValueError):
        w[0] = 0.0
    with pytest.raises(ValueError):
        vecs[0, 0] = 0.0
    moved = replace(seg, t_end=3.0)
    assert moved._eigh is None
    assert dynamics._spectrum(moved) is not seg._eigh
    stronger = replace(seg, hamiltonian=2.0 * seg.hamiltonian)
    assert dynamics._spectrum(stronger)[0].tolist() == pytest.approx((2.0 * w).tolist())
    u = propagator(Schedule(2, (seg,)), 0.0, 2.0)
    assert u.tobytes() == unitary_exp(seg.hamiltonian, 2.0).tobytes()


def test_schedule_rejects_overlap_and_dim_mismatch():
    h = oracles.SY
    with pytest.raises(ValueError, match="overlapping"):
        Schedule(dim=2, segments=(Segment(0, 2, h), Segment(1, 3, h)))
    with pytest.raises(ValueError, match="dim"):
        Schedule(dim=4, segments=(Segment(0, 1, h),))


def test_propagator_free_is_identity():
    s = Schedule.free(2)
    assert np.array_equal(propagator(s, 0.0, 5.0), identity(2))
    assert np.array_equal(propagator(s, 1.0, 1.0), identity(2))


def test_propagator_quarter_turn_reaches_x_plus():
    # omega * (t1 - t0) = pi/2 about the y axis maps |z+> onto |x+>
    omega = math.pi / 2
    s = Schedule(dim=2, segments=(Segment(0.0, 1.0, omega * oracles.SY),))
    u = propagator(s, 0.0, 1.0)
    assert np.allclose(u, oracles.rotation_y(math.pi / 2), atol=EPS_OP)
    assert states_equal_up_to_phase(u @ oracles.ZP, oracles.XP)


def test_propagator_identity_at_equal_times():
    s = Schedule(dim=2, segments=(Segment(0.0, 2.0, oracles.SY),))
    assert np.array_equal(propagator(s, 0.7, 0.7), identity(2))


def test_propagator_covers_gaps_freely():
    s = Schedule(dim=2, segments=(Segment(1.0, 2.0, 0.8 * oracles.SX),))
    full = propagator(s, 0.0, 3.0)
    assert np.allclose(full, oracles.axis_exponential(math.pi / 2, 0.0, 0.8), atol=1e-12)


def test_propagator_rejects_reversed_interval():
    with pytest.raises(ValueError, match="t_a <= t_b"):
        propagator(Schedule.free(2), 2.0, 1.0)


@pytest.mark.parametrize("t_a, t_b", [(0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)])
def test_propagator_rejects_a_nan_time(t_a, t_b):
    # no segment overlap is positive for a NaN end, which read as the identity
    s = Schedule(dim=2, segments=(Segment(0.0, 2.0, oracles.SY),))
    with pytest.raises(ValueError, match="t_a <= t_b"):
        propagator(s, t_a, t_b)


def _random_schedule(rng, dim):
    segments = []
    t = 0.0
    for _ in range(3):
        t0 = t + rng.uniform(0.0, 0.5)
        t1 = t0 + rng.uniform(0.2, 1.0)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        segments.append(Segment(t0, t1, (a + a.conj().T) / 2))
        t = t1
    return Schedule(dim=dim, segments=tuple(segments))


def test_propagator_unitary_and_composition(rng):
    for dim in (2, 4):
        for _ in range(5):
            s = _random_schedule(rng, dim)
            t0, t1, t2 = 0.0, rng.uniform(0.5, 1.5), rng.uniform(2.0, 3.5)
            u02 = propagator(s, t0, t2)
            assert max_abs(u02.conj().T @ u02 - identity(dim)) <= EPS_OP
            composed = propagator(s, t1, t2) @ propagator(s, t0, t1)
            assert max_abs(u02 - composed) <= 1e-12


def test_schedules_equal():
    a = Schedule(dim=2, segments=(Segment(0.0, 1.0, oracles.SY),))
    b = Schedule(dim=2, segments=(Segment(0.0, 1.0, oracles.SY.copy()),))
    c = Schedule(dim=2, segments=(Segment(0.0, 1.0, oracles.SX),))
    assert schedules_equal(a, b)
    assert not schedules_equal(a, c)
    assert not schedules_equal(a, Schedule.free(2))
    assert not schedules_equal(a, Schedule(dim=2, segments=(Segment(0.0, 2.0, oracles.SY),)))


def test_two_spin_schedule_propagator():
    h = tensor(oracles.SY, oracles.I2) * (math.pi / 2)
    s = Schedule(dim=4, segments=(Segment(0.0, 1.0, h),))
    u = propagator(s, 0.0, 1.0)
    expected = tensor(oracles.rotation_y(math.pi / 2), oracles.I2)
    assert np.allclose(u, expected, atol=1e-12)
