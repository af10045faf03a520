"""Spin-1/2 kinematics: direction-indexed bases, spin component operators,
Born-rule probabilities, and the two-spin singlet.

A direction is a point on the unit sphere given by polar/azimuthal angles
(radians). The basis attached to a direction w is

    |w+> = (cos(t/2), e^{i p} sin(t/2)),
    |w-> = (-e^{-i p} sin(t/2), cos(t/2)),

which is continuous in (t, p) away from t = pi and needs no renormalization
branch at t = pi. The relative phase of |w-> is a convention; all physical
comparisons in this package go through |<u|v>| or through projectors, which
do not see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EPS_NORM, Projector, as_state, inner, projector_onto, tensor


@dataclass(frozen=True)
class Direction:
    """Spatial direction: polar angle theta in [0, pi], azimuth phi in [0, 2*pi).

    Other finite angles name the same direction and are brought into range:
    theta is reduced mod 2*pi, a theta above pi becomes 2*pi - theta with phi
    turned by pi, and phi is reduced into [0, 2*pi). Angles already in range
    keep their exact values. The unit vector's components are computed once.
    """

    theta: float
    phi: float = 0.0
    _xyz: tuple[float, float, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        theta, phi = self.theta, self.phi
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError("direction angles must be finite")
        if not 0.0 <= theta <= math.pi:
            theta %= math.tau
            if theta > math.pi:
                theta, phi = math.tau - theta, phi + math.pi
        if not 0.0 <= phi < math.tau:
            phi %= math.tau
            if phi == math.tau:  # a tiny negative phi rounds up to 2*pi
                phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        st = math.sin(theta)
        object.__setattr__(
            self, "_xyz", (st * math.cos(phi), st * math.sin(phi), math.cos(theta))
        )

    @property
    def unit_vector(self) -> np.ndarray:
        return np.array(self._xyz)


X = Direction(math.pi / 2, 0.0)
Y = Direction(math.pi / 2, math.pi / 2)
Z = Direction(0.0, 0.0)
MINUS_X = Direction(math.pi / 2, math.pi)
MINUS_Y = Direction(math.pi / 2, 3 * math.pi / 2)
MINUS_Z = Direction(math.pi, 0.0)

NAMED_DIRECTIONS = {
    "x": X, "y": Y, "z": Z, "-x": MINUS_X, "-y": MINUS_Y, "-z": MINUS_Z,
}


def angle_between(a: Direction, b: Direction) -> float:
    """Angle in [0, pi] between two directions."""
    cos = float(np.clip(a.unit_vector @ b.unit_vector, -1.0, 1.0))
    return math.acos(cos)


@dataclass(frozen=True, eq=False)
class SpinBasis:
    """Orthonormal eigenbasis {|w+>, |w->} of the spin component along w."""

    plus: np.ndarray
    minus: np.ndarray
    direction: Direction


def basis_for(w: Direction) -> SpinBasis:
    half_t = w.theta / 2.0
    c, s = math.cos(half_t), math.sin(half_t)
    phase = np.exp(1j * w.phi)
    plus = np.array([c, phase * s], dtype=complex)
    minus = np.array([-s / phase, c], dtype=complex)
    return SpinBasis(plus, minus, w)


def spin_operator(w: Direction) -> np.ndarray:
    """Spin component along w: eigenvectors |w+/->, eigenvalues +/- 1/2.

    The result is exactly self-adjoint (averaged with its adjoint), so a
    Hamiltonian omega * S_w stays self-adjoint however large omega is."""
    b = basis_for(w)
    s = 0.5 * (np.outer(b.plus, b.plus.conj()) - np.outer(b.minus, b.minus.conj()))
    return 0.5 * (s + s.conj().T)


def spin_projector(w: Direction, sign: int, label: str = "") -> Projector:
    """Projector onto the spin-(sign * 1/2) eigenstate along w."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    b = basis_for(w)
    return projector_onto(b.plus if sign > 0 else b.minus, label)


def born_probability(state, w: Direction, sign: int) -> float:
    """Probability that the spin component along w is sign * 1/2."""
    state = as_state(state)
    if state.shape[0] != 2:
        raise ValueError("born_probability applies to a single spin (dim 2)")
    if abs(np.linalg.norm(state) - 1.0) > EPS_NORM:
        raise ValueError("state must be normalized")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    b = basis_for(w)
    eig = b.plus if sign > 0 else b.minus
    return float(abs(inner(eig, state)) ** 2)


def singlet(direction: Direction = Z) -> np.ndarray:
    """Two-spin singlet (|w+ w-> - |w- w+>)/sqrt(2), first factor slowest.

    The result is one and the same state (up to global phase) for every
    choice of direction.
    """
    b = basis_for(direction)
    return (tensor(b.plus, b.minus) - tensor(b.minus, b.plus)) / math.sqrt(2.0)
